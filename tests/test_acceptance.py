"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check is exact (zero tolerance) and carries the stated runtime
budget.
"""

import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from growthkit.catalog import get_algorithm, list_algorithms
from growthkit.cli import main
from growthkit.duality import (
    check_inversion_duality, check_inversion_nodes, check_transpose_duality,
    swap_uc,
)
from growthkit.growth import extract_P, extract_Q, invert_growth, restrict, run_growth
from growthkit.insdiag import validate
from growthkit.lattice import shapes_up_to
from growthkit.oracle import check_bijection
from growthkit.wdgg import BUILTIN_INSTANTIATIONS, verify_instantiation
from figures import FIGURES
from oracle_reference import enumerate_gps

GOLDEN = Path(__file__).parent / "golden"


def report(ok: bool, label: str, budget: float, elapsed: float):
    line = f"{'PASS' if ok else 'FAIL'} {label} ({elapsed:.2f}s, budget {budget:g}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"over budget: {line}"


def test_criterion_1_golden_figures():
    start = time.perf_counter()
    ok = True
    for name, alg, perm, _, _ in FIGURES:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["run", "--algorithm", alg, "--perm", perm])
        if rc != 0 or buf.getvalue() != (GOLDEN / f"{name}.txt").read_text():
            ok = False
            print(f"  golden mismatch: {name}")
    report(ok, f"criterion 1: {len(FIGURES)} worked examples reproduce exactly",
           1.0, time.perf_counter() - start)


def test_criterion_2_weight_equations():
    start = time.perf_counter()
    ok = True
    for name, inst in BUILTIN_INSTANTIATIONS.items():
        result = verify_instantiation(inst, 10)
        if not result.ok:
            ok = False
            print(f"  {result}")
    report(ok, "criterion 2: weight equation holds for all 8 instantiations, size <= 10",
           1.0, time.perf_counter() - start)


def test_criterion_3_diagram_validity():
    start = time.perf_counter()
    ok = True
    for name, alg in list_algorithms().items():
        for shape in shapes_up_to(alg.geometry, 10):
            result = validate(alg.instantiation, alg.diagram(shape))
            if not result.ok:
                ok = False
                print(f"  {name} on {shape}: {result}")
    report(ok, "criterion 3: all 12 algorithms validate on all shapes of size <= 10",
           10.0, time.perf_counter() - start)


def test_criterion_4_bijectivity():
    start = time.perf_counter()
    ok = True
    expected_examples = {("rs-row", 4): 24, ("double-circle", 3): 384}
    for name, alg in list_algorithms().items():
        sizes = [3] if alg.r > 2 else [3, 4]
        for n in sizes:
            result = check_bijection(alg, n)
            if not result.ok:
                ok = False
                print(f"  {result}")
            want = expected_examples.get((name, n))
            if want is not None and result.expected_count != want:
                ok = False
                print(f"  counting identity: {name} n={n} gave {result.expected_count}, "
                      f"expected {want}")
    report(ok, "criterion 4: image = all same-shape colored pairs (n=3 all; n=4 for r<=2)",
           60.0, time.perf_counter() - start)


def test_criterion_5_round_trip():
    start = time.perf_counter()
    failures = 0
    for name, alg in list_algorithms().items():
        n_max = 3 if alg.r == 4 else 4
        for n in range(1, n_max + 1):
            for gp in enumerate_gps(n, alg.r):
                g = run_growth(alg, gp)
                if invert_growth(alg, extract_P(g), extract_Q(g)) != gp:
                    failures += 1
    report(failures == 0,
           "criterion 5: invert_growth reverses run_growth on every full input",
           60.0, time.perf_counter() - start)


def test_criterion_6_dualities():
    start = time.perf_counter()
    alg = get_algorithm
    checks = [
        ("a: rs-row inversion swaps P and Q, n<=5",
         check_inversion_duality(alg("rs-row"), alg("rs-row"), 5)),
        ("a: rs-row node-level inversion, n<=5",
         check_inversion_nodes(alg("rs-row"), 5)),
        ("b: rs-row/rs-col transpose duality, n<=5",
         check_transpose_duality(alg("rs-row"), alg("rs-col"), n=5)),
        ("c: left-right transpose self-duality under U<->C, n<=4",
         check_transpose_duality(alg("left-right"), alg("left-right"),
                                 swap_uc, swap_uc, 4)),
        ("d: left-right/mixed inversion duality with circle transfer, n<=4",
         check_inversion_duality(alg("left-right"), alg("mixed"), 4)),
        ("e: shifted-column inversion near-duality, n<=4",
         check_inversion_duality(alg("shifted-column"), alg("shifted-column"), 4)),
        ("f: double-circle inversion self-duality, n<=3",
         check_inversion_duality(alg("double-circle"), alg("double-circle"), 3)),
    ]
    ok = True
    for label, result in checks:
        if not result.ok:
            ok = False
            print(f"  {label}: {result}")
    report(ok, "criterion 6: all declared dualities hold with zero counterexamples",
           120.0, time.perf_counter() - start)


def test_criterion_7_restriction_coherence():
    start = time.perf_counter()
    failures = 0
    for name in ("rs-row", "sagan1", "worley-sagan", "mixed"):
        alg = get_algorithm(name)
        for gp in enumerate_gps(4, alg.r):
            g = run_growth(alg, gp)
            for i_max in range(5):
                sub = restrict(g, i_max)
                rerun = run_growth(alg, gp.restrict_values(i_max))
                if sub.nodes != rerun.nodes or extract_P(sub) != extract_P(rerun):
                    failures += 1
    report(failures == 0,
           "criterion 7: restricted diagrams equal subword growths (n<=4, all i_max)",
           60.0, time.perf_counter() - start)
