"""The duality checks read B's side from B's sweep records by rank, in one
sweep when A is B.  Each report, counterexample texts and their order
included, must equal the per-input reference that runs B on every input and
compares tableaux."""

import dataclasses
from math import factorial

import pytest

from growthkit import duality, oracle
from growthkit.catalog import get_algorithm
from growthkit.duality import (
    DualityError, InversionColorMap, _swap_components, check_inversion_duality,
    check_inversion_nodes, check_transpose_duality, identity, swap_uc,
)
from duality_reference import inversion_report, nodes_report, transpose_report
from oracles import sweep_rank


def alg(name):
    return get_algorithm(name)


EXACT = InversionColorMap()
NEAR_P = InversionColorMap(compare="near", circled_tableau="P")
NEAR_Q = InversionColorMap(compare="near", circled_tableau="Q")

INVERSION_CASES = [
    ("rs-row", "rs-row", 4, EXACT),
    ("left-right", "mixed", 3, EXACT),
    ("double-circle", "double-circle", 2, InversionColorMap(alpha_map=_swap_components)),
    ("shifted-column", "shifted-column", 4, NEAR_P),
    ("dual-shifted-column", "dual-shifted-column", 4, NEAR_Q),
    # wrong pairings
    ("sagan1", "sagan1", 4, EXACT),
    ("rs-row", "rs-col", 4, EXACT),
    ("double-circle", "double-circle", 2, EXACT),
    ("mixed", "left-right", 3, NEAR_P),
    ("shifted-column", "dual-shifted-column", 3, NEAR_P),
    ("left-right", "left-right", 3, NEAR_P),
    ("mixed", "left-right", 3, NEAR_Q),
    ("left-right", "left-right", 3, NEAR_Q),
    # tableaux of two geometries never match
    ("shifted-column", "rs-row", 3, NEAR_P),
    ("rs-col", "shifted-column", 3, EXACT),
]


@pytest.mark.parametrize("a, b, n, color_map", INVERSION_CASES,
                         ids=[f"{a}-{b}-{m.compare}-{m.circled_tableau}-n{n}"
                              for a, b, n, m in INVERSION_CASES])
def test_inversion_reports_equal_the_reference(a, b, n, color_map):
    want = inversion_report(alg(a), alg(b), n, color_map)
    for workers in (1, 2, 3):
        assert check_inversion_duality(alg(a), alg(b), n, color_map=color_map,
                                       workers=workers) == want


def test_wrong_pairings_fail_each_way():
    """The cases above reach every kind of counterexample text."""
    texts = [c for a, b, n, m in INVERSION_CASES
             for c in inversion_report(alg(a), alg(b), n, m).counterexamples]
    assert any(t.endswith("(underlying tableaux differ)") for t in texts)
    assert any("(circles landed on [], expected [" in t for t in texts)
    assert any("(circles landed on [1], expected [])" in t for t in texts)
    assert "gp=[(1, 2, 1), (2, 1, 1)]" in texts


TRANSPOSE_CASES = [
    ("rs-row", "rs-col", identity, identity, 4),
    ("left-right", "left-right", swap_uc, swap_uc, 3),
    ("mixed", "mixed", swap_uc, swap_uc, 3),
    # wrong pairings
    ("rs-row", "rs-row", identity, identity, 4),
    ("left-right", "left-right", identity, swap_uc, 3),
    ("left-right", "left-right", swap_uc, identity, 3),
    ("left-right", "mixed", swap_uc, swap_uc, 3),
]


@pytest.mark.parametrize("a, b, f, g, n", TRANSPOSE_CASES,
                         ids=[f"{a}-{b}-{f.__name__}-{g.__name__}"
                              for a, b, f, g, n in TRANSPOSE_CASES])
def test_transpose_reports_equal_the_reference(a, b, f, g, n):
    want = transpose_report(alg(a), alg(b), f, g, n)
    for workers in (1, 2, 3):
        assert check_transpose_duality(alg(a), alg(b), f, g, n, workers=workers) == want


@pytest.mark.parametrize("name, n", [("rs-row", 4), ("rs-col", 4), ("mclarnan-fairy", 4),
                                     ("left-right", 3)])
def test_inversion_nodes_reports_equal_the_reference(name, n):
    want = nodes_report(alg(name), n)
    assert check_inversion_nodes(alg(name), n) == want
    assert want.ok == (name != "left-right")


@pytest.mark.parametrize("alpha, r, n", [({1: 1}, 1, 5), ({1: 2, 2: 1}, 2, 4),
                                         ({1: 1, 2: 3, 3: 2, 4: 4}, 4, 3)])
def test_inverse_rank_is_the_rank_of_the_inverse(alpha, r, n):
    """The inverse's rank, read off an input's word, is the direct
    formula's rank of the inverse input."""
    rank = duality._inverse_rank(alpha, r, n)
    for size in range(n + 1):
        for k in range(factorial(size) * r ** size):
            word = oracle._unrank(k, size, r)
            inverse = sorted((t, i, alpha[c]) for i, (t, c) in enumerate(word, start=1))
            assert rank(word, k) == sweep_rank([(i, c) for _, i, c in inverse], r)


def _copy(name):
    """An equal algorithm that is not the catalog's object."""
    return dataclasses.replace(alg(name))


DOUBLE_CIRCLE = InversionColorMap(alpha_map=_swap_components)

# (sweeps, the check at a worker count, its reference report)
SWEEP_COUNT_CASES = {
    "inversion-double-circle": (
        1, lambda w: check_inversion_duality(alg("double-circle"), alg("double-circle"), 2,
                                             workers=w),
        lambda: inversion_report(alg("double-circle"), alg("double-circle"), 2, DOUBLE_CIRCLE)),
    "transpose-left-right-swap-uc": (
        1, lambda w: check_transpose_duality(alg("left-right"), alg("left-right"), swap_uc,
                                             swap_uc, 3, workers=w),
        lambda: transpose_report(alg("left-right"), alg("left-right"), swap_uc, swap_uc, 3)),
    "inversion-nodes-rs-row": (
        1, lambda w: check_inversion_nodes(alg("rs-row"), 4),
        lambda: nodes_report(alg("rs-row"), 4)),
    "inversion-left-right-mixed": (
        2, lambda w: check_inversion_duality(alg("left-right"), alg("mixed"), 3, workers=w),
        lambda: inversion_report(alg("left-right"), alg("mixed"), 3, EXACT)),
    "transpose-rs-row-rs-col": (
        2, lambda w: check_transpose_duality(alg("rs-row"), alg("rs-col"), n=4, workers=w),
        lambda: transpose_report(alg("rs-row"), alg("rs-col"), identity, identity, 4)),
    # copies are distinct algorithms to the check, so each is swept
    "inversion-double-circle-copies": (
        2, lambda w: check_inversion_duality(_copy("double-circle"), _copy("double-circle"), 2,
                                             workers=w),
        lambda: inversion_report(alg("double-circle"), alg("double-circle"), 2, DOUBLE_CIRCLE)),
    "transpose-left-right-copy": (
        2, lambda w: check_transpose_duality(alg("left-right"), _copy("left-right"), swap_uc,
                                             swap_uc, 3, workers=w),
        lambda: transpose_report(alg("left-right"), alg("left-right"), swap_uc, swap_uc, 3)),
    "inversion-sagan1-copy-wrong": (
        2, lambda w: check_inversion_duality(_copy("sagan1"), alg("sagan1"), 3, color_map=EXACT,
                                             workers=w),
        lambda: inversion_report(alg("sagan1"), alg("sagan1"), 3, EXACT)),
}


@pytest.mark.parametrize("sweeps, run, reference", SWEEP_COUNT_CASES.values(),
                         ids=SWEEP_COUNT_CASES)
def test_each_distinct_algorithm_is_swept_once(monkeypatch, sweeps, run, reference):
    """A check of an algorithm against itself sweeps it once, and reports
    what the reference does at every worker count."""
    want, calls = reference(), []

    real = oracle._sweep_branches

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(oracle, "_sweep_branches", counted)
    for workers in (1, 2, 3):
        calls.clear()
        assert run(workers) == want
        assert len(calls) == sweeps


def test_alpha_map_must_land_in_bs_colors():
    with pytest.raises(DualityError, match="not defined on color 3"):
        check_transpose_duality(alg("double-circle"), alg("double-circle"), swap_uc, n=2)
    with pytest.raises(DualityError, match="sends color 1 to 2, outside 1..1"):
        check_transpose_duality(alg("rs-row"), alg("rs-col"), swap_uc, n=2)
    with pytest.raises(DualityError, match="not defined on color 3"):
        check_inversion_duality(alg("double-circle"), alg("double-circle"), 2,
                                color_map=InversionColorMap(alpha_map=swap_uc))
    with pytest.raises(DualityError, match="sends color 2 to 3, outside 1..1"):
        check_inversion_duality(alg("double-circle"), alg("rs-row"), 2,
                                color_map=InversionColorMap(alpha_map=_swap_components))


@pytest.mark.parametrize("a, b", [("sagan1", "sagan1"), ("rs-row", "sagan1"),
                                  ("worley-sagan", "rs-col")])
def test_transpose_needs_both_on_the_quadrant(a, b):
    with pytest.raises(DualityError, match="only defined on the quadrant"):
        check_transpose_duality(alg(a), alg(b), n=2)
