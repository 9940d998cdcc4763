"""The benchmark's workloads.

A workload turns a random generator seeded from ``--seed`` into cycles of
operations.  A cycle is the smallest unit that holds the workload's whole
mix, so a run measures whole cycles and every run sees the same mix.
Inputs are built before an operation is timed.  An operation then drives
growthkit only through its public functions, wraps each call in a span,
and checks every output: a wrong output raises ``CheckFailed``.  The
program sees only the generated inputs, never a workload's name.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable

from growthkit import catalog, duality, oracle, render
from growthkit.growth import (
    GeneralizedPermutation, extract_P, extract_Q, invert_growth, run_growth,
)


class CheckFailed(Exception):
    """The program returned a wrong output."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    label: str                     # what it runs, for failure messages
    inputs: int                    # generalized permutations processed and checked
    cells: int                     # cells of the forward growths those inputs ask for
    run: Callable[[Callable], None]  # run(span); raises on a wrong output


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: tuple[str, ...]    # resolved in set-up
    threaded: bool                 # sweeps use min(2, nproc) workers
    cycle: Callable[[random.Random, int], list[Op]]  # cycle(rng, workers)
    nominal_cycle_s: float         # one cycle's wall time at the first benchmarked commit

    def workers(self, nproc: int) -> int:
        return min(2, nproc) if self.threaded else 1

    def cycles_for(self, seconds: float) -> int:
        """A fixed amount of work that takes about ``seconds`` at the first
        benchmarked commit, so every commit is measured on the same work."""
        return max(1, round(seconds / self.nominal_cycle_s))


# --- roundtrip-n200 ---------------------------------------------------------

ROUNDTRIP_N = 200
ROUNDTRIP_ALGORITHMS = ("rs-row", "left-right", "double-circle", "worley-sagan",
                        "shifted-column")


def _random_gp(rng: random.Random, n: int, r: int) -> GeneralizedPermutation:
    """A full colored permutation: every value and every time used once."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return GeneralizedPermutation.from_word([(v, rng.randint(1, r)) for v in values], n=n)


def _schensted(word: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Reference row insertion: insertion and recording tableaux by rows."""
    P: list[list[int]] = []
    Q: list[list[int]] = []
    for t, v in enumerate(word, start=1):
        row = 0
        while True:
            if row == len(P):
                P.append([v])
                Q.append([t])
                break
            k = bisect_left(P[row], v)
            if k == len(P[row]):
                P[row].append(v)
                Q[row].append(t)
                break
            P[row][k], v = v, P[row][k]
            row += 1
    return P, Q


def _rows(t) -> list[list[int]]:
    rows: dict[int, list[tuple[int, int]]] = {}
    for p, v, _ in t.cells:
        rows.setdefault(p.row, []).append((p.col, v))
    return [[v for _, v in sorted(rows[r])] for r in sorted(rows)]


def _roundtrip(alg, gp: GeneralizedPermutation, span) -> None:
    """growthkit run, then invert, through the text formats a user sees."""
    with span("render.format_gp"):
        text = render.format_gp(gp, alg.r)
    with span("render.parse_gp"):
        parsed = render.parse_gp(text, alg.r, n=gp.n)
    _check(parsed == gp, "parse_gp(format_gp(gp)) differs from gp")
    with span("growth.run_growth"):
        g = run_growth(alg, parsed)
    with span("growth.extract_P"):
        P = extract_P(g)
    with span("growth.extract_Q"):
        Q = extract_Q(g)
    _check(P.shape == Q.shape and P.size == gp.n,
           "P and Q do not share one shape of size n")
    if alg.name == "rs-row":
        word = [i for i, _, _ in sorted(gp.entries, key=lambda e: e[1])]
        _check((_rows(P), _rows(Q)) == _schensted(word),
               "rs-row P/Q differ from reference row insertion")
    with span("render.render_tableau"):
        p_text = render.render_tableau(P, "text", alg.p_suffixes, "P")
    with span("render.render_tableau"):
        q_text = render.render_tableau(Q, "text", alg.q_suffixes, "Q")
    with span("render.parse_tableau"):
        P2 = render.parse_tableau(p_text, alg.geometry)
    with span("render.parse_tableau"):
        Q2 = render.parse_tableau(q_text, alg.geometry)
    _check(P2 == P and Q2 == Q, "parse_tableau(render_tableau(T)) differs from T")
    with span("growth.invert_growth"):
        back = invert_growth(alg, P2, Q2)
    _check(back == gp, "invert_growth did not recover the input")


def _roundtrip_cycle(rng: random.Random, workers: int) -> list[Op]:
    n = ROUNDTRIP_N
    ops = []
    for name in ROUNDTRIP_ALGORITHMS:
        alg = catalog.get_algorithm(name)
        gp = _random_gp(rng, n, alg.r)
        ops.append(Op(f"roundtrip {name} n={n}", 1, n * n, partial(_roundtrip, alg, gp)))
    return ops


# --- bijection-sweep --------------------------------------------------------

BIJECTION_TASKS = (("rs-row", 7), ("left-right", 5), ("double-circle", 4),
                   ("shifted-column", 7))


def _bijection(alg, n: int, workers: int, want: int, span) -> None:
    with span("oracle.check_bijection"):
        report = oracle.check_bijection(alg, n, workers=workers)
    _check(report.ok, str(report))
    _check(report.gp_count == report.image_count == report.expected_count == want,
           f"{report}: counts differ from n!*r^n = {want}")


def _bijection_cycle(rng: random.Random, workers: int) -> list[Op]:
    tasks = list(BIJECTION_TASKS)
    rng.shuffle(tasks)
    ops = []
    for name, n in tasks:
        alg = catalog.get_algorithm(name)
        count = factorial(n) * alg.r ** n
        ops.append(Op(f"bijection {name} n={n}", count, count * n * n,
                      partial(_bijection, alg, n, workers, count)))
    return ops


# --- duality-sweep-threads --------------------------------------------------

DUALITY_TASKS = (("inversion", "left-right", "mixed", 5),
                 ("inversion", "double-circle", "double-circle", 4),
                 ("inversion", "shifted-column", "shifted-column", 6),
                 ("transpose", "rs-row", "rs-col", 6))


def _duality(kind: str, a, b, n: int, workers: int, want: int, span) -> None:
    if kind == "inversion":
        color_map = duality.INVERSION_PAIRS[(a.name, b.name)]
        with span("duality.check_inversion_duality"):
            report = duality.check_inversion_duality(a, b, n, color_map=color_map,
                                                     workers=workers)
    else:
        with span("duality.check_transpose_duality"):
            report = duality.check_transpose_duality(a, b, n=n, workers=workers)
    _check(report.ok, str(report))
    _check(report.checked == want, f"{report}: checked differs from the sum of k!*r^k = {want}")


def _duality_cycle(rng: random.Random, workers: int) -> list[Op]:
    tasks = list(DUALITY_TASKS)
    rng.shuffle(tasks)
    ops = []
    for kind, a_name, b_name, n in tasks:
        a, b = catalog.get_algorithm(a_name), catalog.get_algorithm(b_name)
        sizes = range(1, n + 1)
        count = sum(factorial(k) * a.r ** k for k in sizes)
        cells = 2 * sum(factorial(k) * a.r ** k * k * k for k in sizes)
        ops.append(Op(f"duality {kind} {a_name}/{b_name} n<={n} workers={workers}",
                      count, cells, partial(_duality, kind, a, b, n, workers, count)))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("roundtrip-n200", ROUNDTRIP_ALGORITHMS, False, _roundtrip_cycle, 7.5),
    Workload("bijection-sweep", tuple(name for name, _ in BIJECTION_TASKS), False,
             _bijection_cycle, 10.0),
    Workload("duality-sweep-threads",
             tuple(sorted({name for _, a, b, _ in DUALITY_TASKS for name in (a, b)})),
             True, _duality_cycle, 11.5),
)}
