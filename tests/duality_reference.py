"""Per-input reference for the duality checks: run B on each input with
run_growth, extract both sides' tableaux and compare them as tableaux.

This is the direct reading of each duality, kept independent of the sweep's
image keys and rank lookup, so the checks in growthkit.duality can be
compared against it report for report.
"""

from growthkit.duality import DualityReport
from growthkit.growth import (
    ColoredTableau, GeneralizedPermutation, extract_P, extract_Q, run_growth,
)
from growthkit.lattice import transpose
from oracles import sweep_order_gps


def _recolor(gp, f):
    return GeneralizedPermutation(gp.n, gp.m, frozenset((i, j, f(c)) for i, j, c in gp.entries))


def _transpose_with(t, g, weight):
    cells = []
    for p, v, c in t.cells:
        q = p.transpose()
        cells.append((q, v, g(c) if weight(q) > 1 else c))
    return ColoredTableau(transpose(t.shape), tuple(cells))


def _plain(t):
    return ColoredTableau(t.shape, tuple((p, v, 1) for p, v, _ in t.cells))


def _circled(t):
    return {v for _, v, c in t.cells if c == 2}


def _report(kind, algA, algB, n, check):
    checked, found = 0, []
    for size in range(1, n + 1):
        for gp in sweep_order_gps(size, algA.r):
            checked += 1
            got = check(gp)
            if got is not None:
                found.append(got)
    return DualityReport(kind, algA.name, algB.name, n, checked, tuple(found))


def transpose_report(algA, algB, f, g, n):
    instB = algB.instantiation

    def check(gp):
        ga, gb = run_growth(algA, gp), run_growth(algB, _recolor(gp, f))
        want_p = _transpose_with(extract_P(ga), g, instB.w1)
        want_q = _transpose_with(extract_Q(ga), g, instB.w2)
        if extract_P(gb) != want_p or extract_Q(gb) != want_q:
            return f"gp={sorted(gp.entries)}"
        return None

    return _report("transpose", algA, algB, n, check)


def inversion_report(algA, algB, n, color_map):
    def check(gp):
        ga = run_growth(algA, gp)
        gb = run_growth(algB, _recolor(gp.inverse(), color_map.alpha_map))
        pa, qa = extract_P(ga), extract_Q(ga)
        pb, qb = extract_P(gb), extract_Q(gb)
        if color_map.compare == "exact":
            return None if pb == qa and qb == pa else f"gp={sorted(gp.entries)}"
        if _plain(pb) != _plain(qa) or _plain(qb) != _plain(pa):
            return f"gp={sorted(gp.entries)} (underlying tableaux differ)"
        time_of = {i: j for i, j, _ in gp.entries}
        value_at = {j: i for i, j, _ in gp.entries}
        if color_map.circled_tableau == "P":
            want = {time_of[v] for v in _circled(pa)}
            got = _circled(pb)
        else:
            want = {value_at[j] for j in _circled(qa)}
            got = _circled(qb)
        if got != want:
            return (f"gp={sorted(gp.entries)} (circles landed on {sorted(got)}, "
                    f"expected {sorted(want)})")
        return None

    return _report("inversion", algA, algB, n, check)


def nodes_report(alg, n):
    def check(gp):
        ga, gb = run_growth(alg, gp), run_growth(alg, gp.inverse())
        for i in range(gp.n + 1):
            for j in range(gp.m + 1):
                if gb.nodes[j][i] != ga.nodes[i][j]:
                    return f"gp={sorted(gp.entries)} node ({i},{j})"
        return None

    return _report("inversion-nodes", alg, alg, n, check)
