"""Inversion and transpose duality: transforms on algorithms and exhaustive
checks of the tableau-level relationships they induce."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .catalog import AlgorithmSpec
from .insdiag import ALPHA, InsertionDiagram, alpha_arrow, bump_arrow, diagram
from .growth import (
    ColoredTableau, GeneralizedPermutation, extract_P, extract_Q, run_growth,
)
from .lattice import Geometry, Shape, shapes_up_to, transpose
from .oracle import sweep


class DualityError(ValueError):
    pass


def invert_gp(gp: GeneralizedPermutation) -> GeneralizedPermutation:
    """Transpose the alpha matrix; colors ride along with the entries."""
    return gp.inverse()


def identity(c: int) -> int:
    return c


def swap_uc(c: int) -> int:
    return {1: 2, 2: 1}[c]


def transpose_dual(alg: AlgorithmSpec, f: Callable[[int], int] = identity,
                   g: Callable[[int], int] = identity,
                   name: Optional[str] = None) -> AlgorithmSpec:
    """The algorithm obtained by conjugating every shape and arrow, recoloring
    alpha values by f and edge colors by g (skipped on weight-1 boxes)."""
    if alg.geometry is not Geometry.QUADRANT:
        raise DualityError("transpose duality is only defined on the quadrant")
    inst = alg.instantiation
    f_inv = {f(c): c for c in range(1, inst.r + 1)}

    def map_pair(pair, box):
        g1 = g(pair.g1) if inst.w1(box) > 1 else pair.g1
        g2 = g(pair.g2) if inst.w2(box) > 1 else pair.g2
        return g1, g2

    def gen(shape: Shape) -> InsertionDiagram:
        base = alg.diagram(transpose(shape))
        arrows = []
        for a in base.arrows:
            target = a.target.transpose()
            og1, og2 = map_pair(a.out, target)
            if a.kind == ALPHA:
                arrows.append(alpha_arrow(f_inv[a.alpha_color], target, og1, og2))
            else:
                p, pair = a.source
                ig1, ig2 = map_pair(pair, p.transpose())
                arrows.append(bump_arrow(p.transpose(), ig1, ig2, target, og1, og2))
        return diagram(shape, arrows)

    return AlgorithmSpec(
        name or f"transpose-dual({alg.name})", inst, gen,
        f"transpose dual of {alg.name}",
        g1_labels=alg.g1_labels, g2_labels=alg.g2_labels,
        p_suffixes=dict(alg.p_suffixes), q_suffixes=dict(alg.q_suffixes))


def diagrams_equal(a: AlgorithmSpec, b: AlgorithmSpec, max_size: int) -> bool:
    """Arrow-set equality of the generated diagrams on all shapes <= max_size."""
    return all(a.diagram(s).arrows == b.diagram(s).arrows
               for s in shapes_up_to(a.geometry, max_size))


@dataclass(frozen=True)
class DualityReport:
    kind: str
    a: str
    b: str
    n: int
    checked: int
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def __str__(self):
        head = (f"{'PASS' if self.ok else 'FAIL'} {self.kind} duality a={self.a} "
                f"b={self.b} n<={self.n} checked={self.checked} "
                f"counterexamples={len(self.counterexamples)}")
        return "\n".join([head] + [f"  {c}" for c in self.counterexamples[:10]])


def _recolor(gp: GeneralizedPermutation, f) -> GeneralizedPermutation:
    return GeneralizedPermutation(
        gp.n, gp.m, frozenset((i, j, f(c)) for i, j, c in gp.entries))


def _transpose_with(t: ColoredTableau, g, weight) -> ColoredTableau:
    out = t.transpose()
    return out.map_colors(lambda p, c: g(c) if weight(p) > 1 else c)


def check_transpose_duality(algA: AlgorithmSpec, algB: AlgorithmSpec,
                            f: Callable[[int], int] = identity,
                            g: Callable[[int], int] = identity,
                            n: int = 4, workers: int = 1) -> DualityReport:
    """For every full gp of each size <= n: B run on the f-recolored gp must
    produce the transposes of A's tableaux, with edge colors mapped by g."""
    if algA.instantiation.r != algB.instantiation.r:
        raise DualityError("transpose duality requires matching differential degrees")
    instB = algB.instantiation

    def visit(leaf):
        ga = leaf.growth()
        gp = ga.alphas
        gb = run_growth(algB, _recolor(gp, f))
        want_p = _transpose_with(extract_P(ga), g, instB.w1)
        want_q = _transpose_with(extract_Q(ga), g, instB.w2)
        if extract_P(gb) != want_p or extract_Q(gb) != want_q:
            return f"gp={sorted(gp.entries)}"
        return None

    return _sweep("transpose", algA, algB, n, visit, workers)


# Inversion-duality color maps: how P/Q of the inverse relate to Q/P of the
# original.  compare "exact" matches colors numerically across the swapped
# channels; "near" compares colorless tableaux and relocates circles through
# the permutation (shifted column insertion and its dual).

@dataclass(frozen=True)
class InversionColorMap:
    alpha_map: Callable[[int], int] = identity
    compare: str = "exact"          # "exact" or "near"
    circled_tableau: str = "P"      # for "near": which tableau carries circles


def _swap_components(c: int) -> int:
    return {1: 1, 2: 3, 3: 2, 4: 4}[c]


INVERSION_PAIRS: dict[tuple[str, str], InversionColorMap] = {
    ("rs-row", "rs-row"): InversionColorMap(),
    ("rs-col", "rs-col"): InversionColorMap(),
    ("mclarnan-fairy", "mclarnan-fairy"): InversionColorMap(),
    ("left-right", "mixed"): InversionColorMap(),
    ("mixed", "left-right"): InversionColorMap(),
    ("worley-sagan", "shifted-mixed"): InversionColorMap(),
    ("shifted-mixed", "worley-sagan"): InversionColorMap(),
    ("double-circle", "double-circle"): InversionColorMap(alpha_map=_swap_components),
    ("shifted-column", "shifted-column"): InversionColorMap(compare="near", circled_tableau="P"),
    ("dual-shifted-column", "dual-shifted-column"): InversionColorMap(compare="near", circled_tableau="Q"),
}


def check_inversion_duality(algA: AlgorithmSpec, algB: AlgorithmSpec, n: int,
                            color_map: Optional[InversionColorMap] = None,
                            workers: int = 1) -> DualityReport:
    """For every full gp of each size <= n: B run on the (recolored) inverse
    must produce A's Q and P tableaux, up to the pair's declared color map."""
    if color_map is None:
        color_map = INVERSION_PAIRS.get((algA.name, algB.name))
        if color_map is None:
            raise DualityError(
                f"no declared inversion color map for ({algA.name}, {algB.name})")

    def visit(leaf):
        ga = leaf.growth()
        gp = ga.alphas
        gb = run_growth(algB, _recolor(invert_gp(gp), color_map.alpha_map))
        pa, qa = extract_P(ga), extract_Q(ga)
        pb, qb = extract_P(gb), extract_Q(gb)
        if color_map.compare == "exact":
            if pb != qa or qb != pa:
                return f"gp={sorted(gp.entries)}"
            return None
        if (pb.strip_colors() != qa.strip_colors()
                or qb.strip_colors() != pa.strip_colors()):
            return f"gp={sorted(gp.entries)} (underlying tableaux differ)"
        time_of = {i: j for i, j, _ in gp.entries}
        value_at = {j: i for i, j, _ in gp.entries}
        if color_map.circled_tableau == "P":
            want = {time_of[v] for v in pa.circled_values()}
            got = pb.circled_values()
        else:
            want = {value_at[j] for j in qa.circled_values()}
            got = qb.circled_values()
        if got != want:
            return f"gp={sorted(gp.entries)} (circles landed on {sorted(got)}, expected {sorted(want)})"
        return None

    return _sweep("inversion", algA, algB, n, visit, workers)


def check_inversion_nodes(alg: AlgorithmSpec, n: int) -> DualityReport:
    """Node-level inversion duality for trivially-colored algorithms:
    the inverse gp grows the same node values in transposed grid locations."""

    def visit(leaf):
        gp = leaf.gp()
        gb = run_growth(alg, invert_gp(gp))
        for i, (nodes, _, _) in enumerate(leaf.columns):
            for j, node in enumerate(nodes):
                if gb.node(j, i) != node:
                    return f"gp={sorted(gp.entries)} node ({i},{j})"
        return None

    return _sweep("inversion-nodes", alg, alg, n, visit, 1)


def _sweep(kind, algA, algB, n, visit, workers) -> DualityReport:
    """Sweep A over every full gp of each size <= n; each visit returns a
    counterexample or None."""
    checked, counterexamples = sweep(algA, range(1, n + 1), visit, workers)
    return DualityReport(kind, algA.name, algB.name, n, checked, tuple(counterexamples))
