"""Inversion and transpose duality: transforms on algorithms and exhaustive
checks of the tableau-level relationships they induce."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable, Optional

from .catalog import TRANSPOSED_SIDE, AlgorithmSpec
from .insdiag import TableRule, color_pair
from .lattice import Geometry, Point, shapes_up_to
from .oracle import _rank, nodes_record, pair_record, sweep
from .wdgg import constant_value


class DualityError(ValueError):
    pass


def identity(c: int) -> int:
    return c


def swap_uc(c: int) -> int:
    return {1: 2, 2: 1}[c]


def transpose_dual(alg: AlgorithmSpec, f: Callable[[int], int] = identity,
                   g: Callable[[int], int] = identity) -> AlgorithmSpec:
    """The algorithm obtained by conjugating every shape and arrow, recoloring
    alpha values by f and edge colors by g (skipped on a channel of weight 1):
    the transposed table of alg.  Sides map by ``TRANSPOSED_SIDE``, alpha
    keys by f's inverse and color pairs by g channel by channel, which is box
    by box because the weights of the quadrant instantiations are constant."""
    if alg.geometry is not Geometry.QUADRANT:
        raise DualityError("transpose duality is only defined on the quadrant")
    inst, rule = alg.instantiation, alg.rule
    weights = constant_value(inst.w1), constant_value(inst.w2)
    if None in weights:
        raise DualityError(f"the weights of {inst.name} are not constant")
    alpha_of, g1, g2 = [_color_map(f, inst.r, inst.r)] + [
        _color_map(g, w, w, "edge map") if w > 1 else {1: 1} for w in weights]
    key_of = {b: a for a, b in alpha_of.items()}
    key_of.update((color_pair(a, b), color_pair(g1[a], g2[b])) for a in g1 for b in g2)
    dual = [{key_of[k]: (TRANSPOSED_SIDE[side], key_of[out]) for k, (side, out) in t.items()}
            for t in (rule.table, rule.diagonal)]
    return AlgorithmSpec(f"transpose-dual({alg.name})", inst, TableRule(*dual),
                         f"transpose dual of {alg.name}", alg.letters)


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


def _inverse(word, alpha: dict[int, int]) -> list:
    """The word of the inverse input, its colors mapped by ``alpha``."""
    out = [None] * len(word)
    for i, (t, c) in enumerate(word, start=1):
        out[t - 1] = (i, alpha[c])
    return out


def _color_map(f, r_a: int, r_b: int, what: str = "alpha map") -> dict[int, int]:
    """The map f on A's colors 1..r_a, which it must send one to one into
    B's colors 1..r_b."""
    out, source = {}, {}
    for c in range(1, r_a + 1):
        try:
            d = f(c)
        except (LookupError, ValueError):
            raise DualityError(f"the {what} is not defined on color {c}") from None
        if not 1 <= d <= r_b:
            raise DualityError(f"the {what} sends color {c} to {d}, outside 1..{r_b}")
        if d in source:
            raise DualityError(f"the {what} sends colors {source[d]} and {c} both to {d}")
        out[c], source[d] = d, c
    return out


def check_transpose_duality(algA: AlgorithmSpec, algB: AlgorithmSpec,
                            f: Callable[[int], int] = identity,
                            g: Callable[[int], int] = identity,
                            n: int = 4, workers: int = 1) -> DualityReport:
    """For every full gp of each size <= n: B run on the f-recolored gp must
    produce the transposes of A's tableaux, with edge colors mapped by g."""
    if algA.instantiation.r != algB.instantiation.r:
        raise DualityError("transpose duality requires matching differential degrees")
    for alg in (algA, algB):
        if alg.geometry is not Geometry.QUADRANT:
            raise DualityError("transpose duality is only defined on the quadrant; "
                               f"{alg.name} runs on the {alg.geometry}")
    alpha = _color_map(f, algA.r, algB.r)
    instB = algB.instantiation
    for w in map(constant_value, (instB.w1, instB.w2)):
        if w is not None and w > 1:
            _color_map(g, w, w, "edge map")

    def visit(image, leaf):
        key = pair_record(leaf)
        want = bytearray()
        for k in range(0, len(key), 3):
            row, col, color = key[k:k + 3]
            w = instB.w1 if k < len(key) // 2 else instB.w2
            want += bytes((col, row, g(color) if w(Point(col, row)) > 1 else color))
        if image[leaf.n][_rank([(t, alpha[c]) for t, c in leaf.word], algB.r)] != want:
            return f"gp={sorted(leaf.gp().entries)}"
        return None

    return _check("transpose", algA, algB, n, pair_record, visit, workers)


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
    alpha = _color_map(color_map.alpha_map, algA.r, algB.r)
    apart = algA.geometry is not algB.geometry  # then no two tableaux are equal

    def visit(image, leaf):
        key, word = pair_record(leaf), leaf.word
        inverse = _inverse(word, alpha)
        got = image[leaf.n][_rank(inverse, algB.r)]
        half = len(key) // 2
        want = key[half:] + key[:half]
        if color_map.compare == "exact":
            return None if got == want and not apart else f"gp={sorted(leaf.gp().entries)}"
        if apart or got[0::3] != want[0::3] or got[1::3] != want[1::3]:
            return f"gp={sorted(leaf.gp().entries)} (underlying tableaux differ)"
        # A circled value of A's P lands on its time; a circled time of
        # A's Q lands on the value inserted then.
        start, place = (0, word) if color_map.circled_tableau == "P" else (half, inverse)
        circled = lambda pq: [v for v in range(len(word)) if pq[start + 3 * v + 2] == 2]
        want_circles = sorted(place[v][0] for v in circled(key))
        got_circles = [v + 1 for v in circled(got)]
        if got_circles != want_circles:
            return (f"gp={sorted(leaf.gp().entries)} (circles landed on {got_circles}, "
                    f"expected {want_circles})")
        return None

    return _check("inversion", algA, algB, n, pair_record, visit, workers)


def check_inversion_nodes(alg: AlgorithmSpec, n: int) -> DualityReport:
    """Node-level inversion duality for trivially-colored algorithms:
    the inverse gp grows the same node values in transposed grid locations."""
    same = {c: c for c in range(1, alg.r + 1)}

    def visit(image, leaf):
        # Column i of A's growth, south to north, must be row i of B's, west
        # to east.  Both start empty, so the first step to differ (i outer,
        # j inner) is at the first node to differ.
        want = nodes_record(leaf)
        got = image[leaf.n][_rank(_inverse(leaf.word, same), alg.r)]
        if want == got:
            return None
        k = next(k for k, (a, b) in enumerate(zip(want, got)) if a != b) // 3
        return f"gp={sorted(leaf.gp().entries)} node ({k // leaf.n + 1},{k % leaf.n + 1})"

    return _check("inversion-nodes", alg, alg, n, partial(nodes_record, by_rows=True),
                  visit, 1)


def _check(kind, algA, algB, n, key, visit, workers) -> DualityReport:
    """Sweep B over the sizes 1..n for its image, then sweep A over them.

    ``image[size]`` lists B's record ``key(leaf)`` (bytes, 3 per step) of
    each input of that size in sweep order.  ``visit(image, leaf)`` maps A's
    input to B's, finds B's record at that input's sweep rank, compares it
    with A's own record transformed as the duality says, and returns a
    counterexample or None.  One sweep per side, not one per size: each
    sweep with workers forks its children anew."""
    sizes = range(1, n + 1)
    _, keys = sweep(algB, sizes, key, workers)
    image, start = {}, 0
    for size in sizes:
        count = factorial(size) * algB.r ** size
        image[size], start = keys[start:start + count], start + count
    checked, counterexamples = sweep(algA, sizes, partial(visit, image), workers)
    return DualityReport(kind, algA.name, algB.name, n, checked, tuple(counterexamples))
