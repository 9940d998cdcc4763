"""Inversion and transpose duality: transforms on algorithms and exhaustive
checks of the tableau-level relationships they induce."""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import Callable, Optional

from .catalog import TRANSPOSED_SIDE, AlgorithmSpec
from .insdiag import TableRule, color_pair
from .lattice import Geometry, Point, shapes_up_to
from . import oracle
from .oracle import _gp_text, _unrank, bijection_inputs, nodes_records, pair_records
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


def _inverse_rank(alpha: dict[int, int], r: int, n: int):
    """The function from an input's word, of size up to n, and its rank to
    the sweep rank of its inverse input (value i at time t in color c
    becomes value t at time i in color alpha[c]), without building the
    inverse: the inverse's digit for value t is (earlier values at later
    times) * r + alpha[c] - 1, of weight (size - t)! * r^(size - t)."""
    weights = [factorial(d) * r ** d for d in range(n + 1)]

    def rank(word, _):      # the input's own rank is not needed
        size, times, out = len(word), [], 0
        for i, (t, c) in enumerate(word):   # times holds the i earlier times, sorted
            k = bisect(times, t)
            out += ((i - k) * r + alpha[c] - 1) * weights[size - t]
            times.insert(k, t)
        return out

    return rank


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
    bijection_inputs(algB, n)   # first: a size too large is refused before any work
    if algA.instantiation.r != algB.instantiation.r:
        raise DualityError("transpose duality requires matching differential degrees")
    for alg in (algA, algB):
        if alg.geometry is not Geometry.QUADRANT:
            raise DualityError("transpose duality is only defined on the quadrant; "
                               f"{alg.name} runs on the {alg.geometry}")
    alpha = _color_map(f, algA.r, algB.r)
    weights = [factorial(d) * algB.r ** d for d in range(n + 1)]
    instB = algB.instantiation
    for w in map(constant_value, (instB.w1, instB.w2)):
        if w is not None and w > 1:
            _color_map(g, w, w, "edge map")

    @cache
    def transposed(step, w):
        # A's step (row, col, color) -> the step B's record must hold: the
        # box transposed, the color mapped by g where B's weight w there is above 1
        row, col, color = step
        return bytes((col, row, g(color) if w(Point(col, row)) > 1 else color))

    def compare(a, b, size, word):
        half = len(a) // 2
        want = b"".join([transposed(a[k:k + 3], instB.w1 if k < half else instB.w2)
                         for k in range(0, len(a), 3)])
        return None if want == b else ""

    def mapped_rank(word, k):
        # Recoloring by f changes only the color digits: value i's by
        # f(c) - c, of weight (size - i)! * r^(size - i).
        size = len(word)
        return k + sum((alpha[c] - c) * weights[size - i]
                       for i, (_, c) in enumerate(word, start=1))

    return _check("transpose", algA, algB, n, workers, pair_records, mapped_rank, compare)


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
    bijection_inputs(algB, n)   # first: a size too large is refused before any work
    if color_map is None:
        color_map = INVERSION_PAIRS.get((algA.name, algB.name))
        if color_map is None:
            raise DualityError(
                f"no declared inversion color map for ({algA.name}, {algB.name})")
    alpha = _color_map(color_map.alpha_map, algA.r, algB.r)
    apart = algA.geometry is not algB.geometry  # then no two tableaux are equal
    exact, circled_p = color_map.compare == "exact", color_map.circled_tableau == "P"

    def compare(a, b, size, word):
        half = len(a) // 2
        want = a[half:] + a[:half]
        if exact:
            return None if b == want and not apart else ""
        if apart or b[0::3] != want[0::3] or b[1::3] != want[1::3]:
            return " (underlying tableaux differ)"
        # A circled value of A's P lands on its time; a circled time of
        # A's Q lands on the value inserted then.
        start = 0 if circled_p else half
        circled = lambda pq: [v for v in range(size) if pq[start + 3 * v + 2] == 2]
        want_circles = circled(a)
        if want_circles:
            times = [t for t, _ in word]
            want_circles = sorted(times[v] if circled_p else times.index(v + 1) + 1
                                  for v in want_circles)
        got_circles = [v + 1 for v in circled(b)]
        if got_circles != want_circles:
            return f" (circles landed on {got_circles}, expected {want_circles})"
        return None

    return _check("inversion", algA, algB, n, workers, pair_records,
                  _inverse_rank(alpha, algB.r, n), compare)


def check_inversion_nodes(alg: AlgorithmSpec, n: int) -> DualityReport:
    """Node-level inversion duality for trivially-colored algorithms:
    the inverse gp grows the same node values in transposed grid locations."""
    bijection_inputs(alg, n)    # first: a size too large is refused before any work
    same = {c: c for c in range(1, alg.r + 1)}

    def compare(a, b, size, word):
        # Column i of A's growth, south to north (A's first half), must be
        # row i of B's, west to east (B's second half).  Both start empty,
        # so the first step to differ (i outer, j inner) is at the first
        # node to differ.
        want, got = a[:len(a) // 2], b[len(b) // 2:]
        if want == got:
            return None
        k = next(k for k, (x, y) in enumerate(zip(want, got)) if x != y) // 3
        return f" node ({k // size + 1},{k % size + 1})"

    return _check("inversion-nodes", alg, alg, n, 1, nodes_records,
                  _inverse_rank(same, alg.r, n), compare)


def _check(kind, algA, algB, n, workers, read, mapped_rank, compare) -> DualityReport:
    """Check A against B on every input of the sizes 1..n, reading each
    distinct algorithm's records once.

    ``read`` is a reader for ``oracle._sweep_branches`` (``pair_records``
    or ``nodes_records``): it gives each input's record, bytes, 3 per step,
    in rank order.  B's records are read first, and A's are the same list
    when A is B, or a second read otherwise.  Then one loop compares every
    input of A in rank order, size by size, its word rebuilt once
    (``_unrank``): ``mapped_rank(word, k)`` is the rank of the input B must
    run for A's input ``word`` of rank k, and ``compare(a, b, size, word)``
    compares A's record of that input with B's record of the mapped input,
    as the duality says.  It returns None, or the text that follows the
    input in the counterexample, so the counterexamples come in A's sweep
    order."""
    sizes = range(1, n + 1)
    checked, b_records = oracle._sweep_branches(algB, sizes, read, workers)
    a_records = b_records
    if algA is not algB:
        checked, a_records = oracle._sweep_branches(algA, sizes, read, workers)
    a_records, first, counterexamples = iter(a_records), 0, []
    for size in sizes:
        for k, record in zip(range(factorial(size) * algA.r ** size), a_records):
            word = _unrank(k, size, algA.r)
            text = compare(record, b_records[first + mapped_rank(word, k)], size, word)
            if text is not None:
                counterexamples.append(_gp_text(size, word) + text)
        first += factorial(size) * algB.r ** size
    return DualityReport(kind, algA.name, algB.name, n, checked, tuple(counterexamples))
