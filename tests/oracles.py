"""Independent brute-force oracles over the raw box-set representation.

These deliberately avoid the library's row-length arithmetic: maximal and
cominimal points are found by scanning covers of explicit point sets, so the
fast implementations can be checked against them.  ``sweep_rank`` is the
direct formula for an input's index in sweep order, the reference for
``oracle._unrank``, and ``sweep_order_gps`` lists the inputs of a size in
that order, for the per-input references.  ``leq`` and ``covers`` are containment and cover of two
shapes read from their rows; the library tells a cover with ``added_box``.
``neighbors`` and ``flanks`` pair ``lattice.Corners``' single-corner reads:
a deletion point's two neighbors, and the deletion points on either side of
an insertion point, which the tests hold to the alternation at once.
"""

from itertools import permutations, product
from typing import Optional

from growthkit.growth import GeneralizedPermutation
from growthkit.lattice import Corners, Geometry, Point, Shape


def leq(a: Shape, b: Shape) -> bool:
    """Containment of order ideals: a <= b."""
    if len(a.rows) > len(b.rows):
        return False
    return all(x <= y for x, y in zip(a.rows, b.rows))


def covers(a: Shape, b: Shape) -> bool:
    """True when a = b plus exactly one box."""
    return leq(b, a) and a.size == b.size + 1


def neighbors(shape: Corners, p: Point) -> Optional[tuple[Point, Optional[Point]]]:
    """Deletion point p's northeast and southwest neighbors, None when p is
    not a deletion point."""
    return (shape.northeast(p), shape.southwest(p)) if shape.deletes(p) else None


def flanks(shape: Corners, q: Point) -> list[Point]:
    """The deletion points whose southwest and whose northeast neighbor q
    is: those on either side of q in the alternation, northeast first."""
    return shape.sw_sources(q) + shape.ne_sources(q)


def covered_by(geometry: Geometry, p: Point) -> list[Point]:
    """Points covered by p in the ambient order."""
    north = [Point(p.row - 1, p.col)] if p.row > 1 else []
    west = [Point(p.row, p.col - 1)] if p.col > 1 else []
    return [q for q in north + west if geometry.contains(q)]


def covering(geometry: Geometry, p: Point) -> list[Point]:
    """Points covering p in the ambient order."""
    return [q for q in (Point(p.row + 1, p.col), Point(p.row, p.col + 1))
            if geometry.contains(q)]


def is_order_ideal(boxes: set[Point], geometry: Geometry) -> bool:
    return all(q in boxes for p in boxes for q in covered_by(geometry, p))


def brute_maximal(boxes: set[Point], geometry: Geometry) -> set[Point]:
    return {p for p in boxes
            if not any(q in boxes for q in covering(geometry, p))}


def brute_cominimal(boxes: set[Point], geometry: Geometry) -> set[Point]:
    max_row = max((p.row for p in boxes), default=0) + 1
    max_col = max((p.col for p in boxes), default=0) + 1
    out = set()
    for row in range(1, max_row + 1):
        for col in range(1, max_col + 1):
            p = Point(row, col)
            if not geometry.contains(p) or p in boxes:
                continue
            if all(q in boxes for q in covered_by(geometry, p)):
                out.add(p)
    return out


def brute_alternation(boxes: set[Point], geometry: Geometry) -> list[tuple[str, Point]]:
    """Insertion ("+") and deletion ("-") points, northeast to southwest:
    sorted by row, then by column from the east."""
    points = ([("+", p) for p in brute_cominimal(boxes, geometry)]
              + [("-", p) for p in brute_maximal(boxes, geometry)])
    return sorted(points, key=lambda kp: (kp[1].row, -kp[1].col))


def sweep_rank(word, r: int) -> int:
    """The index of ``word`` in sweep order: value i's digit is its color - 1
    plus r times the number of times before its own that no earlier value
    took."""
    rank = 0
    for i, (t, c) in enumerate(word):
        earlier = sum(1 for u, _ in word[:i] if u < t)
        rank = (rank * (len(word) - i) + t - 1 - earlier) * r + c - 1
    return rank


def sweep_order_gps(n: int, r: int):
    """Every full gp of size n, in the sweep's order: by value 1's (time,
    color), then value 2's, and so on."""
    words = sorted(tuple(zip(times, colors))
                   for times in permutations(range(1, n + 1))
                   for colors in product(range(1, r + 1), repeat=n))
    for word in words:
        yield GeneralizedPermutation(
            n, n, frozenset((i, t, c) for i, (t, c) in enumerate(word, start=1)))
