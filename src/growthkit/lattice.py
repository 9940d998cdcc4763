"""Ambient posets (quadrant/octant), shapes as finite order ideals, and their corners.

Points use English orientation: ``row`` counts from the top, ``col`` from the
left, both 1-based.  A quadrant shape is a partition (weakly decreasing row
lengths); an octant shape is a strict partition whose row ``k`` occupies
columns ``k .. k + length - 1``.

Shapes are plain values: the lattice operations build each result afresh,
and equality and hashing are by (geometry, rows).  A shape is validated
once, when it is built, and carries its hash and size.

Corner reads.  ``Corners`` is the one reader of a shape's alternation of
insertion and deletion points: ``first``, ``last``, a deletion point's
``northeast`` and ``southwest`` neighbors and their exact inverses, each
from a row or two next to the corner; the index reads ``index(x)`` and
``corner(i)``, for mclarnan-fairy; and ``points()``, every corner, which
``insertion_points`` and ``deletion_points`` list.  ``add_box`` checks its
point with ``index`` and ``remove_box`` with ``deletes``.  The reads work
from row ends alone, and no shape caches their answers.  Two classes give
the row ends: ``Shape`` from its rows, for the grid fold, the sweeps and the
picture book; and ``Below``, the entries of a tableau below a threshold,
from the tableau's rows of values, one ``bisect`` per row end, for the event
engine, which so builds no ``Shape`` per event.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import compress, count, repeat, takewhile
from operator import add, ge, gt, itemgetter, ne
from typing import Optional


class LatticeError(ValueError):
    pass


@dataclass(frozen=True, order=True, slots=True)
class Point:
    row: int
    col: int

    def __post_init__(self):
        if self.row < 1 or self.col < 1:
            raise LatticeError(f"point coordinates must be >= 1, got {self}")

    @property
    def diagonal(self) -> bool:
        return self.row == self.col

    def transpose(self) -> "Point":
        return Point(self.col, self.row)

    def __str__(self):
        return f"({self.row},{self.col})"


# Points are immutable, and the corners of the shapes a growth meets take
# few distinct values, so the corner reads and added_box share one instance
# per point.
_point = lru_cache(maxsize=4096)(Point)


class Geometry(Enum):
    QUADRANT = "quadrant"
    OCTANT = "octant"

    def contains(self, p: Point) -> bool:
        if self is Geometry.QUADRANT:
            return True
        return p.row <= p.col

    def __str__(self):
        return self.value


class Corners:
    """The corners a local rule reads, from the row ends alone: ``first``
    and ``last``, the first and last insertion points; ``deletes(p)``;
    ``northeast(p)`` and ``southwest(p)``, the insertion points on either
    side of deletion point p in the alternation, and their inverses
    ``ne_sources(q)`` and ``sw_sources(q)``; ``crossing()``; ``index(x)``
    and ``corner(i)``, a corner's position in the alternation and the corner
    at a position; ``points()``, every insertion and deletion point.  A
    subclass gives ``_end(r)``, the last column of 1-based row r (None past
    the last row), ``_height()``, the number of rows, and ``rows``, the row
    lengths.

    Row ends weakly decrease, and the rows that end in one column form a
    run: the run's first row has its insertion point and its last row its
    deletion point.  The row below the shape has an insertion point too,
    unless the octant excludes it.  A single-corner read looks at a row or
    two next to the corner, and gallops and bisects over the rows only to
    cross a run; the index reads and ``points()`` read every row's end."""

    __slots__ = ()

    @property
    def first(self) -> Point:
        """The northeastmost insertion point, at the end of the first row."""
        return _point(1, (self._end(1) or 0) + 1)

    @property
    def last(self) -> Point:
        """The southwestmost insertion point: the first box below the last
        row, unless that row is one box on the diagonal."""
        k = self._height()
        return self._bottom(k, k and self._end(k)) or _point(self._run_start(k, k), k + 1)

    def deletes(self, p: Point) -> bool:
        """Whether p is a deletion point: it ends its row, and the next row
        ends west of it."""
        end = self._end(p.row)
        return end == p.col and self._end(p.row + 1) != end

    def northeast(self, p: Point) -> Optional[Point]:
        """The insertion point before deletion point p in the alternation,
        one column further east; None when p is not a deletion point."""
        return _point(self._run_start(p.row, p.col), p.col + 1) if self.deletes(p) else None

    def southwest(self, p: Point) -> Optional[Point]:
        """The insertion point after deletion point p in the alternation,
        one row further south; None when p is not a deletion point, or is
        past the last insertion point."""
        r, end = p.row, self._end(p.row)
        if end != p.col or (below := self._end(r + 1)) == end:
            return None
        return self._bottom(r, end) if below is None else _point(r + 1, below + 1)

    def ne_sources(self, q: Point) -> list[Point]:
        """The deletion point whose northeast neighbor q is, if any: the
        last row's end of the run q starts."""
        r, end = q.row, self._end(q.row)
        if end is None or q.col != end + 1 or (r > 1 and self._end(r - 1) == end):
            return []
        return [_point(self._run_end(r, end), end)]

    def sw_sources(self, q: Point) -> list[Point]:
        """The deletion point whose southwest neighbor q is, if any: the end
        of the row above q."""
        r = q.row - 1
        p = r and (end := self._end(r)) and _point(r, end)
        return [p] if p and self.southwest(p) == q else []

    def crossing(self) -> Point:
        """(t, t) for the first row t that ends at or west of column t, a
        row past the shape ending in column 0.  A row's end less its number
        falls row by row, so no other point of the diagonal can be a corner."""
        t = bisect_left(range(1, self._height() + 1), True, key=lambda r: self._end(r) <= r)
        return _point(t + 1, t + 1)

    def points(self) -> tuple[list[Point], list[Point]]:
        """The insertion points and the deletion points, each northeast to
        southwest."""
        ends, steps = self._runs()
        k = len(ends)
        ins = [_point(r + 1, ends[r] + 1) for r in [0] + steps] if k else []
        dels = [_point(r, ends[r - 1]) for r in steps + [k]] if k else []
        bottom = self._bottom(k, k and ends[-1])
        if bottom is not None:
            ins.append(bottom)
        return ins, dels

    def index(self, x: Point) -> Optional[int]:
        """x's position in the alternation: the t-th insertion point (from
        0) is at 2t and the t-th deletion point at 2t + 1.  None when x is
        neither."""
        ends, steps = self._runs()
        r, k = x.row, len(ends)
        if r > k:
            return 2 * (len(steps) + (k > 0)) if x == self._bottom(k, k and ends[-1]) else None
        t = bisect_left(steps, r)       # row r is in run t
        if x.col == ends[r - 1] + 1 and (t == 0 if r == 1 else t and steps[t - 1] == r - 1):
            return 2 * t
        if x.col == ends[r - 1] and (steps[t] == r if t < len(steps) else r == k):
            return 2 * t + 1
        return None

    def corner(self, i: int) -> Optional[Point]:
        """The point at position i of the alternation, None past its ends."""
        ends, steps = self._runs()
        k = len(ends)
        runs, bottom = len(steps) + (k > 0), self._bottom(k, k and ends[-1])
        if not 0 <= i < 2 * runs + (bottom is not None):
            return None
        t, odd = divmod(i, 2)
        if odd:
            r = steps[t] if t < len(steps) else k
            return _point(r, ends[r - 1])
        if t == runs:
            return bottom
        r = steps[t - 1] + 1 if t else 1
        return _point(r, ends[r - 1] + 1)

    def _runs(self) -> tuple[tuple[int, ...], list[int]]:
        """Each row's last column, and the last row of every run but the
        last one: the rows that end right of the next row."""
        rows = self.rows
        k = len(rows)
        ends = tuple(map(add, rows, range(k))) if self.geometry is Geometry.OCTANT else rows
        return ends, list(compress(range(1, k), map(gt, ends, ends[1:])))

    def _bottom(self, k: int, end: int) -> Optional[Point]:
        """The insertion point below the last row k, which ends in column
        end; None where the octant excludes it, below a last row of one box."""
        if self.geometry is not Geometry.OCTANT:
            return _point(k + 1, 1)
        return _point(k + 1, k + 1) if k == 0 or end > k else None

    def _run_start(self, r: int, end: int) -> int:
        """The first row of the run of row r, which ends in column end: a
        gallop up the rows, then a bisection."""
        top, step = r, 1
        while top > step and self._end(top - step) == end:
            top, step = top - step, 2 * step
        lo = max(top - step + 1, 1)
        return bisect_left(range(lo, top), -end, key=lambda i: -self._end(i)) + lo

    def _run_end(self, r: int, end: int) -> int:
        """The last row of the run of row r, which ends in column end: a
        gallop down the rows, then a bisection."""
        bottom, step = r, 1
        while self._end(bottom + step) == end:
            bottom, step = bottom + step, 2 * step
        return bisect_right(range(bottom + 1, bottom + step), -end,
                            key=lambda i: -(self._end(i) or 0)) + bottom


class Shape(Corners):
    """A finite order ideal of the geometry, stored by row lengths.

    Immutable.  Equality and hashing are by value, (geometry, rows).
    """

    __slots__ = ("geometry", "rows", "size", "_hash")

    def __init__(self, geometry: Geometry, rows):
        rows = tuple(rows)
        if rows and min(rows) < 1:
            raise LatticeError(f"row lengths must be positive: {rows}")
        if geometry is Geometry.QUADRANT:
            if not all(map(ge, rows, rows[1:])):
                raise LatticeError(f"quadrant rows must weakly decrease: {rows}")
        else:
            if not all(map(gt, rows, rows[1:])):
                raise LatticeError(f"octant rows must strictly decrease: {rows}")
        init = object.__setattr__
        init(self, "geometry", geometry)
        init(self, "rows", rows)
        init(self, "size", sum(rows))
        init(self, "_hash", hash((geometry, rows)))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Shape:
            return NotImplemented
        return (self._hash == other._hash and self.rows == other.rows
                and self.geometry is other.geometry)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Shape, (self.geometry, self.rows)

    def __repr__(self):
        return f"Shape(geometry={self.geometry!r}, rows={self.rows!r})"

    def row_start(self, r: int) -> int:
        """First occupied column of 1-based row r."""
        return r if self.geometry is Geometry.OCTANT else 1

    def row_end(self, r: int) -> int:
        """Last occupied column of 1-based row r."""
        return self.row_start(r) + self.rows[r - 1] - 1

    def _end(self, r: int) -> Optional[int]:
        return self.row_end(r) if r <= len(self.rows) else None

    def _height(self) -> int:
        return len(self.rows)

    def boxes(self) -> list[Point]:
        """Derived box-set view, row by row."""
        return [Point(r, c)
                for r in range(1, len(self.rows) + 1)
                for c in range(self.row_start(r), self.row_end(r) + 1)]

    def __str__(self):
        return format_shape(self)


class Below(Corners):
    """The shape whose row r holds the entries below u of ``values[r - 1]``,
    for rows of ascending values, none empty, whose first entries ascend too,
    as a tableau's rows do.  It reads its corners straight from the rows: a
    row's end is one ``bisect`` of its values, and its height one ``bisect``
    of the rows' first entries.  It holds the rows themselves, so it is read
    before they change.  The index reads, which need every row's end, find
    them once, on first use.  ``rows`` and ``size`` read every row too, for
    rules that read the whole shape."""

    __slots__ = ("geometry", "_values", "_u", "_shifted", "_ends")

    def __init__(self, geometry: Geometry, values: list[list[int]], u: int):
        self.geometry, self._values, self._u = geometry, values, u
        self._shifted, self._ends = geometry is Geometry.OCTANT, None

    def _end(self, r: int) -> Optional[int]:
        values = self._values
        length = bisect_left(values[r - 1], self._u) if r <= len(values) else 0
        if not length:
            return None
        return length + r - 1 if self._shifted else length

    def _height(self) -> int:
        return bisect_left(self._values, self._u, key=_FIRST_ENTRY)

    def _runs(self) -> tuple[tuple[int, ...], list[int]]:
        if self._ends is None:
            self._ends = Corners._runs(self)
        return self._ends

    @property
    def rows(self) -> tuple[int, ...]:
        return tuple(takewhile(bool, map(bisect_left, self._values, repeat(self._u))))

    @property
    def size(self) -> int:
        return sum(self.rows)

    def __str__(self):
        return format_shape(self)


_FIRST_ENTRY = itemgetter(0)


def empty_shape(geometry: Geometry) -> Shape:
    return Shape(geometry, ())


def deletion_points(s: Shape) -> list[Point]:
    """Maximal boxes of s, ordered northeast to southwest."""
    return s.points()[1]


def insertion_points(s: Shape) -> list[Point]:
    """Minimal points of the complement of s, ordered northeast to southwest."""
    return s.points()[0]


def add_box(s: Shape, p: Point) -> Shape:
    i = s.index(p)      # reads every row's end; a sweep calls this once per move
    if i is None or i % 2:
        raise LatticeError(f"{p} is not an insertion point of {s}")
    rows, r = s.rows, p.row
    if r > len(rows):
        return Shape(s.geometry, rows + (1,))
    return Shape(s.geometry, rows[:r - 1] + (rows[r - 1] + 1,) + rows[r:])


def remove_box(s: Shape, p: Point) -> Shape:
    if not s.deletes(p):
        raise LatticeError(f"{p} is not a deletion point of {s}")
    rows, r = s.rows, p.row
    if rows[r - 1] == 1:    # only the last row can have a removable single box
        return Shape(s.geometry, rows[:-1])
    return Shape(s.geometry, rows[:r - 1] + (rows[r - 1] - 1,) + rows[r:])


def added_box(lower: Shape, upper: Shape) -> Point:
    """The single box of a cover upper = lower + box."""
    if upper.geometry is lower.geometry and upper.size == lower.size + 1:
        a, b = lower.rows, upper.rows
        # the first row where they differ; past the end of a, the new last row
        r = next(compress(count(1), map(ne, a, b)), len(a) + 1)
        if r > len(a) or (b[r - 1] == a[r - 1] + 1 and a[r:] == b[r:]):
            return _point(r, upper.row_start(r) + b[r - 1] - 1)
    raise LatticeError(f"{upper} does not cover {lower}")


def join(a: Shape, b: Shape) -> Shape:
    """Least upper bound: rowwise maximum (union of ideals)."""
    if a.geometry is not b.geometry:
        raise LatticeError("cannot join shapes from different geometries")
    x, y = (a.rows, b.rows) if len(a.rows) >= len(b.rows) else (b.rows, a.rows)
    return Shape(a.geometry, tuple(map(max, x, y)) + x[len(y):])


def meet(a: Shape, b: Shape) -> Shape:
    """Greatest lower bound: rowwise minimum (intersection of ideals)."""
    if a.geometry is not b.geometry:
        raise LatticeError("cannot meet shapes from different geometries")
    return Shape(a.geometry, tuple(map(min, a.rows, b.rows)))


def transpose(s: Shape) -> Shape:
    """Conjugate partition; quadrant shapes only."""
    if s.geometry is not Geometry.QUADRANT:
        raise LatticeError("transpose is only defined on quadrant shapes")
    if not s.rows:
        return Shape(s.geometry, ())
    out = [0] * s.rows[0]
    for length in s.rows:
        for c in range(length):
            out[c] += 1
    return Shape(s.geometry, tuple(out))


@cache
def shapes_of_size(geometry: Geometry, n: int) -> tuple[Shape, ...]:
    """All shapes with exactly n boxes."""
    if n == 0:
        return (empty_shape(geometry),)
    found = []
    strict = geometry is Geometry.OCTANT

    def extend(prefix, remaining, maxpart):
        if remaining == 0:
            found.append(Shape(geometry, tuple(prefix)))
            return
        cap = min(remaining, maxpart)
        for part in range(cap, 0, -1):
            extend(prefix + [part], remaining - part,
                   part - 1 if strict else part)

    extend([], n, n)
    return tuple(found)


def shapes_up_to(geometry: Geometry, max_size: int):
    for n in range(max_size + 1):
        yield from shapes_of_size(geometry, n)


def format_shape(s: Shape) -> str:
    """Comma-separated part list; the empty shape is "0"."""
    if not s.rows:
        return "0"
    return ",".join(map(str, s.rows))


def parse_shape(text: str, geometry: Geometry) -> Shape:
    text = text.strip()
    if text in ("", "0"):
        return empty_shape(geometry)
    try:
        rows = [int(t) for t in text.split(",")]
    except ValueError:
        raise LatticeError(f"malformed shape {text!r}") from None
    return Shape(geometry, tuple(rows))
