"""Ambient posets (quadrant/octant), shapes as finite order ideals, and cover structure.

Points use English orientation: ``row`` counts from the top, ``col`` from the
left, both 1-based.  A quadrant shape is a partition (weakly decreasing row
lengths); an octant shape is a strict partition whose row ``k`` occupies
columns ``k .. k + length - 1``.

Canonical shapes.  ``empty_shape``, ``add_box``, ``remove_box``, ``join``,
``meet``, ``transpose``, ``parse_shape`` and ``shapes_of_size`` return the
canonical instance of their result, as ``canonical`` does for given rows:
one shared ``Shape`` per (geometry, rows).  The module's table finds it but
holds it weakly, so a canonical shape lives only as long as something else
holds it (a growth diagram, a tableau, an algorithm's diagram cache) and is
built again when next needed.  A shape is validated once, when it is built,
and carries its hash and size.

Every shape caches its cover structure: its insertion and deletion points,
computed together in one pass the first time ``add_box``, ``remove_box``,
``insertion_points``, ``deletion_points``, ``alternation`` or one of the
single-corner reads a local rule makes (``first_insertion_point``,
``last_insertion_point``, ``neighbors``, ``flanks``) asks for them, and kept
on the shape for its lifetime.  It holds points only, never other
shapes, so no shape keeps another alive, and shapes share those points
through a bounded cache of recently used ones.  ``added_box`` needs one
point and takes it from the rows instead, so that it computes no cover for
the many shapes it meets that need no other corner.

Canonical instances change no result.  ``Shape(geometry, rows)`` still
builds a fresh validated shape, and equality and hashing stay by value:
such a shape equals the canonical one and hashes the same.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import compress, count
from operator import ge, gt, ne
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
# few distinct values, so cover structures and added_box share one instance
# per point.
_point = lru_cache(maxsize=4096)(Point)


class Geometry(Enum):
    QUADRANT = "quadrant"
    OCTANT = "octant"

    def contains(self, p: Point) -> bool:
        if self is Geometry.QUADRANT:
            return True
        return p.row <= p.col

    def lower_covers(self, p: Point) -> list[Point]:
        """Points covered by p in the ambient order."""
        out = []
        if p.row > 1:
            q = Point(p.row - 1, p.col)
            if self.contains(q):
                out.append(q)
        if p.col > 1:
            q = Point(p.row, p.col - 1)
            if self.contains(q):
                out.append(q)
        return out

    def upper_covers(self, p: Point) -> list[Point]:
        """Points covering p in the ambient order."""
        return [q for q in (Point(p.row + 1, p.col), Point(p.row, p.col + 1))
                if self.contains(q)]

    def __str__(self):
        return self.value


class Shape:
    """A finite order ideal of the geometry, stored by row lengths.

    Immutable.  Equality and hashing are by value, (geometry, rows), so a
    shape built here equals the canonical instance of the same rows (see the
    module docstring) and hashes like it.
    """

    __slots__ = ("geometry", "rows", "size", "_hash", "_cover", "__weakref__")

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
        init(self, "_cover", None)

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

    def contains(self, p: Point) -> bool:
        if p.row > len(self.rows):
            return False
        return self.row_start(p.row) <= p.col <= self.row_end(p.row)

    def boxes(self) -> list[Point]:
        """Derived box-set view, row by row."""
        return [Point(r, c)
                for r in range(1, len(self.rows) + 1)
                for c in range(self.row_start(r), self.row_end(r) + 1)]

    def leq(self, other: "Shape") -> bool:
        """Containment of order ideals."""
        if len(self.rows) > len(other.rows):
            return False
        return all(a <= b for a, b in zip(self.rows, other.rows))

    def covers(self, other: "Shape") -> bool:
        """True when self = other plus exactly one box."""
        return other.leq(self) and self.size == other.size + 1

    def __str__(self):
        return format_shape(self)


# The canonical instances, one per (geometry, rows).  Weak values: an entry
# lives only as long as something outside the table holds its shape.
_CANONICAL: "weakref.WeakValueDictionary[tuple[Geometry, tuple[int, ...]], Shape]" = \
    weakref.WeakValueDictionary()


def canonical(geometry: Geometry, rows: tuple[int, ...]) -> Shape:
    """The canonical shape with these rows, built and validated on a miss."""
    key = (geometry, rows)
    s = _CANONICAL.get(key)
    if s is None:
        s = _CANONICAL[key] = Shape(geometry, rows)
    return s


_ByRow = tuple[Optional[Point], ...]


def _cover(s: Shape) -> tuple[_ByRow, _ByRow]:
    """The cover structure of s: its insertion points and its deletion
    points, each indexed by 0-based row, None where a row has none.  It is
    computed in one pass on first use and holds points only, so it keeps no
    other shape alive.

    Row r gets an insertion point when it is the first row or ends left of
    row r - 1, which is also when row r - 1 has a deletion point.  The last
    row always has a deletion point, and the row below the shape has an
    insertion point unless the octant excludes it.  Rows run northeast to
    southwest, so filtering out the Nones leaves each kind in order.
    """
    c = s._cover
    if c is not None:
        return c
    rows, k = s.rows, len(s.rows)
    shifted = s.geometry is Geometry.OCTANT
    ins_by_row = [None] * (k + 1)
    del_by_row = [None] * k
    end = 0
    for r in range(1, k + 1):
        prev, end = end, (r if shifted else 1) + rows[r - 1] - 1
        if r == 1 or prev > end:
            ins_by_row[r - 1] = _point(r, end + 1)
            if r > 1:
                del_by_row[r - 2] = _point(r - 1, prev)
    if k:
        del_by_row[k - 1] = _point(k, end)
    if not shifted or k == 0 or rows[-1] >= 2:
        ins_by_row[k] = _point(k + 1, k + 1 if shifted else 1)
    c = tuple(ins_by_row), tuple(del_by_row)
    object.__setattr__(s, "_cover", c)
    return c


def empty_shape(geometry: Geometry) -> Shape:
    return canonical(geometry, ())


def shape_size(s: Shape) -> int:
    """Number of boxes; the grading of the lattice of shapes."""
    return s.size


def deletion_points(s: Shape) -> list[Point]:
    """Maximal boxes of s, ordered northeast to southwest."""
    return [p for p in _cover(s)[1] if p is not None]


def insertion_points(s: Shape) -> list[Point]:
    """Minimal points of the complement of s, ordered northeast to southwest."""
    return [p for p in _cover(s)[0] if p is not None]


def alternation(s: Shape) -> list[tuple[str, Point]]:
    """Insertion ("+") and deletion ("-") points merged northeast to southwest.

    The two kinds alternate, starting with an insertion point; an octant
    shape whose last row has one box ends with a deletion point.
    """
    ins, dels = insertion_points(s), deletion_points(s)
    out = []
    for k, p in enumerate(ins):
        if k:
            out.append(("-", dels[k - 1]))
        out.append(("+", p))
    if len(dels) == len(ins):
        out.append(("-", dels[-1]))
    return out


def _at_row(by_row: _ByRow, p: Point) -> Optional[Point]:
    """The cached point in p's row if it is p, else None."""
    q = by_row[p.row - 1] if p.row <= len(by_row) else None
    return q if q is not None and q.col == p.col else None


def first_insertion_point(s: Shape) -> Point:
    """The northeastmost insertion point, at the end of the first row."""
    return _cover(s)[0][0]


def last_insertion_point(s: Shape) -> Point:
    """The southwestmost insertion point."""
    return next(q for q in reversed(_cover(s)[0]) if q is not None)


def neighbors(s: Shape, p: Point) -> Optional[tuple[Point, Optional[Point]]]:
    """The insertion points on either side of deletion point p in the
    alternation: its northeast neighbor, one column further east, and its
    southwest neighbor, one row further south (None past the last insertion
    point).  None when p is not a deletion point of s."""
    ins, dels = _cover(s)
    if _at_row(dels, p) is None:
        return None
    r = p.row - 1
    while ins[r] is None:
        r -= 1
    return ins[r], ins[p.row]


def flanks(s: Shape, q: Point) -> list[Point]:
    """The deletion points on either side of insertion point q in the
    alternation, northeast first: those whose southwest and whose northeast
    neighbor q is."""
    dels, r = _cover(s)[1], q.row - 1
    before = dels[r - 1] if 0 < r <= len(dels) else None
    after = next((p for p in dels[r:] if p is not None), None)
    return [p for p in (before, after) if p is not None]


def add_box(s: Shape, p: Point) -> Shape:
    if _at_row(_cover(s)[0], p) is None:
        raise LatticeError(f"{p} is not an insertion point of {s}")
    rows, r = s.rows, p.row
    if r > len(rows):
        return canonical(s.geometry, rows + (1,))
    return canonical(s.geometry, rows[:r - 1] + (rows[r - 1] + 1,) + rows[r:])


def remove_box(s: Shape, p: Point) -> Shape:
    if _at_row(_cover(s)[1], p) is None:
        raise LatticeError(f"{p} is not a deletion point of {s}")
    rows, r = s.rows, p.row
    if rows[r - 1] == 1:    # only the last row can have a removable single box
        return canonical(s.geometry, rows[:-1])
    return canonical(s.geometry, rows[:r - 1] + (rows[r - 1] - 1,) + rows[r:])


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
    return canonical(a.geometry, tuple(map(max, x, y)) + x[len(y):])


def meet(a: Shape, b: Shape) -> Shape:
    """Greatest lower bound: rowwise minimum (intersection of ideals)."""
    if a.geometry is not b.geometry:
        raise LatticeError("cannot meet shapes from different geometries")
    return canonical(a.geometry, tuple(map(min, a.rows, b.rows)))


def transpose(s: Shape) -> Shape:
    """Conjugate partition; quadrant shapes only."""
    if s.geometry is not Geometry.QUADRANT:
        raise LatticeError("transpose is only defined on quadrant shapes")
    if not s.rows:
        return canonical(s.geometry, ())
    out = [0] * s.rows[0]
    for length in s.rows:
        for c in range(length):
            out[c] += 1
    return canonical(s.geometry, tuple(out))


@cache
def shapes_of_size(geometry: Geometry, n: int) -> tuple[Shape, ...]:
    """All shapes with exactly n boxes."""
    if n == 0:
        return (empty_shape(geometry),)
    found = []
    strict = geometry is Geometry.OCTANT

    def extend(prefix, remaining, maxpart):
        if remaining == 0:
            found.append(canonical(geometry, tuple(prefix)))
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
    return ",".join(str(r) for r in s.rows)


def parse_shape(text: str, geometry: Geometry) -> Shape:
    text = text.strip()
    if text in ("", "0"):
        return empty_shape(geometry)
    try:
        rows = [int(t) for t in text.split(",")]
    except ValueError:
        raise LatticeError(f"malformed shape {text!r}") from None
    return canonical(geometry, tuple(rows))
