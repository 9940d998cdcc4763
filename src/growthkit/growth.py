"""The growth process: the grid of a growth diagram, the column walk that
fills it, and the event engine that runs and inverts whole inputs.

Cell corners follow the convention

    y --- z        t southwest, x southeast, y northwest, z northeast;
    |     |        the west and east edges descend (g2 colors), the south
    t --- x        and north edges ascend (g1 colors).

All state an insertion needs flows east along a row of cells (descending
colors) and north along a column (ascending colors).  Only insertion cells
(alpha nonzero) and bump cells (x = y, one box above t) follow an arrow of
the insertion diagram; every other cell passes its box and colors on, so a
row of cells is one insertion.  Column i, the growth of the values <= i,
therefore differs from column i - 1 only from the time value i enters:
``grow_column`` follows value i up the column, along its alpha arrow and
then its bump arrows, and joins it with each other box the west column
gains.  A column carries the box each of its steps adds, and value i's box
at each height, so the walk tells a bump (the west column's box is value
i's) from a join by comparing two boxes, and the sweeps read every record,
Q's steps off the east column and P's off each column's top, without going
back to shapes.  The six-case rule of one cell, which the walk takes a
column at a time, is kept as the tests' reference
(``tests/growth_reference.py``).

The walk is passed its arrows and joins (``Moves``), and works on whatever
they take and give.  A growth's grid passes Shapes and Points
(``shape_moves``: the algorithm's ``follow`` and ``lattice.join``, worked
out afresh at every cell that follows an arrow or joins), since a grid may
meet more shapes than are worth numbering.  A sweep passes the numbers of
its per-sweep table (``oracle``), which works out each move and join once,
so its columns hold ints.

``run_growth`` and ``invert_growth`` visit the insertion and bump cells
only, time by time, with P held once, as its rows of values, and ask the
algorithm for the arrow of each cell's key (``arrow``: an alpha color, or a
deletion point and color pair) or for the key of the arrow into a box
(``unbump``).  Every rule reads the corners it needs straight from P's rows
(``lattice.Below``: a few ``bisect``s per arrow, whatever the size of P),
so no event builds a ``Shape``; a table rule also inverts by lookup.  The
diagram ``run_growth`` returns carries P and Q, and builds its grid by the
``border_column`` + ``grow_column`` fold when first read, with the walk the
sweeps use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .insdiag import color_pair
from .lattice import (
    Below, Geometry, LatticeError, Point, Shape, added_box, empty_shape, join,
)


class GrowthError(ValueError):
    pass


@dataclass(frozen=True)
class GeneralizedPermutation:
    """Nonzero alpha values on an n-wide, m-tall grid, no two sharing a row
    or column.  Entry (i, j, c): value i inserted at time j with color c."""

    n: int
    m: int
    entries: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        cols = [i for i, _, _ in self.entries]
        rows = [j for _, j, _ in self.entries]
        if len(set(cols)) != len(cols) or len(set(rows)) != len(rows):
            raise GrowthError("generalized permutation repeats a row or column")
        for i, j, c in self.entries:
            if not (1 <= i <= self.n and 1 <= j <= self.m):
                raise GrowthError(f"entry ({i},{j}) outside the {self.n}x{self.m} grid")
            if c < 1:
                raise GrowthError(f"alpha colors must be >= 1, got {c}")

    def inverse(self) -> "GeneralizedPermutation":
        return GeneralizedPermutation(
            self.m, self.n, frozenset((j, i, c) for i, j, c in self.entries))

    def restrict_values(self, i_max: int) -> "GeneralizedPermutation":
        """Keep entries with value <= i_max; times are preserved."""
        return GeneralizedPermutation(
            i_max, self.m, frozenset(e for e in self.entries if e[0] <= i_max))

    @classmethod
    def from_word(cls, word, n: Optional[int] = None) -> "GeneralizedPermutation":
        """Build from a per-time list of (value, color) or None for a skip."""
        entries = set()
        for j, item in enumerate(word, start=1):
            if item is None:
                continue
            i, c = item
            entries.add((i, j, c))
        if n is None:
            n = max((i for i, _, _ in entries), default=0)
        return cls(n, len(word), frozenset(entries))


@dataclass(frozen=True)
class ColoredTableau:
    """Boxes mapped to (value, color), increasing along rows and columns.

    cells are (point, value, color) triples sorted by position.  Values are
    distinct but need not cover 1..size; ``is_standard`` checks that.
    """

    shape: Shape
    cells: tuple[tuple[Point, int, int], ...]

    def __post_init__(self):
        # positions as (row, col) pairs, which compare and hash without
        # calling into Point
        cells = tuple(sorted(self.cells, key=lambda e: (e[0].row, e[0].col, e[1], e[2])))
        object.__setattr__(self, "cells", cells)
        at = [(p.row, p.col) for p, _, _ in cells]
        shape, rows = self.shape, range(1, len(self.shape.rows) + 1)
        if len(at) != shape.size or at != [
                (r, c) for r in rows for c in range(shape.row_start(r), shape.row_end(r) + 1)]:
            raise GrowthError("tableau entries must fill the shape exactly")
        vals = [v for _, v, _ in cells]
        if len(set(vals)) != len(vals):
            raise GrowthError("tableau values must be distinct")
        if any(c < 1 for _, _, c in cells):
            raise GrowthError("tableau colors must be >= 1")
        value_at = dict(zip(at, vals))
        for (r, c), (p, v, _) in zip(at, cells):
            if value_at.get((r, c + 1), v + 1) <= v:
                raise GrowthError(f"values must increase along rows at {p}")
            if value_at.get((r + 1, c), v + 1) <= v:
                raise GrowthError(f"values must increase down columns at {p}")

    @property
    def size(self) -> int:
        return self.shape.size

    def is_standard(self) -> bool:
        return sorted(v for _, v, _ in self.cells) == list(range(1, self.size + 1))

    def values(self) -> list[int]:
        return sorted(v for _, v, _ in self.cells)

    def validate_colors(self, channel_w) -> None:
        """channel_w is inst.w1 for P tableaux, inst.w2 for Q tableaux."""
        for p, v, c in self.cells:
            if c > channel_w(p):
                raise GrowthError(f"color {c} exceeds weight {channel_w(p)} at {p}")


# A grid this large takes seconds and hundreds of MB to build, and its size
# follows the largest value, not the length of the input.  rs-row on a random
# permutation (2-core Xeon, Python 3.11), fold time and peak RSS: 0.26 s and
# 25 MB at n = 300, 1.1 s and 59 MB at n = 600, 3.4 s and 156 MB at n = 999,
# the largest square under the bound.
GRID_CELLS = 10 ** 6


class GrowthDiagram:
    """Node shapes plus optional edge colors on an (n+1) x (m+1) grid.

    nodes[i][j] is the shape at grid position (i, j) (Cartesian: i east,
    j north).  hcolors[i][j] colors the ascending edge between (i-1, j) and
    (i, j) (valid for i >= 1); vcolors[i][j] colors the descending edge
    between (i, j) and (i, j-1) (valid for j >= 1).  Degenerate edges carry
    None.

    A diagram from ``run_growth`` is given its ``run``, (algorithm, P, Q),
    and no grid.  It builds the grid from the algorithm and alphas the first
    time ``nodes``, ``hcolors`` or ``vcolors`` is read, then keeps it; a
    grid of more than ``GRID_CELLS`` cells raises ``GrowthError`` instead.
    Equality compares the grids.
    """

    __slots__ = ("n", "m", "alphas", "_grid", "_run")

    def __init__(self, n: int, m: int, nodes, hcolors, vcolors,
                 alphas: GeneralizedPermutation, run=None):
        self.n, self.m, self.alphas = n, m, alphas
        self._run, self._grid = run, None if nodes is None else (nodes, hcolors, vcolors)

    def _built(self):
        """(nodes, hcolors, vcolors), grown by the fold on first use."""
        if self._grid is None:
            if (self.n + 1) * (self.m + 1) > GRID_CELLS:
                raise GrowthError(f"a {self.n + 1} x {self.m + 1} growth grid has more "
                                  f"than {GRID_CELLS} cells")
            moves = shape_moves(self._run[0])
            entry_of = {i: (j, c) for i, j, c in self.alphas.entries}
            column = border_column(moves, self.m)
            columns = [column[:3]]      # the boxes are kept for the next column only
            for i in range(1, self.n + 1):
                column = grow_column(moves, i, column, *entry_of.get(i, (0, 0)))
                columns.append(column[:3])
            self._grid = tuple(zip(*columns))
        return self._grid

    nodes = property(lambda self: self._built()[0])
    hcolors = property(lambda self: self._built()[1])
    vcolors = property(lambda self: self._built()[2])

    def __eq__(self, other):
        if other.__class__ is not GrowthDiagram:
            return NotImplemented
        return ((self.n, self.m, self.alphas, self._built())
                == (other.n, other.m, other.alphas, other._built()))

    def __hash__(self):
        return hash((self.n, self.m, self.alphas))

    @property
    def final_shape(self) -> Shape:
        return self._run[1].shape if self._run else self.nodes[self.n][self.m]

    def check(self) -> None:
        """Structural sanity: borders empty, adjacent nodes equal-or-cover,
        colors exactly on nondegenerate edges."""
        nodes, hcolors, vcolors = self._built()
        for i in range(self.n + 1):
            if nodes[i][0].size:
                raise GrowthError(f"south border node ({i},0) is not empty")
        for j in range(self.m + 1):
            if nodes[0][j].size:
                raise GrowthError(f"west border node (0,{j}) is not empty")
        # the h-edges, from (i - 1, j) to (i, j), then the v-edges, from (i, j - 1)
        for kind, edge_colors, di, dj in (("h", hcolors, 1, 0), ("v", vcolors, 0, 1)):
            for i in range(di, self.n + 1):
                lower, column, colors = nodes[i - di], nodes[i], edge_colors[i]
                for j in range(dj, self.m + 1):
                    a, b = lower[j - dj], column[j]
                    same = a == b
                    if not same and not _covers(b, a):
                        raise GrowthError(
                            f"nodes ({i - di},{j - dj}) and ({i},{j}) not equal or cover")
                    if (colors[j] is None) != same:
                        raise GrowthError(f"{kind}-edge color mismatch at ({i},{j})")


def _covers(upper: Shape, lower: Shape) -> bool:
    """Whether upper is lower plus one box, told by ``added_box``."""
    try:
        added_box(lower, upper)
    except LatticeError:
        return False
    return True


Column = tuple[tuple, tuple[Optional[int], ...], tuple[Optional[int], ...], tuple, tuple]


class Moves(NamedTuple):
    """All the column walk asks of the lattice and the algorithm, over
    shapes and points in the grid fold (``shape_moves``) or over their
    numbers in a sweep (``oracle``'s per-sweep table).

    ``r`` bounds the alpha colors, and ``bottom`` is the empty shape.
    ``follow(x, color)`` is the alpha arrow of that color on x, and
    ``bump(x, box, g1, g2)`` the arrow out of x's deletion point ``box`` with
    colors (g1, g2), each as (the shape grown, its out ColorPair, the box it
    fills).  ``join(x, y)`` is the least upper bound of two shapes."""

    r: int
    bottom: object
    follow: Callable
    bump: Callable
    join: Callable


def shape_moves(alg) -> Moves:
    """The walk over Shapes and Points: the algorithm's moves
    (``AlgorithmSpec.follow``) and ``lattice.join``, each worked out at
    every cell that asks, for a grid of any size.  Nothing is memoized, so
    a grid's shapes live only as long as the grid."""
    follow = alg.follow
    return Moves(alg.instantiation.r, empty_shape(alg.geometry), follow,
                 lambda x, box, g1, g2: follow(x, (box, color_pair(g1, g2))), join)


def border_column(moves: Moves, m: int) -> Column:
    """Column 0 of an m-tall growth: empty shapes, no colors, no boxes."""
    none = (None,) * (m + 1)
    return (moves.bottom,) * (m + 1), none, none, none, none


def grow_column(moves: Moves, i: int, west: Column, time: int, color: int) -> Column:
    """Column i of a growth from column i - 1, with value i inserted at
    ``time`` in ``color`` (time 0: value i is absent).  A column is its
    (nodes, hcolors, vcolors, boxes, hboxes) at j = 0..m, the first three
    laid out as in GrowthDiagram.  boxes[j] is the box added between
    nodes[j - 1] and nodes[j] (Q's step at time j), hboxes[j] the one added
    between the west column's nodes[j] and nodes[j] (value i's box at
    height j; P's step at j = m), each None where there is none.  Nodes and
    boxes are what ``moves`` works on: Shapes and Points in the grid fold,
    their numbers in a sweep; colors are ints either way.

    The walk follows value i up the column, keeping its box.  Below
    ``time`` the column is the west column, its nodes, descending colors and
    boxes, with no ascending color: value i is not there yet.  At ``time``
    value i follows its alpha arrow.  Above it, where the west column gains
    a box, the box lands either on value i's, which is bumped and follows its
    bump arrow, or elsewhere, and the two boxes join, passing the colors and
    the west box on.  Each arrow names the box it fills, so no box is worked
    out from shapes.  Boxes compare by value: equal points need not be one
    object."""
    west_nodes, _, west_v, west_boxes, _ = west
    m = len(west_nodes) - 1
    if not 1 <= time <= m:
        none = (None,) * (m + 1)
        return west_nodes, none, west_v, west_boxes, none
    nodes, vcolors, boxes = list(west_nodes), list(west_v), list(west_boxes)
    hcolors, hboxes = [None] * (m + 1), [None] * (m + 1)
    bump, join, j = moves.bump, moves.join, time
    try:
        t = west_nodes[j - 1]
        if west_boxes[j] is not None:
            raise GrowthError(f"alpha={color} requires t = x = y; got t={t} x={t} "
                              f"y={west_nodes[j]} (malformed generalized permutation)")
        if not 1 <= color <= moves.r:
            raise GrowthError(f"alpha color {color} out of range [1,{moves.r}]")
        x, b, a = moves.follow(t, color)
        h, vcolors[j], boxes[j] = b.g1, b.g2, a
        nodes[j], hcolors[j], hboxes[j] = x, h, a
        for j in range(time + 1, m + 1):
            w = west_boxes[j]
            if w is not None:
                if w == a:
                    x, b, a = bump(x, a, h, west_v[j])
                    h, vcolors[j], boxes[j] = b.g1, b.g2, a
                else:
                    x = join(x, west_nodes[j])
            nodes[j], hcolors[j], hboxes[j] = x, h, a
    except ValueError as e:
        raise GrowthError(f"cell ({i},{j}): {e}") from None
    return tuple(nodes), tuple(hcolors), tuple(vcolors), tuple(boxes), tuple(hboxes)


class _Filling:
    """A tableau changed in place, held once: ``rows[r - 1]`` lists row r's
    values west to east, ascending, so box (r, c) is place c - start of row r
    (start r on the octant, 1 on the quadrant); ``colors`` maps each value
    to its color.  No row is kept empty."""

    def __init__(self, geometry: Geometry, cells=()):
        self.rows, self.colors, self._shifted = [], {}, geometry is Geometry.OCTANT
        for p, v, c in cells:
            self.put(p, v, c)

    def put(self, box: Point, value: int, color: int) -> Optional[tuple[int, int]]:
        """Fill box, at its row's end or on the larger value it displaces,
        and return the (value, color) it held, if any."""
        self.colors[value] = color
        r, rows = box.row, self.rows
        if r > len(rows):
            rows.append([])
        row, k = rows[r - 1], box.col - (r if self._shifted else 1)
        if k == len(row):
            row.append(value)
            return None
        old, row[k] = row[k], value
        return old, self.colors.pop(old)

    def pop(self, box: Point) -> tuple[int, int]:
        """Empty box, the last of its row, and return its (value, color)."""
        value = self.rows[box.row - 1].pop()
        if not self.rows[-1]:       # only the last row can empty
            self.rows.pop()
        return value, self.colors.pop(value)


def run_growth(alg, gp: GeneralizedPermutation) -> GrowthDiagram:
    """The growth of gp, one insertion per time: the value follows its alpha
    arrow, then each occupant it lands on follows its bump arrow, each arrow
    asked of alg by its key (``arrow``).  A failing cell ends the run of its
    value and the larger ones, as it ends those columns of the fold, so the
    failure raised is the one the fold meets first: the westmost, then the
    earliest."""
    r = alg.instantiation.r
    if any(c > r for _, _, c in gp.entries):
        raise GrowthError(f"alpha colors must be <= r={r} for {alg.name}")
    P, Q = _Filling(alg.geometry), []     # Q as (box, time, color) triples
    below = partial(Below, alg.geometry, P.rows)
    limit, error = gp.n + 1, None      # values from limit on are dropped
    for v, j, c in sorted(gp.entries, key=itemgetter(1)):
        if v >= limit:
            continue
        u = v
        try:
            box, out = alg.arrow(below(v), c)
            while True:
                old = P.put(box, v, out.g1)
                if old is None:
                    break
                # u leaves box: the values <= u fill what they filled at j - 1
                u, color = old
                box, out = alg.arrow(below(u), (box, color_pair(color, out.g2)))
                v = u
            Q.append((box, j, out.g2))
        except ValueError as e:
            error, limit = GrowthError(f"cell ({u},{j}): {e}"), u
            del P.rows[bisect_left(P.rows, u, key=itemgetter(0)):]
            for row in P.rows:      # the values from u on end their rows
                del row[bisect_left(row, u):]
    if error is not None:
        raise error
    shape = Shape(alg.geometry, map(len, P.rows))
    cells = ((Point(r, shape.row_start(r) + k), v, P.colors[v])
             for r, row in enumerate(P.rows, start=1) for k, v in enumerate(row))
    run = alg, ColoredTableau(shape, tuple(cells)), ColoredTableau(shape, tuple(Q))
    return GrowthDiagram(gp.n, gp.m, None, None, None, gp, run=run)


def _chain_tableau(g: GrowthDiagram, chain, colors) -> ColoredTableau:
    """Box k holds k and colors[k], where it is added between chain[k - 1]
    and chain[k]."""
    return ColoredTableau(g.final_shape, tuple(
        (added_box(lo, hi), k, colors[k])
        for k, (lo, hi) in enumerate(zip(chain, chain[1:]), start=1) if lo != hi))


def extract_P(g: GrowthDiagram) -> ColoredTableau:
    """North-edge chain: the box added at column i holds value i and the
    ascending color of that edge."""
    if g._run:
        return g._run[1]
    return _chain_tableau(g, [col[g.m] for col in g.nodes], [col[g.m] for col in g.hcolors])


def extract_Q(g: GrowthDiagram) -> ColoredTableau:
    """East-edge chain: the box added at row j holds value j and the
    descending color of that edge."""
    if g._run:
        return g._run[2]
    return _chain_tableau(g, g.nodes[g.n], g.vcolors[g.n])


def invert_growth(alg, P: ColoredTableau, Q: ColoredTableau) -> GeneralizedPermutation:
    """The input whose growth has these P and Q: from the last time down,
    the value in Q's box at that time is unbumped (``alg.unbump``) until an
    alpha arrow names its color.  A failing cell gives up its value and
    the smaller ones, whose boxes then only count as a shape, as the cell
    sweep from the northeast would, so the failure raised is the one that
    sweep meets first: the eastmost, then the latest."""
    if P.shape.geometry is not alg.geometry or Q.shape.geometry is not alg.geometry:
        raise GrowthError(f"{alg.name} runs on the {alg.geometry.value}, but P is on the "
                          f"{P.shape.geometry.value} and Q on the {Q.shape.geometry.value}")
    if P.shape != Q.shape:
        raise GrowthError("P and Q must have the same shape")
    if not P.is_standard() or not Q.is_standard():
        raise GrowthError("P and Q must be standard")
    inst = alg.instantiation
    P.validate_colors(inst.w1)
    Q.validate_colors(inst.w2)
    filling = _Filling(alg.geometry, P.cells)
    below = partial(Below, alg.geometry, filling.rows)
    entries = set()
    limit, error = 0, None             # values up to limit are given up
    for box, j, d in sorted(Q.cells, key=itemgetter(1), reverse=True):
        u, color = filling.pop(box)
        while u > limit:
            try:
                got = alg.unbump(below(u), box, color_pair(color, d))
                if got.__class__ is int:
                    entries.add((u, j, got))
                    break
                box, pair = got
                # u was at box at time j - 1; box's occupant at j is next
                u, color = filling.put(box, u, pair.g1)
                d = pair.g2
            except ValueError as e:
                error, limit = GrowthError(f"cell ({u},{j}) is outside the image: {e}"), u
    if error is not None:
        raise error
    return GeneralizedPermutation(P.size, Q.size, frozenset(entries))


def restrict(g: GrowthDiagram, i_max: int) -> GrowthDiagram:
    """The left i_max columns: the growth of the subword of values <= i_max."""
    if not 0 <= i_max <= g.n:
        raise GrowthError(f"i_max must be in 0..{g.n}")
    take = lambda grid: tuple(grid[i] for i in range(i_max + 1))
    return GrowthDiagram(i_max, g.m, take(g.nodes), take(g.hcolors), take(g.vcolors),
                         g.alphas.restrict_values(i_max))
