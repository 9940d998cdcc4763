"""The growth process: local cell rule (forward and inverse), whole-diagram
computation, P/Q extraction, inversion, and restriction.

Cell corners follow the convention

    y --- z        t southwest, x southeast, y northwest, z northeast;
    |     |        the west and east edges descend (g2 colors), the south
    t --- x        and north edges ascend (g1 colors).

The forward rule computes (z, north color, east color) from
(t, x, y, south color, west color, alpha); six cases apply depending on which
corners coincide.  All state an insertion needs flows east along a row of
cells (descending colors) and north along a column (ascending colors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .insdiag import ColorPair, color_pair, psi_bump, psi_insert, psi_inverse
from .lattice import (
    Geometry, Point, Shape, add_box, added_box, empty_shape, join, meet,
    remove_box,
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

    def alpha(self, i: int, j: int) -> int:
        for vi, vj, c in self.entries:
            if vi == i and vj == j:
                return c
        return 0

    def column_of(self, j: int) -> Optional[tuple[int, int]]:
        """(value, color) inserted at time j, if any."""
        for vi, vj, c in self.entries:
            if vj == j:
                return vi, c
        return None

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
        object.__setattr__(self, "cells", tuple(sorted(self.cells)))
        pts = [p for p, _, _ in self.cells]
        if sorted(pts) != sorted(self.shape.boxes()):
            raise GrowthError("tableau entries must fill the shape exactly")
        vals = [v for _, v, _ in self.cells]
        if len(set(vals)) != len(vals):
            raise GrowthError("tableau values must be distinct")
        if any(c < 1 for _, _, c in self.cells):
            raise GrowthError("tableau colors must be >= 1")
        by_point = {p: v for p, v, _ in self.cells}
        for p, v, _ in self.cells:
            east = Point(p.row, p.col + 1)
            south = Point(p.row + 1, p.col)
            if east in by_point and by_point[east] <= v:
                raise GrowthError(f"values must increase along rows at {p}")
            if south in by_point and by_point[south] <= v:
                raise GrowthError(f"values must increase down columns at {p}")

    @property
    def size(self) -> int:
        return self.shape.size

    def is_standard(self) -> bool:
        return sorted(v for _, v, _ in self.cells) == list(range(1, self.size + 1))

    def values(self) -> list[int]:
        return sorted(v for _, v, _ in self.cells)

    def validate_colors(self, inst, channel_w) -> None:
        """channel_w is inst.w1 for P tableaux, inst.w2 for Q tableaux."""
        for p, v, c in self.cells:
            if c > channel_w(p):
                raise GrowthError(f"color {c} exceeds weight {channel_w(p)} at {p}")


@dataclass(frozen=True)
class GrowthDiagram:
    """Node shapes plus optional edge colors on an (n+1) x (m+1) grid.

    nodes[i][j] is the shape at grid position (i, j) (Cartesian: i east,
    j north).  hcolors[i][j] colors the ascending edge between (i-1, j) and
    (i, j) (valid for i >= 1); vcolors[i][j] colors the descending edge
    between (i, j) and (i, j-1) (valid for j >= 1).  Degenerate edges carry
    None.
    """

    n: int
    m: int
    nodes: tuple[tuple[Shape, ...], ...]
    hcolors: tuple[tuple[Optional[int], ...], ...]
    vcolors: tuple[tuple[Optional[int], ...], ...]
    alphas: GeneralizedPermutation

    def node(self, i: int, j: int) -> Shape:
        return self.nodes[i][j]

    def hcolor(self, i: int, j: int) -> Optional[int]:
        return self.hcolors[i][j]

    def vcolor(self, i: int, j: int) -> Optional[int]:
        return self.vcolors[i][j]

    @property
    def final_shape(self) -> Shape:
        return self.nodes[self.n][self.m]

    def check(self) -> None:
        """Structural sanity: borders empty, adjacent nodes equal-or-cover,
        colors exactly on nondegenerate edges."""
        for i in range(self.n + 1):
            if self.nodes[i][0].size:
                raise GrowthError(f"south border node ({i},0) is not empty")
        for j in range(self.m + 1):
            if self.nodes[0][j].size:
                raise GrowthError(f"west border node (0,{j}) is not empty")
        for i in range(1, self.n + 1):
            for j in range(self.m + 1):
                a, b = self.nodes[i - 1][j], self.nodes[i][j]
                if a != b and not b.covers(a):
                    raise GrowthError(f"nodes ({i-1},{j}) and ({i},{j}) not equal or cover")
                if (self.hcolors[i][j] is None) != (a == b):
                    raise GrowthError(f"h-edge color mismatch at ({i},{j})")
        for i in range(self.n + 1):
            for j in range(1, self.m + 1):
                a, b = self.nodes[i][j - 1], self.nodes[i][j]
                if a != b and not b.covers(a):
                    raise GrowthError(f"nodes ({i},{j-1}) and ({i},{j}) not equal or cover")
                if (self.vcolors[i][j] is None) != (a == b):
                    raise GrowthError(f"v-edge color mismatch at ({i},{j})")


def cell_forward(alg, t: Shape, x: Shape, y: Shape,
                 a: Optional[ColorPair], alpha: int) -> tuple[Shape, Optional[ColorPair]]:
    """One cell of the growth process.

    ``a`` is present iff the west edge is nondegenerate (y != t); its g1
    component is the south-edge ascending color (absent when x = t), its g2
    component the west-edge descending color.  Returns the northeast shape
    and, when the east edge is nondegenerate, the pair (north g1, east g2)
    with g1 absent when the north edge is degenerate.
    """
    x_moved, y_moved = x != t, y != t
    if (a is not None) != y_moved:
        raise GrowthError("west colors must be present exactly when y != t")
    if a is not None:
        if a.g2 is None:
            raise GrowthError("west descending color missing")
        if a.g1 is None and x_moved:
            raise GrowthError("south ascending color missing")
    if alpha != 0:
        if x_moved or y_moved:
            raise GrowthError(
                f"alpha={alpha} requires t = x = y; got t={t} x={x} y={y} "
                "(malformed generalized permutation)")
        if not 1 <= alpha <= alg.instantiation.r:
            raise GrowthError(f"alpha color {alpha} out of range [1,{alg.instantiation.r}]")
        return psi_insert(alg.diagram(x), alpha)
    if not y_moved:
        return (x if x_moved else t), None
    if not x_moved:
        return y, color_pair(None, a.g2)
    if x == y:
        return psi_bump(alg.diagram(x), added_box(t, x), a)
    return join(x, y), a


def cell_inverse(alg, x: Shape, y: Shape, z: Shape,
                 b: Optional[ColorPair]) -> tuple[Shape, Optional[ColorPair], int]:
    """Invert one cell: recover (t, west/south colors, alpha) from the
    northeast data.  ``b`` mirrors cell_forward's return convention."""
    z_moved_x, z_moved_y = z != x, z != y
    if (b is not None) != z_moved_x:
        raise GrowthError("east colors must be present exactly when z != x")
    if not z_moved_x:
        return y, None, 0
    if not z_moved_y:
        return x, color_pair(None, b.g2), 0
    if x != y:
        return meet(x, y), b, 0
    # x = y, z covers x: an insertion or a bump happened here
    got = psi_inverse(alg.diagram(x), added_box(x, z), b)
    if isinstance(got, int):
        return x, None, got
    p, pair = got
    return remove_box(x, p), pair, 0


Column = tuple[tuple[Shape, ...], tuple[Optional[int], ...], tuple[Optional[int], ...]]


def border_column(alg, m: int) -> Column:
    """Column 0 of an m-tall growth: empty shapes, no colors."""
    return (empty_shape(alg.geometry),) * (m + 1), (None,) * (m + 1), (None,) * (m + 1)


def grow_column(alg, i: int, west: Column, time: int, color: int) -> Column:
    """Column i of a growth from column i - 1: the cells (i, 1..m), bottom
    to top, with value i inserted at ``time`` in ``color`` (time 0: value i
    is absent).  A column is its (nodes, hcolors, vcolors) at j = 0..m, laid
    out as in GrowthDiagram."""
    west_nodes, _, west_v = west
    x = west_nodes[0]
    nodes, hcol, vcol = [x], [None], [None]
    # Ascending color of the north edge of the cell below.  North edges are
    # degenerate (no color) up to the time value i enters and never after.
    h = None
    for j in range(1, len(west_nodes)):
        t, y = west_nodes[j - 1], west_nodes[j]
        a = color_pair(h, west_v[j]) if y != t else None
        try:
            z, b = cell_forward(alg, t, x, y, a, color if j == time else 0)
        except ValueError as e:
            raise GrowthError(f"cell ({i},{j}): {e}") from None
        nodes.append(z)
        vcol.append(b.g2 if b is not None else None)
        if b is not None and b.g1 is not None:
            h = b.g1
        hcol.append(h)
        x = z
    return tuple(nodes), tuple(hcol), tuple(vcol)


def run_growth(alg, gp: GeneralizedPermutation) -> GrowthDiagram:
    """Grow the diagram column by column from the west border."""
    r = alg.instantiation.r
    if any(c > r for _, _, c in gp.entries):
        raise GrowthError(f"alpha colors must be <= r={r} for {alg.name}")
    # Value i has at most one entry: its (time, color), looked up once per
    # column.  Built per call and not kept on gp.
    entry_of = {i: (j, c) for i, j, c in gp.entries}
    columns = [border_column(alg, gp.m)]
    for i in range(1, gp.n + 1):
        time, color = entry_of.get(i, (0, 0))
        columns.append(grow_column(alg, i, columns[-1], time, color))
    nodes, hcols, vcols = zip(*columns)
    return GrowthDiagram(gp.n, gp.m, nodes, hcols, vcols, gp)


def extract_P(g: GrowthDiagram) -> ColoredTableau:
    """North-edge chain: the box added at column i holds value i and the
    ascending color of that edge."""
    cells = []
    for i in range(1, g.n + 1):
        lo, hi = g.nodes[i - 1][g.m], g.nodes[i][g.m]
        if lo != hi:
            cells.append((added_box(lo, hi), i, g.hcolors[i][g.m]))
    return ColoredTableau(g.final_shape, tuple(cells))


def extract_Q(g: GrowthDiagram) -> ColoredTableau:
    """East-edge chain: the box added at row j holds value j and the
    descending color of that edge."""
    cells = []
    for j in range(1, g.m + 1):
        lo, hi = g.nodes[g.n][j - 1], g.nodes[g.n][j]
        if lo != hi:
            cells.append((added_box(lo, hi), j, g.vcolors[g.n][j]))
    return ColoredTableau(g.final_shape, tuple(cells))


def _chain_from_tableau(t: ColoredTableau, geometry: Geometry, length: int) -> list[Shape]:
    """Shapes of the sub-tableaux on values <= i, for i = 0..length."""
    point_of = {v: p for p, v, _ in t.cells}
    chain = [empty_shape(geometry)]
    current = chain[0]
    for i in range(1, length + 1):
        if i in point_of:
            current = add_box(current, point_of[i])
        chain.append(current)
    return chain


def invert_growth(alg, P: ColoredTableau, Q: ColoredTableau) -> GeneralizedPermutation:
    """Southwestward sweep of cell_inverse from the chains P and Q encode."""
    if P.shape != Q.shape:
        raise GrowthError("P and Q must have the same shape")
    if not P.is_standard() or not Q.is_standard():
        raise GrowthError("P and Q must be standard")
    inst = alg.instantiation
    P.validate_colors(inst, inst.w1)
    Q.validate_colors(inst, inst.w2)
    n, m = P.size, Q.size
    nodes: list[list[Optional[Shape]]] = [[None] * (m + 1) for _ in range(n + 1)]
    hcol: list[list[Optional[int]]] = [[None] * (m + 1) for _ in range(n + 1)]
    vcol: list[list[Optional[int]]] = [[None] * (m + 1) for _ in range(n + 1)]

    north = _chain_from_tableau(P, alg.geometry, n)
    east = _chain_from_tableau(Q, alg.geometry, m)
    for i in range(n + 1):
        nodes[i][m] = north[i]
    nodes[n] = east
    p_color = {v: c for _, v, c in P.cells}
    q_color = {v: c for _, v, c in Q.cells}
    for i in range(1, n + 1):
        hcol[i][m] = p_color[i] if north[i] != north[i - 1] else None
    for j in range(1, m + 1):
        vcol[n][j] = q_color[j] if east[j] != east[j - 1] else None

    entries = set()
    for i in range(n, 0, -1):
        for j in range(m, 0, -1):
            x, y, z = nodes[i][j - 1], nodes[i - 1][j], nodes[i][j]
            b = color_pair(hcol[i][j], vcol[i][j]) if z != x else None
            try:
                t, a, alpha = cell_inverse(alg, x, y, z, b)
            except ValueError as e:
                raise GrowthError(f"cell ({i},{j}) is outside the image: {e}") from None
            nodes[i - 1][j - 1] = t
            vcol[i - 1][j] = a.g2 if a is not None else None
            if t == x:
                hcol[i][j - 1] = None
            elif a is not None and a.g1 is not None:
                hcol[i][j - 1] = a.g1
            else:
                hcol[i][j - 1] = hcol[i][j]
            if alpha:
                entries.add((i, j, alpha))

    for i in range(n + 1):
        if nodes[i][0].size:
            raise GrowthError("P/Q pair is outside the image (south border not empty)")
    return GeneralizedPermutation(n, m, frozenset(entries))


def restrict(g: GrowthDiagram, i_max: int) -> GrowthDiagram:
    """The left i_max columns: the growth of the subword of values <= i_max."""
    if not 0 <= i_max <= g.n:
        raise GrowthError(f"i_max must be in 0..{g.n}")
    take = lambda grid: tuple(grid[i] for i in range(i_max + 1))
    return GrowthDiagram(i_max, g.m, take(g.nodes), take(g.hcolors), take(g.vcolors),
                         g.alphas.restrict_values(i_max))
