"""The grid engine as a reference for the event engine in growthkit.growth.

``fold_growth`` grows every cell, column by column, with
``border_column`` + ``grow_column``; ``invert_grid`` sweeps ``cell_inverse``,
the cell rule run backwards, over every cell from the northeast.  Both are
the engines ``run_growth`` and ``invert_growth`` used before they visited
only insertion and bump cells, kept here so that tests can compare the two
on any input.  ``cell_forward`` is the six-case rule of one cell, the
reference for ``grow_column``'s walk up a column.  ``check_by_covers`` is
``GrowthDiagram.check`` as it read before it told covers by ``added_box``.
"""

from typing import Optional

from growthkit.growth import (
    ColoredTableau, GeneralizedPermutation, GrowthDiagram, GrowthError,
    border_column, grow_column, shape_moves,
)
from growthkit.insdiag import ColorPair, color_pair
from growthkit.lattice import (
    Geometry, Shape, add_box, added_box, empty_shape, join, meet, remove_box,
)
from oracles import covers


def alpha(gp: GeneralizedPermutation, i: int, j: int) -> int:
    """The color of the entry at (value i, time j), 0 where there is none."""
    for vi, vj, c in gp.entries:
        if vi == i and vj == j:
            return c
    return 0


def column_of(gp: GeneralizedPermutation, j: int) -> Optional[tuple[int, int]]:
    """(value, color) inserted at time j, if any."""
    for vi, vj, c in gp.entries:
        if vj == j:
            return vi, c
    return None


def fold_growth(alg, gp: GeneralizedPermutation) -> GrowthDiagram:
    """Every cell of the growth, grown column by column from the west border;
    a diagram built from its grid, so extract_P/extract_Q read the grid."""
    entry_of = {i: (j, c) for i, j, c in gp.entries}
    moves = shape_moves(alg)
    columns = [border_column(moves, gp.m)]
    for i in range(1, gp.n + 1):
        time, color = entry_of.get(i, (0, 0))
        columns.append(grow_column(moves, i, columns[-1], time, color))
    nodes, hcols, vcols, _, _ = zip(*columns)
    return GrowthDiagram(gp.n, gp.m, nodes, hcols, vcols, gp)


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
        return alg.follow(x, alpha)[:2]
    if not y_moved:
        return (x if x_moved else t), None
    if not x_moved:
        return y, color_pair(None, a.g2)
    if x == y:
        return alg.follow(x, (added_box(t, x), a))[:2]
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
    got = alg.unbump(x, added_box(x, z), b)
    if isinstance(got, int):
        return x, None, got
    p, pair = got
    return remove_box(x, p), pair, 0


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


def invert_grid(alg, P: ColoredTableau, Q: ColoredTableau) -> GeneralizedPermutation:
    """Southwestward sweep of cell_inverse from the chains P and Q encode."""
    if P.shape != Q.shape:
        raise GrowthError("P and Q must have the same shape")
    if not P.is_standard() or not Q.is_standard():
        raise GrowthError("P and Q must be standard")
    inst = alg.instantiation
    P.validate_colors(inst.w1)
    Q.validate_colors(inst.w2)
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
                t, a, alpha_color = cell_inverse(alg, x, y, z, b)
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
            if alpha_color:
                entries.add((i, j, alpha_color))

    for i in range(n + 1):
        if nodes[i][0].size:
            raise GrowthError("P/Q pair is outside the image (south border not empty)")
    return GeneralizedPermutation(n, m, frozenset(entries))


def check_by_covers(g: GrowthDiagram) -> None:
    """GrowthDiagram.check with each cover told by ``oracles.covers``."""
    for i in range(g.n + 1):
        if g.nodes[i][0].size:
            raise GrowthError(f"south border node ({i},0) is not empty")
    for j in range(g.m + 1):
        if g.nodes[0][j].size:
            raise GrowthError(f"west border node (0,{j}) is not empty")
    for i in range(1, g.n + 1):
        for j in range(g.m + 1):
            a, b = g.nodes[i - 1][j], g.nodes[i][j]
            if a != b and not covers(b, a):
                raise GrowthError(f"nodes ({i-1},{j}) and ({i},{j}) not equal or cover")
            if (g.hcolors[i][j] is None) != (a == b):
                raise GrowthError(f"h-edge color mismatch at ({i},{j})")
    for i in range(g.n + 1):
        for j in range(1, g.m + 1):
            a, b = g.nodes[i][j - 1], g.nodes[i][j]
            if a != b and not covers(b, a):
                raise GrowthError(f"nodes ({i},{j-1}) and ({i},{j}) not equal or cover")
            if (g.vcolors[i][j] is None) != (a == b):
                raise GrowthError(f"v-edge color mismatch at ({i},{j})")
