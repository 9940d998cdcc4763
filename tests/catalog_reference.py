"""The catalog's insertion diagram generators as they were before the
catalog held local rules: each builds the whole arrow set of one shape.
``tests/test_rules.py`` holds the rules of ``growthkit.catalog`` to them.
``rule_of`` turns any such generator, the broken ones of the tests too,
into a ``SearchRule``: a local rule given as one arrow function, which
inverts by search and is the reference for ``TableRule``'s inverse by lookup.

All generators work off the northeast-to-southwest alternation of insertion
("+") and deletion ("-") points.  For a deletion point, its "southwest
neighbor" is the next insertion point in that order (one row further south)
and its "northeast neighbor" is the previous one (one column further east).
"""

from itertools import chain
from typing import Callable, Optional

from growthkit.insdiag import (
    ColorPair, InsertionDiagram, Key, Move, alpha_arrow, bump_arrow, color_pairs, diagram,
)
from growthkit.lattice import (
    Corners, Point, Shape, add_box, deletion_points, insertion_points, transpose,
)
from growthkit.wdgg import Instantiation
from oracles import flanks


class SearchRule:
    """A local insertion rule: every shape's insertion diagram, one arrow at
    a time, read off the shape's corners (``lattice.Corners``: a ``Shape``,
    or the event engine's ``Below``).  ``arrow(shape, key)`` is where the
    arrow of key (an alpha color, or a deletion point and color pair) lands,
    as (target, out colors), or None where the diagram has no such arrow."""

    __slots__ = ("arrow",)

    def __init__(self, arrow: Callable[[Corners, Key], Optional[Move]]):
        self.arrow = arrow

    def unbump(self, inst: Instantiation, shape: Corners, q: Point,
               out: ColorPair) -> Optional[Key]:
        """The key of the arrow that ends at (q, out), None if no arrow
        does.  It searches: the alpha colors, then the deletion points next
        to q, where most bumps come from, then the rest.  The diagram of a
        valid rule is a bijection, so the first match is the only one."""
        move = (q, out)
        for c in range(1, inst.r + 1):
            if self.arrow(shape, c) == move:
                return c
        near = flanks(shape, q)
        for p in chain(near, _others(shape, near)):
            for pair in color_pairs(inst, p):
                if self.arrow(shape, key := (p, pair)) == move:
                    return key
        return None


def _others(shape: Corners, near: list[Point]):
    """The deletion points of shape not in near, listed when first asked for."""
    for p in shape.points()[1]:
        if p not in near:
            yield p


def _points(shape: Shape):
    """Insertion points, and each deletion point with its northeast and
    southwest neighbors (None past the last insertion point).

    The two kinds alternate northeast to southwest, so deletion point k sits
    between insertion points k and k + 1.
    """
    ins = insertion_points(shape)
    return ins, list(zip(deletion_points(shape), ins, ins[1:] + [None]))


def _gen_rs_row(shape: Shape) -> InsertionDiagram:
    """New values enter the first row; every bump moves one row south."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 1)]
    arrows += [bump_arrow(p, 1, 1, sw, 1, 1) for p, _, sw in dels]
    return diagram(shape, arrows)


def _gen_rs_col(shape: Shape) -> InsertionDiagram:
    """Transpose of row insertion: enter the first column, bump east."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[-1], 1, 1)]
    arrows += [bump_arrow(p, 1, 1, ne, 1, 1) for p, ne, _ in dels]
    return diagram(shape, arrows)


def _gen_left_right(shape: Shape) -> InsertionDiagram:
    """Uncircled values row-insert (U chain south), circled column-insert (C east)."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 1), alpha_arrow(2, ins[-1], 1, 2)]
    for p, ne, sw in dels:
        arrows.append(bump_arrow(p, 1, 1, sw, 1, 1))
        arrows.append(bump_arrow(p, 1, 2, ne, 1, 2))
    return diagram(shape, arrows)


def _gen_mclarnan(shape: Shape) -> InsertionDiagram:
    """Order-reversing matching: southmost removable box bumps to the highest
    addible box below the reserved first-row alpha point, and so on."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 1)]
    k = len(dels)
    for j, (p, _, _) in enumerate(dels, start=1):
        arrows.append(bump_arrow(p, 1, 1, ins[k + 1 - j], 1, 1))
    return diagram(shape, arrows)


def _gen_jitter(shape: Shape) -> InsertionDiagram:
    """Left-right geometry, but every insertion and bump flips the circling."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 2), alpha_arrow(2, ins[-1], 1, 1)]
    for p, ne, sw in dels:
        arrows.append(bump_arrow(p, 1, 1, sw, 1, 2))
        arrows.append(bump_arrow(p, 1, 2, ne, 1, 1))
    return diagram(shape, arrows)


def _gen_sagan1(shape: Shape) -> InsertionDiagram:
    """Shifted row insertion; a value bumped off the diagonal restarts in the
    first row as a red insertion, and red bumps never land on the diagonal."""
    ins, dels = _points(shape)
    top = ins[0]
    arrows = [alpha_arrow(1, top, 1, 1)]
    for p, _, sw in dels:
        if p.diagonal:
            arrows.append(bump_arrow(p, 1, 1, top, 1, 2))
        else:
            arrows.append(bump_arrow(p, 1, 1, sw, 1, 1))
            red_target = top if sw.diagonal else sw
            arrows.append(bump_arrow(p, 1, 2, red_target, 1, 2))
    return diagram(shape, arrows)


def _gen_worley_sagan(shape: Shape) -> InsertionDiagram:
    """Shifted row insertion; a value bumped off the diagonal column-inserts,
    moving east (red) until it lands in an empty box."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 1)]
    for p, ne, sw in dels:
        if p.diagonal:
            arrows.append(bump_arrow(p, 1, 1, ne, 1, 2))
        else:
            arrows.append(bump_arrow(p, 1, 1, sw, 1, 1))
            arrows.append(bump_arrow(p, 1, 2, ne, 1, 2))
    return diagram(shape, arrows)


def _gen_mixed(shape: Shape) -> InsertionDiagram:
    """Inversion-dual of left-right: the circling lives on the ascending
    channel, so circles land in the P tableau."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 1), alpha_arrow(2, ins[-1], 2, 1)]
    for p, ne, sw in dels:
        arrows.append(bump_arrow(p, 1, 1, sw, 1, 1))
        arrows.append(bump_arrow(p, 2, 1, ne, 2, 1))
    return diagram(shape, arrows)


def _gen_double_circle(shape: Shape) -> InsertionDiagram:
    """Two circle families: UU and CC chains run southwestward, UC and CU
    chains run northeastward."""
    ins, dels = _points(shape)
    arrows = [
        alpha_arrow(1, ins[0], 1, 1),
        alpha_arrow(4, ins[0], 2, 2),
        alpha_arrow(3, ins[-1], 1, 2),
        alpha_arrow(2, ins[-1], 2, 1),
    ]
    for p, ne, sw in dels:
        arrows.append(bump_arrow(p, 1, 1, sw, 1, 1))
        arrows.append(bump_arrow(p, 2, 2, sw, 2, 2))
        arrows.append(bump_arrow(p, 1, 2, ne, 1, 2))
        arrows.append(bump_arrow(p, 2, 1, ne, 2, 1))
    return diagram(shape, arrows)


def _gen_shifted_mixed(shape: Shape) -> InsertionDiagram:
    """Mixed insertion on the octant: an uncircled value bumped from a
    diagonal box acquires a circle and moves to the next column."""
    ins, dels = _points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 1)]
    for p, ne, sw in dels:
        if p.diagonal:
            arrows.append(bump_arrow(p, 1, 1, ne, 2, 1))
        else:
            arrows.append(bump_arrow(p, 1, 1, sw, 1, 1))
            arrows.append(bump_arrow(p, 2, 1, ne, 2, 1))
    return diagram(shape, arrows)


def _gen_shifted_column(shape: Shape) -> InsertionDiagram:
    """Column insertion starting at the first column that can take the value,
    circled in P when that start is off-diagonal; bumps move east unchanged."""
    ins, dels = _points(shape)
    bottom = ins[-1]
    arrows = [alpha_arrow(1, bottom, 1 if bottom.diagonal else 2, 1)]
    for p, ne, _ in dels:
        for c in range(1, (1 if p.diagonal else 2) + 1):
            arrows.append(bump_arrow(p, c, 1, ne, c, 1))
    return diagram(shape, arrows)


def _gen_dual_shifted_column(shape: Shape) -> InsertionDiagram:
    """Shifted column insertion with the labels moved to the descending
    channel, so circles land in the Q tableau."""
    ins, dels = _points(shape)
    bottom = ins[-1]
    arrows = [alpha_arrow(1, bottom, 1, 1 if bottom.diagonal else 2)]
    for p, ne, _ in dels:
        for c in range(1, (1 if p.diagonal else 2) + 1):
            arrows.append(bump_arrow(p, 1, c, ne, 1, c))
    return diagram(shape, arrows)


GENERATORS = {
    "rs-row": _gen_rs_row,
    "rs-col": _gen_rs_col,
    "left-right": _gen_left_right,
    "mclarnan-fairy": _gen_mclarnan,
    "jitter": _gen_jitter,
    "sagan1": _gen_sagan1,
    "worley-sagan": _gen_worley_sagan,
    "mixed": _gen_mixed,
    "double-circle": _gen_double_circle,
    "shifted-mixed": _gen_shifted_mixed,
    "shifted-column": _gen_shifted_column,
    "dual-shifted-column": _gen_dual_shifted_column,
}


def transposed(generator, inst, f, g):
    """The generator of the transpose dual: every shape and arrow
    conjugated, alpha values recolored by f and edge colors by g (skipped on
    weight-1 boxes)."""
    f_inv = {f(c): c for c in range(1, inst.r + 1)}

    def map_pair(pair, box):
        g1 = g(pair.g1) if inst.w1(box) > 1 else pair.g1
        g2 = g(pair.g2) if inst.w2(box) > 1 else pair.g2
        return g1, g2

    def gen(shape: Shape) -> InsertionDiagram:
        base = generator(transpose(shape))
        arrows = []
        for a in base.arrows:
            target = a.target.transpose()
            og1, og2 = map_pair(a.out, target)
            if isinstance(a.key, int):
                arrows.append(alpha_arrow(f_inv[a.key], target, og1, og2))
            else:
                p, pair = a.key
                ig1, ig2 = map_pair(pair, p.transpose())
                arrows.append(bump_arrow(p.transpose(), ig1, ig2, target, og1, og2))
        return diagram(shape, arrows)

    return gen


def rule_of(generator) -> SearchRule:
    """The local rule that reads each arrow off generator(shape), generated
    once per shape.  A target that is not an insertion point raises
    ``LatticeError`` when its arrow is asked for, so a broken generator
    fails at the cell that follows that arrow and cannot send an insertion
    round in a loop."""
    arrows_of = {}

    def arrow(shape, key):
        arrows = arrows_of.get(shape)
        if arrows is None:
            arrows = arrows_of[shape] = {a.key: a for a in generator(shape).arrows}
        a = arrows.get(key)
        if a is not None:
            add_box(shape, a.target)
            return a.target, a.out

    return SearchRule(arrow)
