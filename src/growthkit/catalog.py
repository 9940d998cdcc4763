"""The built-in insertion algorithms, each a table rule
(``insdiag.TableRule``, the only kind of local rule) and the letters of its
edge colors, from which ``render`` works out every mark.  ``AlgorithmSpec``
asks its rule for one arrow at a time, by its key (an alpha color, or a
deletion point and color pair): the events for the box an arrow fills
(``arrow``) and the key of the arrow into a box (``unbump``), the column
walk for the shape it grows too (``follow``), and the picture book for
every key of a whole shape (``generator``).  Nothing here memoizes a move;
a sweep keeps the moves it follows in its own table.

The sides of the tables read only the corners of a shape
(``lattice.Corners``): ``FIRST`` and ``LAST``, the first and last insertion
points (northeast to southwest); ``NE`` and ``SW``, the insertion points
before and after the deletion point; ``MIRROR``, mclarnan-fairy's
order-reversing match of the deletion points with the insertion points after
the first, and ``MIRROR_T`` with those before the last; ``SW_OR_FIRST``,
sagan1's ``SW`` unless that is diagonal, else ``FIRST``.  A side lands a
bump only from a deletion point.  Each side carries its exact inverse,
``sources(shape, q)``: the deletion points whose bump it sends to the point
q, and no others, through which ``TableRule.unbump`` inverts by lookup.
``TRANSPOSED_SIDE`` maps each quadrant side to its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .insdiag import (
    Arrow, ColorPair, DiagramError, InsertionDiagram, Key, Move, TableRule, color_pair,
    color_pairs, diagram,
)
from .lattice import Corners, Geometry, Point, Shape, add_box
from .render import tableau_suffixes
from .wdgg import BUILTIN_INSTANTIATIONS, Instantiation


class CatalogError(ValueError):
    pass


def FIRST(shape, p=None):
    return shape.first if p is None or shape.deletes(p) else None


def LAST(shape, p=None):
    return shape.last if p is None or shape.deletes(p) else None


def NE(shape, p):
    return shape.northeast(p)


def SW(shape, p):
    return shape.southwest(p)


def MIRROR(shape, p):
    return _across(shape, p, 1, 1)


def MIRROR_T(shape, p):
    return _across(shape, p, -1, 1)


def SW_OR_FIRST(shape, p):
    sw = shape.southwest(p)
    return sw and (shape.first if sw.diagonal else sw)


def _across(shape, x, shift, parity):
    """The corner across the alternation from x, if x's index has this
    parity: the t-th deletion point and the t-th insertion point from the
    last are across with shift 1 (MIRROR), and with the insertion point
    before that with shift -1 (MIRROR_T).  The match is its own inverse,
    from the deletion points (parity 1) to the insertion points (parity 0)."""
    i = shape.index(x)
    if i is not None and i % 2 == parity:
        return shape.corner(shape.index(shape.last) - i + shift)


# Each side's sources: exactly the deletion points whose bump it sends to
# the point q, in the order of deletion_points; FIRST and LAST list them all.
FIRST.sources = lambda shape, q: shape.points()[1] if q == shape.first else []
LAST.sources = lambda shape, q: shape.points()[1] if q == shape.last else []
NE.sources = lambda shape, q: shape.ne_sources(q)
SW.sources = lambda shape, q: shape.sw_sources(q)
MIRROR.sources = lambda shape, q: [p for p in [_across(shape, q, 1, 0)] if p]
MIRROR_T.sources = lambda shape, q: [p for p in [_across(shape, q, -1, 0)] if p]
SW_OR_FIRST.sources = lambda shape, q: ([] if q.diagonal else shape.sw_sources(q)) + (
    shape.sw_sources(shape.crossing()) if q == shape.first else [])


TRANSPOSED_SIDE = {FIRST: LAST, LAST: FIRST, NE: SW, SW: NE, MIRROR: MIRROR_T, MIRROR_T: MIRROR}

_11, _12, _21, _22 = (color_pair(a, b) for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)))

# New values enter the first row; every bump moves one row south.
RS_ROW = TableRule({1: (FIRST, _11), _11: (SW, _11)})

# Transpose of row insertion: enter the first column, bump east.
RS_COL = TableRule({1: (LAST, _11), _11: (NE, _11)})

# Uncircled values row-insert (U chain south), circled column-insert (C east).
LEFT_RIGHT = TableRule({1: (FIRST, _11), 2: (LAST, _12), _11: (SW, _11), _12: (NE, _12)})

# Left-right geometry, but every insertion and bump flips the circling.
JITTER = TableRule({1: (FIRST, _12), 2: (LAST, _11), _11: (SW, _12), _12: (NE, _11)})

# Inversion-dual of left-right: the circling lives on the ascending channel,
# so circles land in the P tableau.
MIXED = TableRule({1: (FIRST, _11), 2: (LAST, _21), _11: (SW, _11), _21: (NE, _21)})

# Two circle families: UU and CC chains run southwestward, UC and CU chains
# run northeastward.
DOUBLE_CIRCLE = TableRule({
    1: (FIRST, _11), 4: (FIRST, _22), 3: (LAST, _12), 2: (LAST, _21),
    _11: (SW, _11), _22: (SW, _22), _12: (NE, _12), _21: (NE, _21)})

# Order-reversing matching: the southmost deletion point bumps to the highest
# insertion point below the first, which the alpha arrow keeps, and so on.
MCLARNAN = TableRule({1: (FIRST, _11), _11: (MIRROR, _11)})

# Shifted row insertion; a value bumped off the diagonal restarts in the
# first row as a red insertion, and red bumps never land on the diagonal.
SAGAN1 = TableRule({1: (FIRST, _11), _11: (SW, _11), _12: (SW_OR_FIRST, _12)},
                   diagonal={_11: (FIRST, _12)})

# Shifted row insertion; a value bumped off the diagonal column-inserts,
# moving east (red) until it lands in an empty box.
WORLEY_SAGAN = TableRule({1: (FIRST, _11), _11: (SW, _11), _12: (NE, _12)},
                         diagonal={_11: (NE, _12)})

# Mixed insertion on the octant: an uncircled value bumped from a diagonal
# box acquires a circle and moves to the next column.
SHIFTED_MIXED = TableRule({1: (FIRST, _11), _11: (SW, _11), _21: (NE, _21)},
                          diagonal={_11: (NE, _21)})

# Shifted column insertion, starting at the first column that can take the
# value: circled in P when the start is off the diagonal; bumps move east
# unchanged.
SHIFTED_COLUMN = TableRule({1: (LAST, _21), _11: (NE, _11), _21: (NE, _21)},
                           diagonal={1: (LAST, _11), _11: (NE, _11)})

# Shifted column insertion with the labels moved to the descending channel,
# so circles land in the Q tableau.
DUAL_SHIFTED_COLUMN = TableRule({1: (LAST, _12), _11: (NE, _11), _12: (NE, _12)},
                                diagonal={1: (LAST, _11), _11: (NE, _11)})


@dataclass
class AlgorithmSpec:
    """A named algorithm: instantiation, local rule, and the letters of
    edge colors 1 and 2 (uncircled/circled, or black/red)."""

    name: str
    instantiation: Instantiation
    rule: TableRule
    description: str
    letters: str = "UC"

    @property
    def r(self) -> int:
        return self.instantiation.r

    @property
    def geometry(self) -> Geometry:
        return self.instantiation.geometry

    p_suffixes = property(lambda self: tableau_suffixes(self.r, "P"))
    q_suffixes = property(lambda self: tableau_suffixes(self.r, "Q"))

    def generator(self, shape: Shape) -> InsertionDiagram:
        """The rule mapped over the alpha colors and over the color grid of
        each deletion point of shape: its whole diagram."""
        rule, inst = self.rule, self.instantiation
        keys = chain(range(1, inst.r + 1), ((p, pair) for p in shape.points()[1]
                                            for pair in color_pairs(inst, p)))
        return diagram(shape, [Arrow(key, *move) for key in keys
                               if (move := rule.arrow(shape, key))])

    def diagram(self, shape: Shape) -> InsertionDiagram:
        """The whole insertion diagram of shape, generated on every call.
        Only the picture book reads whole diagrams (``verify diagram``,
        ``validate``, ``diagrams_equal``); runs and sweeps never do."""
        if shape.geometry is not self.geometry:
            raise CatalogError(
                f"{self.name} runs on the {self.geometry}, got a {shape.geometry} shape")
        return self.generator(shape)

    def follow(self, shape: Shape, key: Key) -> tuple[Shape, ColorPair, Point]:
        """The shape grown by the arrow of key on shape, its out colors, and
        the box it fills: ``arrow``, then ``add_box``, which raises where
        the target is not an insertion point."""
        if shape.geometry is not self.geometry:
            raise CatalogError(
                f"{self.name} runs on the {self.geometry}, got a {shape.geometry} shape")
        box, out = self.arrow(shape, key)
        return add_box(shape, box), out, box

    # One arrow per event, asked of the rule: run_growth and invert_growth.

    def arrow(self, shape: Corners, key: Key) -> Move:
        """The arrow of key on shape: the box it fills, its out colors."""
        move = self.rule.arrow(shape, key)
        if move is None:
            if key.__class__ is int:
                raise DiagramError(f"no alpha arrow for color {key} on {shape}")
            raise DiagramError(f"no bump arrow from {key[0]} {key[1]} on {shape}")
        return move

    def unbump(self, shape: Corners, q: Point, out: ColorPair) -> Key:
        """The key of the arrow into (q, out) on shape."""
        got = self.rule.unbump(self.instantiation, shape, q, out)
        if got is None:
            raise DiagramError(f"no arrow into {q} {out} on {shape}")
        return got


def _make_registry() -> dict[str, AlgorithmSpec]:
    inst, spec = BUILTIN_INSTANTIATIONS, AlgorithmSpec
    algs = [
        spec("rs-row", inst["unshifted-1"], RS_ROW, "Robinson-Schensted row insertion"),
        spec("rs-col", inst["unshifted-1"], RS_COL,
             "column insertion into unshifted tableaux"),
        spec("left-right", inst["unshifted-2"], LEFT_RIGHT,
             "Haiman's left-right insertion"),
        spec("mclarnan-fairy", inst["unshifted-1"], MCLARNAN,
             "McLarnan's order-reversing fairy insertion"),
        spec("jitter", inst["unshifted-2"], JITTER,
             "left-right with the circling flipped on every move"),
        spec("sagan1", inst["shifted-1"], SAGAN1,
             "Sagan's first shifted insertion", "BR"),
        spec("worley-sagan", inst["shifted-1"], WORLEY_SAGAN,
             "the Worley/Sagan shifted insertion", "BR"),
        spec("mixed", inst["unshifted-mixed"], MIXED,
             "Haiman's mixed insertion"),
        spec("double-circle", inst["unshifted-4"], DOUBLE_CIRCLE,
             "left-right mixed insertion with two circle families"),
        spec("shifted-mixed", inst["shifted-mixed"], SHIFTED_MIXED,
             "Haiman's shifted mixed insertion"),
        spec("shifted-column", inst["shifted-column"], SHIFTED_COLUMN,
             "McLarnan's shifted column insertion"),
        spec("dual-shifted-column", inst["shifted-column-dual"], DUAL_SHIFTED_COLUMN,
             "shifted column insertion with labels on the descending channel"),
    ]
    return {a.name: a for a in algs}


_REGISTRY = _make_registry()


def list_algorithms() -> dict[str, AlgorithmSpec]:
    return dict(_REGISTRY)


def get_algorithm(name: str) -> AlgorithmSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise CatalogError(f"unknown algorithm {name!r} (known: {known})") from None
