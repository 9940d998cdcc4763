"""Insertion diagrams: per-shape arrow sets encoding the local insertion rule.

For a shape x the diagram holds one unanchored "alpha" arrow per insertion
color and, for every deletion point p, one "bump" arrow per color pair on p.
Together they define a bijection from (down-edges of x) + (alpha colors) onto
the up-edges into x, which is exactly what the growth process consumes.

One key picks out an arrow everywhere: an alpha color (an int), or a bump's
deletion point and color pair, ``(p, pair)``.  An ``Arrow`` is its key and
where it lands, (target, out colors), and prints as one line of the text
format.  A ``TableRule`` gives the arrow of a key on a shape one at a time,
``arrow(shape, key)``, and the growth process asks it for the one arrow
each insertion or bump follows.  It is the only local rule: a table from
alpha colors and bump color pairs to a side and out colors.  A side reads
only the corners of a shape (``lattice.Corners``), which a ``Shape`` gives
from its rows and the event engine from a tableau's rows, and the rule
inverts by lookup, back to the key, through each side's exact inverse.
Whole diagrams are for display and checking: ``validate``, the textual
format, and ``catalog.AlgorithmSpec.generator``, the rule mapped over a
shape's keys.
The tests keep a rule that inverts by search as the reference for the
lookup (``tests/catalog_reference.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Optional, Union

from .lattice import Corners, Point, Shape
from .wdgg import Instantiation


class DiagramError(ValueError):
    pass


@dataclass(frozen=True, order=True, slots=True)
class ColorPair:
    """An ascending (g1) and a descending (g2) edge color.

    Arrows always carry both components; at the growth-cell interface a
    component may be None when the corresponding edge is degenerate.
    """

    g1: Optional[int] = None
    g2: Optional[int] = None

    def require_full(self) -> "ColorPair":
        if self.g1 is None or self.g2 is None:
            raise DiagramError(f"arrow color pair must have both components: {self}")
        return self

    def __str__(self):
        show = lambda c: "?" if c is None else str(c)
        return f"<{show(self.g1)},{show(self.g2)}>"


# ColorPair is immutable and takes few values, so the growth engine and the
# generators share one instance per pair instead of building one per use.
color_pair = lru_cache(maxsize=256)(ColorPair)


# An arrow's key: its alpha color, or its bump's deletion point and color pair.
Key = Union[int, tuple[Point, ColorPair]]


@dataclass(frozen=True, slots=True)
class Arrow:
    """One arrow of an insertion diagram: the arrow of key, which ends at
    (target, out)."""

    key: Key
    target: Point
    out: ColorPair

    def __post_init__(self):
        if self.key.__class__ is not int:
            self.key[1].require_full()
        self.out.require_full()

    def __str__(self):
        if self.key.__class__ is int:
            return f"alpha {self.key} -> {self.target} {self.out}"
        p, pair = self.key
        return f"bump {p} {pair} -> {self.target} {self.out}"


def alpha_arrow(color: int, target: Point, out_g1: int, out_g2: int) -> Arrow:
    return Arrow(color, target, color_pair(out_g1, out_g2))


def bump_arrow(source: Point, in_g1: int, in_g2: int,
               target: Point, out_g1: int, out_g2: int) -> Arrow:
    return Arrow((source, color_pair(in_g1, in_g2)), target, color_pair(out_g1, out_g2))


@dataclass(frozen=True)
class InsertionDiagram:
    shape: Shape
    arrows: frozenset[Arrow]


def diagram(shape: Shape, arrows) -> InsertionDiagram:
    return InsertionDiagram(shape, frozenset(arrows))


@dataclass(frozen=True)
class DiagramReport:
    shape: Shape
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        head = f"{'ok' if self.ok else 'FAIL'} shape={self.shape}"
        return "\n".join([head] + [f"  {f}" for f in self.failures])


def validate(inst: Instantiation, d: InsertionDiagram) -> DiagramReport:
    """Check the three constraints that make the arrows a bijection, arrow
    by arrow in ``format_diagram``'s order."""
    failures = []
    ins, dels = d.shape.points()
    arrows = sorted(d.arrows, key=_arrow_order)

    seen_colors = [a.key for a in arrows if a.key.__class__ is int]
    if seen_colors != list(range(1, inst.r + 1)):
        failures.append(
            f"alpha arrows must cover colors 1..{inst.r} exactly once, got {seen_colors}")

    sources = [a.key for a in arrows if a.key.__class__ is not int]
    for p, _ in sources:
        if p not in dels:
            failures.append(f"bump source {p} is not a deletion point")
    for p in dels:
        pairs = [pair for s, pair in sources if s == p]
        if len(pairs) != len(set(pairs)) or set(pairs) != set(color_pairs(inst, p)):
            failures.append(
                f"deletion point {p} must emit one bump per pair in "
                f"[{inst.w1(p)}]x[{inst.w2(p)}], got {sorted(map(str, pairs))}")

    for a in arrows:
        if a.target not in ins:
            failures.append(f"arrow target {a.target} is not an insertion point")
    for q in ins:
        outs = [a.out for a in arrows if a.target == q]
        if len(outs) != len(set(outs)) or set(outs) != set(color_pairs(inst, q)):
            failures.append(
                f"insertion point {q} must receive one arrow per pair in "
                f"[{inst.w1(q)}]x[{inst.w2(q)}], got {sorted(map(str, outs))}")

    return DiagramReport(d.shape, tuple(failures))


Move = tuple[Point, ColorPair]


def color_pairs(inst: Instantiation, p: Point) -> tuple[ColorPair, ...]:
    """The pairs [w1(p)] x [w2(p)] of colors an edge at p can carry."""
    return _color_grid(inst.w1(p), inst.w2(p))


@lru_cache(maxsize=None)
def _color_grid(w1: int, w2: int) -> tuple[ColorPair, ...]:
    return tuple(color_pair(a, b) for a, b in product(range(1, w1 + 1), range(1, w2 + 1)))


@dataclass(frozen=True)
class TableRule:
    """A local insertion rule as data: every shape's insertion diagram, one
    arrow at a time.  ``arrow(shape, key)`` is where the arrow of key lands,
    as (target, out colors), or None where the diagram has no such arrow.
    ``table`` maps an alpha color, or the color pair of a bump, to (side,
    out colors).  A side reads where the arrow lands off the corners of the
    shape (``lattice.Corners``), as ``side(shape, p)`` for a bump out of p,
    None where p is not a deletion point, and as ``side(shape)`` for an
    alpha arrow.  On the octant, ``diagonal`` holds the bumps out of a
    diagonal deletion point, in place of ``table``'s, and the entry an alpha
    arrow takes instead when its target is diagonal.

    The rule inverts by lookup, with no forward call for a bump: its
    entries by out colors, bumps first, and for a bump entry exactly the
    deletion points its side sends to the point q, ``side.sources(shape,
    q)``.  An alpha entry is one forward read."""

    table: dict
    diagonal: dict = field(default_factory=dict)

    def __post_init__(self):
        by_out = {}
        for on_diagonal, t in ((False, self.table), (True, self.diagonal)):
            for entry, (side, out) in t.items():
                by_out.setdefault(out, []).append((entry, side, on_diagonal))
        for entries in by_out.values():     # bumps first: they ask for no arrow
            entries.sort(key=lambda e: e[0].__class__ is int)
        object.__setattr__(self, "_by_out", by_out)

    def arrow(self, shape: Corners, key: Key) -> Optional[Move]:
        if key.__class__ is int:
            hit = self.table.get(key)
            if hit and key in self.diagonal and hit[0](shape).diagonal:
                hit = self.diagonal[key]
            return hit and (hit[0](shape), hit[1])
        p, pair = key
        hit = (self.diagonal if self.diagonal and p.diagonal else self.table).get(pair)
        target = hit and hit[0](shape, p)
        return target and (target, hit[1])

    def unbump(self, inst: Instantiation, shape: Corners, q: Point,
               out: ColorPair) -> Optional[Key]:
        """The key of the arrow that ends at (q, out), None if no arrow
        does.  A diagonal entry can only come from the one diagonal point
        that can be a corner, ``shape.crossing()``, which its side checks."""
        for entry, side, on_diagonal in self._by_out.get(out, ()):
            if entry.__class__ is int:
                if entry <= inst.r and self.arrow(shape, entry) == (q, out):
                    return entry
                continue
            sources = ([p for p in [shape.crossing()] if side(shape, p) == q] if on_diagonal
                       else side.sources(shape, q))
            for p in sources:   # the first that holds the entry's colors, in its table
                if (entry.g1 <= inst.w1(p) and entry.g2 <= inst.w2(p)
                        and (on_diagonal or not (self.diagonal and p.diagonal))):
                    return p, entry
        return None


_POINT = r"\((\d+)\s*,\s*(\d+)\)"
_PAIR = r"<(\d+)\s*,\s*(\d+)>"
_ALPHA_RE = re.compile(rf"^alpha\s+(\d+)\s*->\s*{_POINT}\s*{_PAIR}$")
_BUMP_RE = re.compile(rf"^bump\s+{_POINT}\s*{_PAIR}\s*->\s*{_POINT}\s*{_PAIR}$")


def parse_diagram(text: str, shape: Shape) -> InsertionDiagram:
    """Read the textual one-arrow-per-line format.

    Lines: ``alpha <c> -> (r,c) <g1,g2>`` and
    ``bump (r,c) <g1,g2> -> (r,c) <g1,g2>``.  Blank lines and ``#`` comments
    are ignored.
    """
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _ALPHA_RE.match(line)
        if m:
            c, tr, tc, g1, g2 = map(int, m.groups())
            arrows.append(alpha_arrow(c, Point(tr, tc), g1, g2))
            continue
        m = _BUMP_RE.match(line)
        if m:
            sr, sc, i1, i2, tr, tc, g1, g2 = map(int, m.groups())
            arrows.append(bump_arrow(Point(sr, sc), i1, i2, Point(tr, tc), g1, g2))
            continue
        raise DiagramError(f"line {lineno}: cannot parse arrow {raw!r}")
    return diagram(shape, arrows)


def format_diagram(d: InsertionDiagram) -> str:
    """Inverse of parse_diagram, one arrow per line, alpha arrows first."""
    return "\n".join(map(str, sorted(d.arrows, key=_arrow_order)))


def _arrow_order(a: Arrow):
    """Alpha arrows, then bumps, by key, then (in an invalid diagram) by target."""
    return a.key.__class__ is not int, a.key, a.target, a.out
