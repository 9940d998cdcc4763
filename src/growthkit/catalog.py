"""The built-in insertion algorithms: a generator producing the insertion
diagram of each algorithm for any shape, plus display palettes.

All generators work off the northeast-to-southwest alternation of insertion
("+") and deletion ("-") points.  For a deletion point, its "southwest
neighbor" is the next insertion point in that order (one row further south)
and its "northeast neighbor" is the previous one (one column further east).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .insdiag import InsertionDiagram, alpha_arrow, bump_arrow, diagram
from .lattice import Geometry, Point, Shape, deletion_points, insertion_points
from .wdgg import BUILTIN_INSTANTIATIONS, Instantiation


class CatalogError(ValueError):
    pass


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


# Edge-label palettes.  A palette maps (box, color) to a display label, or the
# whole channel is unlabeled (None) when its weight is 1 everywhere.

def _uc(point: Point, color: int) -> str:
    return {1: "U", 2: "C"}[color]


def _uc_diag(point: Point, color: int) -> str:
    return "-" if point.diagonal else {1: "U", 2: "C"}[color]


def _br_diag(point: Point, color: int) -> str:
    return "-" if point.diagonal else {1: "B", 2: "R"}[color]


_ALPHA_NAMES = {
    1: {1: "X"},
    2: {1: "U", 2: "C"},
    4: {1: "UU", 2: "CU", 3: "UC", 4: "CC"},
}


@dataclass
class AlgorithmSpec:
    """A named algorithm: instantiation, diagram generator, display palettes."""

    name: str
    instantiation: Instantiation
    generator: Callable[[Shape], InsertionDiagram]
    description: str
    g1_labels: Optional[Callable[[Point, int], str]] = None
    g2_labels: Optional[Callable[[Point, int], str]] = None
    p_suffixes: dict[int, str] = field(default_factory=lambda: {1: "", 2: "o"})
    q_suffixes: dict[int, str] = field(default_factory=lambda: {1: "", 2: "o"})
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def r(self) -> int:
        return self.instantiation.r

    @property
    def geometry(self) -> Geometry:
        return self.instantiation.geometry

    @property
    def alpha_names(self) -> dict[int, str]:
        return _ALPHA_NAMES[self.r]

    def diagram(self, shape: Shape) -> InsertionDiagram:
        """Generate-and-memoize, one cache per process.  A sweep's forked
        worker processes start from a copy of this cache and fill their own;
        what they generate is not returned to the parent.  There is no
        lock: generators are pure, so two threads that miss on one shape at
        once each generate an equal diagram and one of them is kept."""
        d = self._cache.get(shape)
        if d is None:
            if shape.geometry is not self.geometry:
                raise CatalogError(
                    f"{self.name} runs on the {self.geometry}, got a {shape.geometry} shape")
            d = self._cache[shape] = self.generator(shape)
        return d


def _make_registry() -> dict[str, AlgorithmSpec]:
    inst = BUILTIN_INSTANTIATIONS
    algs = [
        AlgorithmSpec("rs-row", inst["unshifted-1"], _gen_rs_row,
                      "Robinson-Schensted row insertion"),
        AlgorithmSpec("rs-col", inst["unshifted-1"], _gen_rs_col,
                      "column insertion into unshifted tableaux"),
        AlgorithmSpec("left-right", inst["unshifted-2"], _gen_left_right,
                      "Haiman's left-right insertion", g2_labels=_uc),
        AlgorithmSpec("mclarnan-fairy", inst["unshifted-1"], _gen_mclarnan,
                      "McLarnan's order-reversing fairy insertion"),
        AlgorithmSpec("jitter", inst["unshifted-2"], _gen_jitter,
                      "left-right with the circling flipped on every move",
                      g2_labels=_uc),
        AlgorithmSpec("sagan1", inst["shifted-1"], _gen_sagan1,
                      "Sagan's first shifted insertion", g2_labels=_br_diag),
        AlgorithmSpec("worley-sagan", inst["shifted-1"], _gen_worley_sagan,
                      "the Worley/Sagan shifted insertion", g2_labels=_br_diag),
        AlgorithmSpec("mixed", inst["unshifted-mixed"], _gen_mixed,
                      "Haiman's mixed insertion", g1_labels=_uc),
        AlgorithmSpec("double-circle", inst["unshifted-4"], _gen_double_circle,
                      "left-right mixed insertion with two circle families",
                      g1_labels=_uc, g2_labels=_uc,
                      q_suffixes={1: "", 2: "b"}),
        AlgorithmSpec("shifted-mixed", inst["shifted-mixed"], _gen_shifted_mixed,
                      "Haiman's shifted mixed insertion", g1_labels=_uc_diag),
        AlgorithmSpec("shifted-column", inst["shifted-column"], _gen_shifted_column,
                      "McLarnan's shifted column insertion", g1_labels=_uc_diag),
        AlgorithmSpec("dual-shifted-column", inst["shifted-column-dual"],
                      _gen_dual_shifted_column,
                      "shifted column insertion with labels on the descending channel",
                      g2_labels=_uc_diag),
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


def generate(name: str, shape: Shape) -> InsertionDiagram:
    """The named algorithm's insertion diagram for one shape."""
    return get_algorithm(name).diagram(shape)
