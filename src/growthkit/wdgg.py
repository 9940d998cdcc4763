"""Weight/biweight functions and the weight-equation checks.

An instantiation fixes the geometry, the two weight functions (G1 and G2
edge multiplicities), and the differential degree r.  The balance condition

    sum over removable boxes of w1*w2  +  r  =  sum over addable boxes of w1*w2

must hold at every shape; ``verify_instantiation`` checks it exhaustively up
to a size bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .lattice import Geometry, Point, Shape, shapes_up_to


class WeightError(ValueError):
    pass


def constant_weight(value: int) -> Callable[[Point], int]:
    def w(p: Point) -> int:
        return value
    w.constant = value
    return w


def constant_value(w: Callable[[Point], int]) -> Optional[int]:
    """w's value at every point if w is a ``constant_weight``, else None."""
    return getattr(w, "constant", None)


def diagonal_weight(p: Point) -> int:
    """The shifted channels' weight: 1 on the diagonal, 2 off it."""
    return 1 if p.diagonal else 2


@dataclass(frozen=True)
class Instantiation:
    """Parameters of a biweighted dual graded graph."""

    name: str
    geometry: Geometry
    w1: Callable[[Point], int] = field(compare=False)
    w2: Callable[[Point], int] = field(compare=False)
    r: int = 1

    def __post_init__(self):
        if self.r < 1:
            raise WeightError(f"differential degree must be >= 1, got {self.r}")

    def weight(self, p: Point) -> int:
        """The combined weight w1*w2 at a point."""
        return self.w1(p) * self.w2(p)


@dataclass(frozen=True)
class WeightReport:
    shape: Shape
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def __str__(self):
        tag = "ok" if self.ok else "FAIL"
        return f"{tag} shape={self.shape} lhs={self.lhs} rhs={self.rhs}"


def verify_weight_equation(inst: Instantiation, s: Shape) -> WeightReport:
    """Check the balance condition at one shape."""
    insertions, deletions = s.points()
    return WeightReport(s, sum(map(inst.weight, deletions)) + inst.r,
                        sum(map(inst.weight, insertions)))


@dataclass(frozen=True)
class InstantiationReport:
    inst: Instantiation
    max_size: int
    checked: int
    failures: tuple[WeightReport, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        head = (f"{'PASS' if self.ok else 'FAIL'} instantiation={self.inst.name} "
                f"shapes<= {self.max_size} checked={self.checked} "
                f"failures={len(self.failures)}")
        return "\n".join([head] + [f"  {f}" for f in self.failures])


def verify_instantiation(inst: Instantiation, max_size: int) -> InstantiationReport:
    """Run the weight-equation check over every shape of size <= max_size."""
    failures = []
    checked = 0
    for s in shapes_up_to(inst.geometry, max_size):
        checked += 1
        report = verify_weight_equation(inst, s)
        if not report.ok:
            failures.append(report)
    return InstantiationReport(inst, max_size, checked, tuple(failures))


def _make_builtins() -> dict[str, Instantiation]:
    q, o = Geometry.QUADRANT, Geometry.OCTANT
    shifted = diagonal_weight
    one = constant_weight(1)
    two = constant_weight(2)
    insts = [
        Instantiation("unshifted-1", q, one, one, 1),
        Instantiation("unshifted-2", q, one, two, 2),
        Instantiation("unshifted-4", q, two, two, 4),
        Instantiation("unshifted-mixed", q, two, one, 2),
        Instantiation("shifted-1", o, one, shifted, 1),
        Instantiation("shifted-mixed", o, shifted, one, 1),
        Instantiation("shifted-column", o, shifted, one, 1),
        Instantiation("shifted-column-dual", o, one, shifted, 1),
    ]
    return {inst.name: inst for inst in insts}


BUILTIN_INSTANTIATIONS: dict[str, Instantiation] = _make_builtins()
