import pytest

from growthkit.lattice import (
    Geometry, Point, Shape, empty_shape, insertion_points, shapes_up_to,
)
from growthkit.wdgg import (
    BUILTIN_INSTANTIATIONS, Instantiation, WeightError,
    constant_weight, diagonal_weight, verify_instantiation,
    verify_weight_equation,
)

Q, O = Geometry.QUADRANT, Geometry.OCTANT
ARCHETYPE = BUILTIN_INSTANTIATIONS["unshifted-1"]
SHIFTED = BUILTIN_INSTANTIATIONS["shifted-1"]


def _weights_up(inst, s):
    """(point, w1, w2) for every insertion point of s."""
    return [(p, inst.w1(p), inst.w2(p)) for p in insertion_points(s)]


class TestWeights:
    def test_weight_up_shifted(self):
        got = _weights_up(SHIFTED, Shape(O, (3, 1)))
        assert got == [(Point(1, 4), 1, 2), (Point(2, 3), 1, 2)]

    def test_weight_up_trivial(self):
        got = _weights_up(ARCHETYPE, Shape(Q, (2, 1)))
        assert [(w1, w2) for _, w1, w2 in got] == [(1, 1)] * 3

    def test_weight_up_empty_shifted(self):
        assert _weights_up(SHIFTED, empty_shape(O)) == [(Point(1, 1), 1, 1)]

    def test_diagonal_weight(self):
        w = diagonal_weight
        assert w(Point(3, 3)) == 1
        assert w(Point(1, 4)) == 2


class TestWeightEquation:
    def test_archetype_2_1(self):
        report = verify_weight_equation(ARCHETYPE, Shape(Q, (2, 1)))
        assert (report.lhs, report.rhs, report.ok) == (3, 3, True)

    def test_shifted_3_1(self):
        report = verify_weight_equation(SHIFTED, Shape(O, (3, 1)))
        assert (report.lhs, report.rhs, report.ok) == (4, 4, True)

    def test_doubled(self):
        doubled = BUILTIN_INSTANTIATIONS["unshifted-2"]
        report = verify_weight_equation(doubled, Shape(Q, (2, 1)))
        assert (report.lhs, report.rhs, report.ok) == (6, 6, True)

    def test_bad_instantiation_fails_at_empty(self):
        bad = Instantiation("bad", Q, constant_weight(1), constant_weight(1), 2)
        report = verify_weight_equation(bad, empty_shape(Q))
        assert (report.lhs, report.rhs, report.ok) == (2, 1, False)
        full = verify_instantiation(bad, 3)
        assert not full.ok and full.failures[0].shape == empty_shape(Q)
        assert str(verify_instantiation(bad, 2)).splitlines() == [
            "FAIL instantiation=bad shapes<= 2 checked=4 failures=4",
            "  FAIL shape=0 lhs=2 rhs=1",
            "  FAIL shape=1 lhs=3 rhs=2",
            "  FAIL shape=2 lhs=3 rhs=2",
            "  FAIL shape=1,1 lhs=3 rhs=2",
        ]


class TestBuiltins:
    def test_exactly_eight(self):
        assert len(BUILTIN_INSTANTIATIONS) == 8

    @pytest.mark.parametrize("name", sorted(BUILTIN_INSTANTIATIONS))
    def test_all_builtins_balance_to_10(self, name):
        report = verify_instantiation(BUILTIN_INSTANTIATIONS[name], 10)
        assert report.ok, str(report)

    def test_monoweighted_view(self):
        # with w1 = 1 the product weight equals w2 everywhere
        inst = SHIFTED
        for s in shapes_up_to(O, 6):
            for p in s.boxes():
                assert inst.weight(p) == inst.w2(p)


class TestInstantiation:
    def test_rejects_bad_degree(self):
        with pytest.raises(WeightError):
            Instantiation("zero", Q, constant_weight(1), constant_weight(1), 0)
