"""Shapes as values: the corners each shape reads off its row ends agree
with a from-scratch computation, the lattice operations give equal shapes
for equal rows and keep none alive, and long seeded round trips still
recover their input."""

import copy
import gc
import pickle
import random

import pytest

from growthkit.catalog import get_algorithm, list_algorithms
from growthkit.growth import (
    GeneralizedPermutation, extract_P, extract_Q, invert_growth, run_growth,
)
from growthkit.lattice import (
    Geometry, Point, Shape, add_box, deletion_points, empty_shape,
    insertion_points, join, meet, remove_box, shapes_up_to,
)
from growthkit.oracle import check_bijection

Q, O = Geometry.QUADRANT, Geometry.OCTANT


def reference_corners(s: Shape):
    """Insertion points, deletion points and their alternation, recomputed
    from the row ends and put in northeast-to-southwest order by sorting."""
    k = len(s.rows)
    ends = [s.row_end(r) for r in range(1, k + 1)]
    dels = [Point(r, ends[r - 1]) for r in range(1, k + 1)
            if r == k or ends[r - 1] > ends[r]]
    if k == 0:
        ins = [Point(1, 1)]
    else:
        ins = [Point(1, ends[0] + 1)]
        ins += [Point(r, ends[r - 1] + 1) for r in range(2, k + 1)
                if ends[r - 2] > ends[r - 1]]
        if s.geometry is Q:
            ins.append(Point(k + 1, 1))
        elif s.rows[-1] >= 2:
            ins.append(Point(k + 1, k + 1))
    ne_to_sw = lambda p: (-p.col, p.row)
    alt = sorted([("+", p) for p in ins] + [("-", p) for p in dels],
                 key=lambda kp: ne_to_sw(kp[1]))
    return sorted(ins, key=ne_to_sw), sorted(dels, key=ne_to_sw), alt


class TestCoverStructure:
    @pytest.mark.parametrize("geometry", [Q, O])
    def test_matches_reference(self, geometry):
        for s in shapes_up_to(geometry, 10):
            ins, dels, alt = reference_corners(s)
            for shape in (s, Shape(geometry, s.rows)):   # enumerated and hand-built
                assert insertion_points(shape) == ins
                assert deletion_points(shape) == dels
                assert [shape.corner(i) for i in range(len(alt))] == [p for _, p in alt]

    def test_point_lists_are_copies(self):
        s = Shape(Q, (2, 1))
        insertion_points(s).clear()
        deletion_points(s).clear()
        assert insertion_points(s) == [Point(1, 3), Point(2, 2), Point(3, 1)]
        assert deletion_points(s) == [Point(1, 2), Point(2, 1)]


class TestCanonicalInstances:
    def test_equal_values_from_different_operations(self):
        for a, b in [
                (add_box(empty_shape(Q), Point(1, 1)), remove_box(Shape(Q, (2,)), Point(1, 2))),
                (join(Shape(Q, (2,)), Shape(Q, (1, 1))), add_box(Shape(Q, (2,)), Point(2, 1))),
                (meet(Shape(Q, (2,)), Shape(Q, (1, 1))), Shape(Q, (1,)))]:
            assert a == b and hash(a) == hash(b)

    def test_hand_built_shape_equals_canonical(self):
        canonical = add_box(Shape(Q, (2, 1)), Point(1, 3))
        hand = Shape(Q, (3, 1))
        assert hand is not canonical
        assert hand == canonical and hash(hand) == hash(canonical)
        assert {hand: "found"}[canonical] == "found"
        assert Shape(O, (3, 1)) != Shape(Q, (3, 1))

    def test_shapes_are_immutable(self):
        s = empty_shape(Q)
        with pytest.raises(AttributeError):
            s.rows = (1,)

    def test_copy_and_pickle_keep_the_value(self):
        s = add_box(Shape(O, (3, 1)), Point(2, 3))
        assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s
        g = run_growth(get_algorithm("sagan1"), GeneralizedPermutation.from_word(
            [(2, 1), (3, 1), (1, 1)]))
        assert pickle.loads(pickle.dumps(extract_P(g))) == extract_P(g)


def _live_shapes() -> int:
    gc.collect()
    return sum(type(o) is Shape for o in gc.get_objects())


@pytest.mark.parametrize("name", ["rs-row", "sagan1"])
def test_a_fold_leaves_no_shape_behind(name):
    """The grid's shapes live only as long as the grid: after the registry's
    algorithm folds a growth and the growth is dropped, as many Shapes are
    alive as before."""
    alg, rng = get_algorithm(name), random.Random(f"no-shape-behind-{name}")
    values = list(range(1, 151))
    rng.shuffle(values)
    gp = GeneralizedPermutation.from_word(
        [(v, rng.randint(1, alg.r)) for v in values], n=150)
    before = _live_shapes()
    g = run_growth(alg, gp)
    assert g.nodes[g.n][g.m] == extract_P(g).shape
    del g
    assert _live_shapes() == before


class TestLongRoundTrips:
    @pytest.mark.parametrize("name", sorted(list_algorithms()))
    def test_n100_recovers_input(self, name):
        alg = get_algorithm(name)
        rng = random.Random(name)
        values = list(range(1, 101))
        rng.shuffle(values)
        gp = GeneralizedPermutation.from_word(
            [(v, rng.randint(1, alg.r)) for v in values], n=100)
        g = run_growth(alg, gp)
        assert invert_growth(alg, extract_P(g), extract_Q(g)) == gp


def test_four_worker_report_equals_the_serial_one():
    """A sweep split over four worker processes, each filling its own copy
    of the sweep table, reports what one process does."""
    alg = get_algorithm("left-right")
    serial = check_bijection(alg, 4, workers=1)
    assert serial.ok and check_bijection(alg, 4, workers=4) == serial
