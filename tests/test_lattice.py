import pytest
from hypothesis import given, strategies as st
from itertools import combinations_with_replacement, product

from growthkit.lattice import (
    Geometry, LatticeError, Point, Shape,
    add_box, deletion_points, empty_shape, format_shape,
    insertion_points, join, meet, parse_shape, remove_box,
    shapes_of_size, shapes_up_to, transpose,
)
from oracles import (
    brute_alternation, brute_cominimal, brute_maximal, covers, flanks, is_order_ideal, leq,
    neighbors,
)

Q, O = Geometry.QUADRANT, Geometry.OCTANT


def qs(*rows):
    return Shape(Q, rows)


def os_(*rows):
    return Shape(O, rows)


quadrant_shapes = st.lists(st.integers(1, 6), max_size=6).map(
    lambda parts: Shape(Q, sorted(parts, reverse=True)))
octant_shapes = st.sets(st.integers(1, 8), max_size=5).map(
    lambda parts: Shape(O, sorted(parts, reverse=True)))
any_shape = st.one_of(quadrant_shapes, octant_shapes)


class TestShapeBasics:
    def test_size(self):
        assert empty_shape(Q).size == 0
        assert qs(5, 3, 3, 1).size == 12
        assert os_(3, 1).size == 4

    def test_validation(self):
        with pytest.raises(LatticeError):
            qs(1, 2)
        with pytest.raises(LatticeError):
            os_(2, 2)
        with pytest.raises(LatticeError):
            qs(3, 0)

    def test_octant_box_positions(self):
        assert os_(3, 1).boxes() == [Point(1, 1), Point(1, 2), Point(1, 3), Point(2, 2)]

    def test_geometry_membership(self):
        assert Q.contains(Point(7, 2))
        assert O.contains(Point(2, 5))
        assert not O.contains(Point(5, 2))


class TestCorners:
    def test_deletion_points_paper_shape(self):
        assert deletion_points(qs(5, 3, 3, 1)) == [Point(1, 5), Point(3, 3), Point(4, 1)]

    def test_insertion_points_paper_shape(self):
        assert insertion_points(qs(5, 3, 3, 1)) == [
            Point(1, 6), Point(2, 4), Point(4, 2), Point(5, 1)]

    def test_octant_corners(self):
        assert deletion_points(os_(3, 1)) == [Point(1, 3), Point(2, 2)]
        assert insertion_points(os_(3, 1)) == [Point(1, 4), Point(2, 3)]

    def test_empty(self):
        assert deletion_points(empty_shape(O)) == []
        assert insertion_points(empty_shape(Q)) == [Point(1, 1)]

    @pytest.mark.parametrize("geometry", [Q, O])
    def test_against_box_set_oracle(self, geometry):
        for s in shapes_up_to(geometry, 10):
            boxes = set(s.boxes())
            assert is_order_ideal(boxes, geometry)
            assert set(deletion_points(s)) == brute_maximal(boxes, geometry)
            assert set(insertion_points(s)) == brute_cominimal(boxes, geometry)

    def test_counts(self):
        for s in shapes_up_to(Q, 10):
            assert len(insertion_points(s)) == len(deletion_points(s)) + 1
        for s in shapes_up_to(O, 10):
            expected = 0 if (s.rows and s.rows[-1] == 1) else 1
            assert len(insertion_points(s)) == len(deletion_points(s)) + expected

    def test_alternation(self):
        # the index reads list the alternation, which alternates
        for geometry in (Q, O):
            for s in shapes_up_to(geometry, 10):
                alt = brute_alternation(set(s.boxes()), geometry)
                assert [s.corner(i) for i in range(len(alt) + 1)] == [p for _, p in alt] + [None]
                assert [s.index(p) for _, p in alt] == list(range(len(alt)))
                kinds = [k for k, _ in alt]
                assert all(a != b for a, b in zip(kinds, kinds[1:]))
                if s.size:
                    assert kinds[0] == "+"
                if geometry is Q:
                    assert kinds[-1] == "+"


class TestSingleCorners:
    """The corners a local rule reads, against the brute-force alternation."""

    def test_against_the_alternation(self):
        for geometry in (Q, O):
            for s in shapes_up_to(geometry, 10):
                alt = brute_alternation(set(s.boxes()), geometry)
                ins = [p for kind, p in alt if kind == "+"]
                dels = [p for kind, p in alt if kind == "-"]
                assert (s.first, s.last) == (ins[0], ins[-1])
                for k, (kind, p) in enumerate(alt):
                    side = lambda j: alt[j][1] if 0 <= j < len(alt) else None
                    if kind == "-":
                        assert neighbors(s, p) == (side(k - 1), side(k + 1)), (s, p)
                    else:
                        near = [q for q in (side(k - 1), side(k + 1)) if q is not None]
                        assert flanks(s, p) == near, (s, p)
                for p in s.boxes():
                    if p not in dels:
                        assert neighbors(s, p) is None

    def test_flanks_of_a_point_off_the_corners_are_deletion_points(self):
        for geometry in (Q, O):
            for s in shapes_up_to(geometry, 8):
                dels = brute_maximal(set(s.boxes()), geometry)
                for r in range(1, len(s.rows) + 3):
                    for c in range(1, 10):
                        assert set(flanks(s, Point(r, c))) <= dels


class TestAddRemove:
    def test_add_examples(self):
        assert add_box(qs(3), Point(2, 1)) == qs(3, 1)
        assert add_box(qs(3, 1), Point(3, 1)) == qs(3, 1, 1)
        assert remove_box(os_(3, 1), Point(2, 2)) == os_(3)

    def test_rejects_non_corner(self):
        with pytest.raises(LatticeError):
            add_box(qs(3), Point(3, 1))
        with pytest.raises(LatticeError):
            remove_box(qs(3, 1), Point(1, 2))

    @pytest.mark.parametrize("geometry", [Q, O])
    def test_every_point_against_the_box_set_oracle(self, geometry):
        # every point within two rows and columns of the shape, those off the
        # octant too: add_box takes exactly the cominimal points and
        # remove_box exactly the maximal boxes, and rejects every other point
        for s in shapes_up_to(geometry, 8):
            boxes = set(s.boxes())
            ins, dels = brute_cominimal(boxes, geometry), brute_maximal(boxes, geometry)
            width = max((p.col for p in boxes), default=0)
            for r, c in product(range(1, len(s.rows) + 3), range(1, width + 3)):
                p = Point(r, c)
                if p in ins:
                    assert set(add_box(s, p).boxes()) == boxes | {p}, (s, p)
                else:
                    with pytest.raises(LatticeError) as raised:
                        add_box(s, p)
                    assert str(raised.value) == f"{p} is not an insertion point of {s}"
                if p in dels:
                    assert set(remove_box(s, p).boxes()) == boxes - {p}, (s, p)
                else:
                    with pytest.raises(LatticeError) as raised:
                        remove_box(s, p)
                    assert str(raised.value) == f"{p} is not a deletion point of {s}"

    @given(any_shape)
    def test_add_remove_inverse(self, s):
        for p in insertion_points(s):
            assert remove_box(add_box(s, p), p) == s
        for p in deletion_points(s):
            assert add_box(remove_box(s, p), p) == s

    @given(any_shape)
    def test_covers(self, s):
        for p in insertion_points(s):
            assert covers(add_box(s, p), s)


class TestJoinMeet:
    def test_examples(self):
        assert join(qs(2), qs(1, 1)) == qs(2, 1)
        assert join(qs(3), qs(2)) == qs(3)
        assert join(qs(2, 1), qs(3)) == qs(3, 1)
        assert join(qs(2, 1), empty_shape(Q)) == qs(2, 1)
        assert meet(qs(3, 1), qs(2, 2)) == qs(2, 1)

    def test_geometry_mismatch(self):
        with pytest.raises(LatticeError):
            join(qs(1), os_(1))

    @pytest.mark.parametrize("geometry", [Q, O])
    def test_lattice_laws_exhaustive(self, geometry):
        size = 8 if geometry is O else 8
        shapes = list(shapes_up_to(geometry, size))
        for a, b in product(shapes, repeat=2):
            assert join(a, b) == join(b, a)
        for a in shapes:
            assert join(a, a) == a
        for a, b, c in combinations_with_replacement(shapes, 3):
            assert join(join(a, b), c) == join(a, join(b, c))

    @given(quadrant_shapes, quadrant_shapes)
    def test_join_is_least_upper_bound(self, a, b):
        j = join(a, b)
        assert leq(a, j) and leq(b, j)
        boxes = set(a.boxes()) | set(b.boxes())
        assert set(j.boxes()) == boxes


class TestTranspose:
    def test_examples(self):
        assert transpose(qs(3, 1)) == qs(2, 1, 1)
        assert transpose(qs(2, 2)) == qs(2, 2)
        assert transpose(empty_shape(Q)) == empty_shape(Q)

    def test_rejects_octant(self):
        with pytest.raises(LatticeError):
            transpose(os_(2))

    @given(quadrant_shapes)
    def test_involution(self, s):
        assert transpose(transpose(s)) == s


class TestEnumerationAndSerialization:
    def test_counts(self):
        assert len(shapes_of_size(Q, 10)) == 42
        assert len(shapes_of_size(O, 10)) == 10  # strict partitions of 10
        assert len(shapes_of_size(Q, 0)) == 1

    def test_serialization_round_trip(self):
        for s in shapes_up_to(Q, 6):
            assert parse_shape(format_shape(s), Q) == s
        assert parse_shape("", O) == empty_shape(O)
        assert parse_shape("0", O) == empty_shape(O)
        assert format_shape(qs(5, 3, 3, 1)) == "5,3,3,1"
        with pytest.raises(LatticeError):
            parse_shape("2,x", Q)
