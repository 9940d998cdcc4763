"""``lattice.Below``, the corners of a tableau's values below a threshold,
read straight from its rows, against the same reads of the ``Shape`` of
those values and against that shape's brute-force alternation.

The fillings are random standard fillings on both geometries, grown box by
box from the empty shape, with gaps between the values; every threshold u
from below the smallest value to above the largest is read.  The property
has a fixed example budget and a deadline, and runs derandomized, so a run
is reproducible.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from growthkit.growth import _Filling
from growthkit.lattice import Below, Geometry, Point, Shape, add_box, empty_shape, insertion_points
from oracles import brute_alternation, flanks, neighbors

Q, O = Geometry.QUADRANT, Geometry.OCTANT

PROPERTY = settings(max_examples=120, deadline=2000, derandomize=True)


@st.composite
def fillings(draw):
    """(geometry, [(box, value)]): a standard filling with the values 2, 4, ...
    in the order the boxes were added."""
    geometry = draw(st.sampled_from([Q, O]))
    shape, cells = empty_shape(geometry), []
    for k in range(draw(st.integers(0, 30))):
        ins = insertion_points(shape)
        p = ins[draw(st.integers(0, len(ins) - 1))]
        cells.append((p, 2 * k + 2))
        shape = add_box(shape, p)
    return geometry, cells


def _cells(geometry, rows):
    """A standard filling of the shape with these rows, row by row."""
    shape, cells = empty_shape(geometry), []
    for r, length in enumerate(rows, start=1):
        for c in range(length):
            box = Point(r, r + c if geometry is O else 1 + c)
            cells.append((box, 2 * len(cells) + 2))
            shape = add_box(shape, box)
    return geometry, cells


def _shape_below(geometry, cells, u):
    """The shape of the values < u, counted box by box."""
    lengths = Counter(p.row for p, v in cells if v < u)
    return Shape(geometry, [lengths[r] for r in range(1, len(lengths) + 1)])


@PROPERTY
@given(fillings())
@example((Q, []))
@example((O, []))
@example(_cells(O, (3, 2, 1)))
@example(_cells(O, (5, 3, 2, 1)))
@example(_cells(Q, (1, 1, 1, 1)))
@example(_cells(O, (4,)))
def test_below_reads_like_the_shape(filling):
    geometry, cells = filling
    P = _Filling(geometry, [(p, v, 1) for p, v in cells])
    for u in range(0, 2 * len(cells) + 4):
        view, s = Below(geometry, P.rows, u), _shape_below(geometry, cells, u)
        alt = brute_alternation(set(s.boxes()), geometry)
        assert view.rows == s.rows and view.size == s.size and str(view) == str(s)
        assert view.first == s.first == alt[0][1]
        assert view.last == s.last == [p for kind, p in alt if kind == "+"][-1]
        assert view.points() == s.points()
        for p in s.boxes():
            assert neighbors(view, p) == neighbors(s, p), (s, p)
        for q in insertion_points(s):
            assert flanks(view, q) == flanks(s, q), (s, q)
        for i, (_, x) in enumerate(alt):
            assert view.index(x) == s.index(x) == i and view.corner(i) == x, (s, i)
        assert view.corner(-1) is view.corner(len(alt)) is None
        assert view.index(Point(len(s.rows) + 2, 1)) is None
