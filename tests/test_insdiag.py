from dataclasses import fields
from pathlib import Path

import pytest

from growthkit.catalog import AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.insdiag import (
    Arrow, ColorPair, DiagramError, alpha_arrow, bump_arrow, diagram, format_diagram,
    parse_diagram, validate,
)
from growthkit.lattice import (
    Geometry, Point, Shape, deletion_points, empty_shape, format_shape,
    insertion_points, shapes_up_to,
)
from catalog_reference import SearchRule

Q, O = Geometry.QUADRANT, Geometry.OCTANT
GOLDEN = Path(__file__).parent / "golden"


class TestValidate:
    def test_rs_row_on_paper_shape(self):
        alg = get_algorithm("rs-row")
        shape = Shape(Q, (5, 3, 3, 1))
        assert validate(alg.instantiation, alg.diagram(shape)).ok

    def test_sagan1_on_3_1(self):
        alg = get_algorithm("sagan1")
        assert validate(alg.instantiation, alg.diagram(Shape(O, (3, 1)))).ok

    def test_missing_alpha_fails_first_constraint(self):
        alg = get_algorithm("rs-row")
        d = alg.diagram(Shape(Q, (2, 1)))
        broken = diagram(d.shape, [a for a in d.arrows if not isinstance(a.key, int)])
        report = validate(alg.instantiation, broken)
        assert not report.ok
        assert any("alpha" in f for f in report.failures)

    def test_wrong_target_fails(self):
        shape = empty_shape(Q)
        d = diagram(shape, [alpha_arrow(1, Point(2, 2), 1, 1)])
        report = validate(get_algorithm("rs-row").instantiation, d)
        assert not report.ok

    def test_duplicate_out_pair_fails(self):
        lr = get_algorithm("left-right")
        d = diagram(empty_shape(Q), [alpha_arrow(1, Point(1, 1), 1, 1),
                                     alpha_arrow(2, Point(1, 1), 1, 1)])
        report = validate(lr.instantiation, d)
        assert not report.ok

    def test_counting_identity(self):
        # arrows into insertion points = arrows out of deletion points + r
        for name, alg in list_algorithms().items():
            inst = alg.instantiation
            for s in shapes_up_to(alg.geometry, 6):
                ins_total = sum(inst.w1(q) * inst.w2(q) for q in insertion_points(s))
                del_total = sum(inst.w1(p) * inst.w2(p) for p in deletion_points(s))
                assert ins_total == del_total + inst.r, (name, s)
                assert len(alg.diagram(s).arrows) == ins_total


class TestPsiEvaluation:
    """psi, the diagram's bijection, one arrow at a time: ``arrow`` gives
    the box the arrow of a key fills, ``follow`` the shape it grows."""

    def test_insert_rs_row(self):
        alg = get_algorithm("rs-row")
        assert alg.arrow(Shape(Q, (3,)), 1) == (Point(1, 4), ColorPair(1, 1))

    def test_insert_sagan_empty(self):
        alg = get_algorithm("sagan1")
        assert alg.arrow(empty_shape(O), 1) == (Point(1, 1), ColorPair(1, 1))

    def test_insert_left_right_circled(self):
        alg = get_algorithm("left-right")
        assert alg.arrow(Shape(Q, (2, 2)), 2) == (Point(3, 1), ColorPair(1, 2))

    def test_bump_rs_row_goes_south(self):
        alg = get_algorithm("rs-row")
        box, out = alg.arrow(Shape(Q, (3,)), (Point(1, 3), ColorPair(1, 1)))
        assert box == Point(2, 1)

    def test_bump_sagan_diagonal_returns_red(self):
        alg = get_algorithm("sagan1")
        got = alg.arrow(Shape(O, (3, 1)), (Point(2, 2), ColorPair(1, 1)))
        assert got == (Point(1, 4), ColorPair(1, 2))

    def test_bump_worley_diagonal_goes_east(self):
        alg = get_algorithm("worley-sagan")
        got = alg.arrow(Shape(O, (3, 1)), (Point(2, 2), ColorPair(1, 1)))
        assert got == (Point(2, 3), ColorPair(1, 2))

    def test_invalid_color_raises(self):
        alg = get_algorithm("rs-row")
        with pytest.raises(DiagramError):
            alg.arrow(empty_shape(Q), 2)
        with pytest.raises(DiagramError):
            alg.arrow(Shape(Q, (1,)), (Point(1, 1), ColorPair(1, 2)))

    def test_each_arrow_grows_its_shape_once(self):
        alg = get_algorithm("left-right")
        shape = Shape(Q, (3, 1))
        for _ in range(3):
            assert alg.follow(shape, 2) == (Shape(Q, (3, 1, 1)), ColorPair(1, 2), Point(3, 1))
            assert alg.follow(shape, (Point(2, 1), ColorPair(1, 1))) == (
                Shape(Q, (3, 1, 1)), ColorPair(1, 1), Point(3, 1))

    def test_target_off_the_insertion_points_raises_at_its_lookup(self):
        moves = {1: (Point(2, 1), ColorPair(1, 1)), 2: (Point(2, 2), ColorPair(1, 1))}
        lr = get_algorithm("left-right")
        alg = AlgorithmSpec("off", lr.instantiation,
                            SearchRule(lambda s, key: moves.get(key)), "")
        shape = Shape(Q, (1,))
        assert alg.follow(shape, 1) == (Shape(Q, (1, 1)), ColorPair(1, 1), Point(2, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^\(2,2\) is not an insertion point of 1$"):
                alg.follow(shape, 2)


class TestPsiInverse:
    def test_inverts_insert(self):
        alg = get_algorithm("rs-row")
        assert alg.unbump(Shape(Q, (3,)), Point(1, 4), ColorPair(1, 1)) == 1

    def test_inverts_bump(self):
        alg = get_algorithm("rs-row")
        assert (alg.unbump(Shape(Q, (3, 1)), Point(2, 2), ColorPair(1, 1))
                == (Point(1, 3), ColorPair(1, 1)))

    def test_sagan_red_inverse(self):
        alg = get_algorithm("sagan1")
        assert (alg.unbump(Shape(O, (3, 1)), Point(1, 4), ColorPair(1, 2))
                == (Point(2, 2), ColorPair(1, 1)))

    @pytest.mark.parametrize("name", sorted(list_algorithms()))
    def test_round_trip_exhaustive(self, name):
        alg = get_algorithm(name)
        inst = alg.instantiation
        for s in shapes_up_to(alg.geometry, 8):
            for c in range(1, inst.r + 1):
                q, out = alg.arrow(s, c)
                assert alg.unbump(s, q, out) == c
            for p in deletion_points(s):
                for g1 in range(1, inst.w1(p) + 1):
                    for g2 in range(1, inst.w2(p) + 1):
                        pair = ColorPair(g1, g2)
                        q, out = alg.arrow(s, (p, pair))
                        assert alg.unbump(s, q, out) == (p, pair)


def catalog_diagrams_text(max_size: int = 3) -> str:
    """Every catalog algorithm's diagram of every shape up to max_size, in
    the text format, each under a ``# <algorithm> <shape>`` line."""
    blocks = [f"# {name} {format_shape(s)}\n{format_diagram(alg.diagram(s))}\n"
              for name, alg in sorted(list_algorithms().items())
              for s in shapes_up_to(alg.geometry, max_size)]
    return "\n".join(blocks)


class TestTextFormat:
    def test_catalog_diagrams_match_golden(self):
        # the text itself, line order and spelling, not only what parses back
        assert catalog_diagrams_text() == (GOLDEN / "diagrams-up-to-3.txt").read_text()

    def test_round_trip_catalog(self):
        for name, alg in list_algorithms().items():
            for s in shapes_up_to(alg.geometry, 5):
                d = alg.diagram(s)
                assert parse_diagram(format_diagram(d), s) == d

    def test_parse_with_comments(self):
        text = """
        # Robinson-Schensted on (1)
        alpha 1 -> (1,2) <1,1>
        bump (1,1) <1,1> -> (2,1) <1,1>
        """
        d = parse_diagram(text, Shape(Q, (1,)))
        assert len(d.arrows) == 2
        assert validate(get_algorithm("rs-row").instantiation, d).ok

    def test_parse_error_reports_line(self):
        with pytest.raises(DiagramError, match="line 1"):
            parse_diagram("alpha one -> (1,1) <1,1>", empty_shape(Q))

    def test_arrow_constructor_validation(self):
        with pytest.raises(DiagramError):
            alpha_arrow(1, Point(1, 1), 1, None)
        with pytest.raises(DiagramError):
            bump_arrow(Point(1, 1), None, 1, Point(1, 2), 1, 1)

    def test_an_arrow_is_its_key_and_where_it_lands(self):
        assert [f.name for f in fields(Arrow)] == ["key", "target", "out"]
        a = bump_arrow(Point(1, 2), 1, 2, Point(1, 3), 1, 2)
        assert a == Arrow((Point(1, 2), ColorPair(1, 2)), Point(1, 3), ColorPair(1, 2))
        assert alpha_arrow(2, Point(2, 1), 1, 2) == Arrow(2, Point(2, 1), ColorPair(1, 2))
