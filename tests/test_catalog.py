from dataclasses import fields

import pytest

from growthkit.catalog import (
    AlgorithmSpec, CatalogError, generate, get_algorithm, list_algorithms,
)
from growthkit.insdiag import Arrow, ColorPair, validate
from growthkit.lattice import Geometry, Point, Shape, empty_shape, shapes_up_to, transpose

Q, O = Geometry.QUADRANT, Geometry.OCTANT

EXPECTED_NAMES = [
    "rs-row", "rs-col", "left-right", "mclarnan-fairy", "jitter", "sagan1",
    "worley-sagan", "mixed", "double-circle", "shifted-mixed",
    "shifted-column", "dual-shifted-column",
]


class TestRegistry:
    def test_exactly_twelve(self):
        assert sorted(list_algorithms()) == sorted(EXPECTED_NAMES)

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            get_algorithm("rsk")

    def test_letters_are_the_only_display_setting(self):
        assert [f.name for f in fields(AlgorithmSpec) if f.init] == [
            "name", "instantiation", "rule", "description", "letters"]
        assert {name: alg.letters for name, alg in list_algorithms().items()
                if alg.letters != "UC"} == {"sagan1": "BR", "worley-sagan": "BR"}

    def test_geometry_mismatch(self):
        with pytest.raises(CatalogError):
            generate("rs-row", Shape(O, (2,)))
        with pytest.raises(CatalogError):
            generate("sagan1", Shape(Q, (2,)))


def arrows_of(name, shape):
    return generate(name, shape).arrows


def bump_map(arrows):
    return {a.key: (a.target, a.out) for a in arrows if not isinstance(a.key, int)}


def alpha_map(arrows):
    return {a.key: (a.target, a.out) for a in arrows if isinstance(a.key, int)}


class TestTranscriptions:
    def test_rs_row_on_5331(self):
        arrows = arrows_of("rs-row", Shape(Q, (5, 3, 3, 1)))
        assert alpha_map(arrows) == {1: (Point(1, 6), ColorPair(1, 1))}
        assert {p: t for (p, _), (t, _) in bump_map(arrows).items()} == {
            Point(1, 5): Point(2, 4),
            Point(3, 3): Point(4, 2),
            Point(4, 1): Point(5, 1),
        }

    def test_worley_on_empty(self):
        arrows = arrows_of("worley-sagan", empty_shape(O))
        assert alpha_map(arrows) == {1: (Point(1, 1), ColorPair(1, 1))}
        assert len(arrows) == 1

    def test_double_circle_on_one_box(self):
        arrows = arrows_of("double-circle", Shape(Q, (1,)))
        assert alpha_map(arrows) == {
            1: (Point(1, 2), ColorPair(1, 1)),
            4: (Point(1, 2), ColorPair(2, 2)),
            3: (Point(2, 1), ColorPair(1, 2)),
            2: (Point(2, 1), ColorPair(2, 1)),
        }
        assert bump_map(arrows) == {
            (Point(1, 1), ColorPair(1, 1)): (Point(2, 1), ColorPair(1, 1)),
            (Point(1, 1), ColorPair(2, 2)): (Point(2, 1), ColorPair(2, 2)),
            (Point(1, 1), ColorPair(1, 2)): (Point(1, 2), ColorPair(1, 2)),
            (Point(1, 1), ColorPair(2, 1)): (Point(1, 2), ColorPair(2, 1)),
        }

    def test_sagan1_template_last_part_one(self):
        # fig (a): diagonal deletion returns to row 1 as red
        arrows = arrows_of("sagan1", Shape(O, (3, 1)))
        bumps = bump_map(arrows)
        assert bumps[Point(2, 2), ColorPair(1, 1)] == (Point(1, 4), ColorPair(1, 2))
        assert bumps[Point(1, 3), ColorPair(1, 1)] == (Point(2, 3), ColorPair(1, 1))
        assert bumps[Point(1, 3), ColorPair(1, 2)] == (Point(2, 3), ColorPair(1, 2))

    def test_sagan1_template_last_part_greater(self):
        # fig (b): blue into the new diagonal box, red back to row 1
        arrows = arrows_of("sagan1", Shape(O, (2,)))
        bumps = bump_map(arrows)
        assert bumps[Point(1, 2), ColorPair(1, 1)] == (Point(2, 2), ColorPair(1, 1))
        assert bumps[Point(1, 2), ColorPair(1, 2)] == (Point(1, 3), ColorPair(1, 2))

    def test_worley_red_moves_east(self):
        arrows = arrows_of("worley-sagan", Shape(O, (3, 1)))
        bumps = bump_map(arrows)
        assert bumps[Point(2, 2), ColorPair(1, 1)] == (Point(2, 3), ColorPair(1, 2))
        assert bumps[Point(1, 3), ColorPair(1, 2)] == (Point(1, 4), ColorPair(1, 2))
        assert bumps[Point(1, 3), ColorPair(1, 1)] == (Point(2, 3), ColorPair(1, 1))

    def test_shifted_mixed_diagonal_acquires_circle(self):
        arrows = arrows_of("shifted-mixed", Shape(O, (3, 1)))
        bumps = bump_map(arrows)
        assert bumps[Point(2, 2), ColorPair(1, 1)] == (Point(2, 3), ColorPair(2, 1))

    def test_shifted_column_alpha_southwest(self):
        # last part = 1: alpha enters the southwest-most column, circled
        arrows = arrows_of("shifted-column", Shape(O, (3, 1)))
        assert alpha_map(arrows) == {1: (Point(2, 3), ColorPair(2, 1))}
        bumps = bump_map(arrows)
        assert bumps[Point(2, 2), ColorPair(1, 1)] == (Point(2, 3), ColorPair(1, 1))
        # last part > 1: alpha enters the new diagonal box, uncircled
        arrows = arrows_of("shifted-column", Shape(O, (2,)))
        assert alpha_map(arrows) == {1: (Point(2, 2), ColorPair(1, 1))}

    def test_mclarnan_reverses_order(self):
        arrows = arrows_of("mclarnan-fairy", Shape(Q, (5, 3, 3, 1)))
        assert alpha_map(arrows)[1][0] == Point(1, 6)
        assert {p: t for (p, _), (t, _) in bump_map(arrows).items()} == {
            Point(1, 5): Point(5, 1),
            Point(3, 3): Point(4, 2),
            Point(4, 1): Point(2, 4),
        }


class TestStructuralRelations:
    def test_all_diagrams_validate_to_size_10(self):
        for name, alg in list_algorithms().items():
            for s in shapes_up_to(alg.geometry, 10):
                report = validate(alg.instantiation, alg.diagram(s))
                assert report.ok, f"{name} on {s}: {report}"

    def test_rs_col_is_transpose_of_rs_row(self):
        for s in shapes_up_to(Q, 10):
            row = generate("rs-row", transpose(s))
            col = generate("rs-col", s)
            transposed = set()
            for a in row.arrows:
                key = a.key if isinstance(a.key, int) else (a.key[0].transpose(), a.key[1])
                transposed.add(Arrow(key, a.target.transpose(), a.out))
            assert col.arrows == transposed, s

    def test_jitter_and_left_right_share_geometry(self):
        for s in shapes_up_to(Q, 8):
            strip = lambda arrows: {
                (a.key if isinstance(a.key, int) else a.key[0], a.target) for a in arrows}
            assert strip(arrows_of("jitter", s)) == strip(arrows_of("left-right", s))

    def test_shifted_column_duals_swap_channels(self):
        flip = lambda pair: ColorPair(pair.g2, pair.g1)
        for s in shapes_up_to(O, 8):
            sc = arrows_of("shifted-column", s)
            dual = arrows_of("dual-shifted-column", s)
            swapped = set()
            for a in sc:
                key = a.key if isinstance(a.key, int) else (a.key[0], flip(a.key[1]))
                swapped.add(Arrow(key, a.target, flip(a.out)))
            assert dual == swapped, s
