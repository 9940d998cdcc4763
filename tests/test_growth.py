import dataclasses
import random
from types import SimpleNamespace

import pytest

from growthkit import lattice
from growthkit.catalog import AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.growth import (
    ColoredTableau, GeneralizedPermutation, GrowthDiagram, GrowthError, border_column,
    grow_column, extract_P, extract_Q, invert_growth, restrict, run_growth, shape_moves,
)
from growthkit.insdiag import ColorPair, color_pair, diagram
from growthkit.lattice import Geometry, Point, Shape, added_box, empty_shape
from growthkit.oracle import _box, _Steps, _Table
from growthkit.render import parse_gp, parse_tableau
from figures import FIGURES
from catalog_reference import rule_of
from growth_reference import alpha, cell_forward, cell_inverse, check_by_covers, fold_growth
from oracle_reference import enumerate_gps

Q, O = Geometry.QUADRANT, Geometry.OCTANT
E = empty_shape(Q)
RS = get_algorithm("rs-row")


def gp_of(alg, text):
    return parse_gp(text, alg.r)


class TestGeneralizedPermutation:
    def test_rejects_repeats(self):
        with pytest.raises(GrowthError):
            GeneralizedPermutation(3, 3, frozenset({(1, 1, 1), (1, 2, 1)}))
        with pytest.raises(GrowthError):
            GeneralizedPermutation(3, 3, frozenset({(1, 1, 1), (2, 1, 1)}))

    def test_rejects_out_of_grid(self):
        with pytest.raises(GrowthError):
            GeneralizedPermutation(2, 2, frozenset({(3, 1, 1)}))

    def test_inverse_is_involution(self):
        gp = gp_of(RS, "2 3 4 1")
        assert gp.inverse().inverse() == gp
        assert gp.inverse() == gp_of(RS, "4 1 2 3")

    def test_compact_with_skip(self):
        gp = parse_gp("1 3 2 _ 4o", r=2)
        assert gp.n == 4 and gp.m == 5
        assert alpha(gp, 4, 5) == 2 and alpha(gp, 2, 4) == 0


class TestColoredTableau:
    def test_rejects_non_increasing(self):
        with pytest.raises(GrowthError):
            ColoredTableau(Shape(Q, (2,)), ((Point(1, 1), 2, 1), (Point(1, 2), 1, 1)))

    def test_rejects_wrong_boxes(self):
        with pytest.raises(GrowthError):
            ColoredTableau(Shape(Q, (2,)), ((Point(1, 1), 1, 1), (Point(2, 1), 2, 1)))

    @pytest.mark.parametrize("cells, message", [
        (((Point(1, 1), 1, 1), (Point(1, 2), 1, 1)), "tableau values must be distinct"),
        (((Point(1, 1), 1, 1), (Point(1, 2), 2, 0)), "tableau colors must be >= 1"),
    ], ids=["repeated-value", "color-0"])
    def test_rejects_repeated_values_and_colors_below_1(self, cells, message):
        with pytest.raises(GrowthError, match=f"^{message}$"):
            ColoredTableau(Shape(Q, (2,)), cells)

    def test_standard_flag(self):
        t = parse_tableau("1 3 4\n2", Q)
        assert t.is_standard()
        gappy = ColoredTableau(Shape(Q, (2,)), ((Point(1, 1), 1, 1), (Point(1, 2), 5, 1)))
        assert not gappy.is_standard()

    def test_color_bounds(self):
        inst = RS.instantiation
        t = parse_tableau("1 2o", Q)
        with pytest.raises(GrowthError):
            t.validate_colors(inst.w2)


class TestCellForward:
    def test_idle_cell(self):
        assert cell_forward(RS, E, E, E, None, 0) == (E, None)

    def test_copy_from_south(self):
        t, x = Shape(Q, (1,)), Shape(Q, (2,))
        z, b = cell_forward(RS, t, x, t, None, 0)
        assert z == x and b is None

    def test_copy_from_west(self):
        t, y = Shape(Q, (1,)), Shape(Q, (2,))
        z, b = cell_forward(RS, t, t, y, ColorPair(None, 1), 0)
        assert z == y and b == ColorPair(None, 1)

    def test_bump_case(self):
        one = Shape(Q, (1,))
        z, b = cell_forward(RS, E, one, one, ColorPair(1, 1), 0)
        assert z == Shape(Q, (1, 1)) and b == ColorPair(1, 1)

    def test_join_case(self):
        t, x, y = Shape(Q, (2,)), Shape(Q, (3,)), Shape(Q, (2, 1))
        z, b = cell_forward(RS, t, x, y, ColorPair(1, 1), 0)
        assert z == Shape(Q, (3, 1)) and b == ColorPair(1, 1)

    def test_insert_case(self):
        z, b = cell_forward(RS, E, E, E, None, 1)
        assert z == Shape(Q, (1,)) and b == ColorPair(1, 1)

    def test_alpha_outside_x_case_rejected(self):
        t, x = E, Shape(Q, (1,))
        with pytest.raises(GrowthError):
            cell_forward(RS, t, x, t, None, 1)

    def test_alpha_out_of_range(self):
        with pytest.raises(GrowthError):
            cell_forward(RS, E, E, E, None, 2)


class TestCellInverse:
    def test_idle(self):
        assert cell_inverse(RS, E, E, E, None) == (E, None, 0)

    def test_insert_inverse(self):
        one = Shape(Q, (1,))
        assert cell_inverse(RS, E, E, one, ColorPair(1, 1)) == (E, None, 1)

    def test_bump_inverse(self):
        one, col = Shape(Q, (1,)), Shape(Q, (1, 1))
        t, a, alpha = cell_inverse(RS, one, one, col, ColorPair(1, 1))
        assert t == E and a == ColorPair(1, 1) and alpha == 0

    def test_join_inverse_is_meet(self):
        x, y, z = Shape(Q, (2, 1)), Shape(Q, (3,)), Shape(Q, (3, 1))
        t, a, alpha = cell_inverse(RS, x, y, z, ColorPair(1, 1))
        assert t == Shape(Q, (2,)) and alpha == 0

    @pytest.mark.parametrize("name", sorted(list_algorithms()))
    def test_inverts_forward_on_all_cells(self, name):
        alg = get_algorithm(name)
        n = 3 if alg.r == 4 else 4
        for gp in enumerate_gps(n, alg.r):
            g = run_growth(alg, gp)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    x, y, z = g.nodes[i][j - 1], g.nodes[i - 1][j], g.nodes[i][j]
                    b = (ColorPair(g.hcolors[i][j], g.vcolors[i][j])
                         if z != x else None)
                    t, a, got = cell_inverse(alg, x, y, z, b)
                    assert t == g.nodes[i - 1][j - 1]
                    assert got == alpha(gp, i, j)


class TestRunGrowth:
    def test_final_shapes_from_figures(self):
        assert run_growth(RS, gp_of(RS, "2 3 4 1")).final_shape == Shape(Q, (3, 1))
        sg = get_algorithm("sagan1")
        assert run_growth(sg, gp_of(sg, "1 2 5 4 3")).final_shape == Shape(O, (4, 1))
        ws = get_algorithm("worley-sagan")
        assert run_growth(ws, gp_of(ws, "1 2 5 4 3")).final_shape == Shape(O, (3, 2))

    def test_unshifted_figure_nodes(self):
        g = run_growth(RS, gp_of(RS, "2 3 4 1"))
        expected = {  # column i -> node values for j = 0..4
            0: "0 0 0 0 0", 1: "0 0 0 0 1", 2: "0 1 1 1 1,1",
            3: "0 1 2 2 2,1", 4: "0 1 2 3 3,1"}
        for i, text in expected.items():
            got = " ".join(str(g.nodes[i][j]) for j in range(5))
            assert got == text, f"column {i}"

    def test_sagan_figure_nodes_and_colors(self):
        sg = get_algorithm("sagan1")
        g = run_growth(sg, gp_of(sg, "1 2 5 4 3"))
        top = [str(g.nodes[i][5]) for i in range(6)]
        assert top == ["0", "1", "2", "3", "3,1", "4,1"]
        # east edge colors bottom-up: -, B, B, -, R  (B=1, R=2, diagonal -=1)
        assert [g.vcolors[5][j] for j in range(1, 6)] == [1, 1, 1, 1, 2]

    def test_empty_steps_copy_state_east(self):
        gp = parse_gp("1 3 2 _ 4o", r=2)
        lr = get_algorithm("left-right")
        g = run_growth(lr, gp)
        assert g.m == 5
        assert g.nodes[4][4] == g.nodes[4][3]
        assert extract_Q(g).values() == [1, 2, 3, 5]

    def test_color_out_of_range_for_algorithm(self):
        with pytest.raises(GrowthError):
            run_growth(RS, parse_gp("1o 2", r=2))

    def test_broken_generator_error_names_the_cell(self):
        def no_alpha(shape):
            arrows = RS.generator(shape).arrows
            return diagram(shape, [a for a in arrows if not isinstance(a.key, int)])

        broken = AlgorithmSpec("broken", RS.instantiation, rule_of(no_alpha),
                               "rs-row without its alpha arrows")
        with pytest.raises(GrowthError, match=r"^cell \(1,1\): no alpha arrow for color 1"):
            run_growth(broken, gp_of(RS, "1 2"))

    def test_structural_check_passes(self):
        for name, alg in list_algorithms().items():
            g = run_growth(alg, gp_of(alg, "2 1 3"))
            g.check()

    @pytest.mark.parametrize("name", ["rs-row", "sagan1"])
    def test_structural_check_names_the_fault_the_cover_check_names(self, name):
        """Every grid with one node replaced, or one edge's color dropped or
        added, fails check() with the message of the check by oracles.covers."""
        alg = get_algorithm(name)
        g = run_growth(alg, gp_of(alg, "2 1 3"))
        grid = [list(map(list, field)) for field in (g.nodes, g.hcolors, g.vcolors)]

        def verdict(check, k, i, j, value):
            old, grid[k][i][j] = grid[k][i][j], value
            broken = GrowthDiagram(g.n, g.m, *(tuple(map(tuple, f)) for f in grid), g.alphas)
            grid[k][i][j] = old
            try:
                check(broken)
            except GrowthError as e:
                return str(e)
            return None

        faults = set()
        for i in range(g.n + 1):
            for j in range(g.m + 1):
                cases = [(0, s) for s in lattice.shapes_up_to(alg.geometry, 4)]
                cases += [(k, 1 if grid[k][i][j] is None else None) for k in (1, 2)]
                for k, value in cases:
                    want = verdict(check_by_covers, k, i, j, value)
                    assert verdict(GrowthDiagram.check, k, i, j, value) == want
                    faults.add(want)
        assert None in faults and len(faults) > 20


class TestFigureTableaux:
    @pytest.mark.parametrize("case", FIGURES, ids=[c[0] for c in FIGURES])
    def test_figure(self, case):
        _, name, perm, p_text, q_text = case
        alg = get_algorithm(name)
        g = run_growth(alg, gp_of(alg, perm))
        assert extract_P(g) == parse_tableau(p_text, alg.geometry)
        assert extract_Q(g) == parse_tableau(q_text, alg.geometry)

    @pytest.mark.parametrize("case", FIGURES, ids=[c[0] for c in FIGURES])
    def test_figure_inverts(self, case):
        _, name, perm, p_text, q_text = case
        alg = get_algorithm(name)
        gp = gp_of(alg, perm)
        P = parse_tableau(p_text, alg.geometry)
        Q_ = parse_tableau(q_text, alg.geometry)
        assert invert_growth(alg, P, Q_) == gp


class TestExtraction:
    def test_shapes_agree(self):
        for name, alg in list_algorithms().items():
            g = run_growth(alg, gp_of(alg, "3 1 4 2"))
            assert extract_P(g).shape == extract_Q(g).shape == g.final_shape

    def test_standardness_for_full_permutations(self):
        for name, alg in list_algorithms().items():
            g = run_growth(alg, gp_of(alg, "2 4 1 3"))
            assert extract_P(g).is_standard() and extract_Q(g).is_standard()


class TestInvertGrowth:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(GrowthError):
            invert_growth(RS, parse_tableau("1 2", Q), parse_tableau("1\n2", Q))

    def test_rejects_nonstandard(self):
        P = parse_tableau("1 3", Q)
        with pytest.raises(GrowthError):
            invert_growth(RS, P, P)

    def test_rejects_color_out_of_bounds(self):
        P = parse_tableau("1 2", Q)
        Qq = parse_tableau("1 2o", Q)
        with pytest.raises(GrowthError):
            invert_growth(RS, P, Qq)

    @pytest.mark.parametrize("p_geometry,q_geometry", [(O, O), (O, Q), (Q, O)])
    def test_rejects_another_geometry_before_any_unbump(self, p_geometry, q_geometry):
        def unbump(*args):
            raise AssertionError("unbump called")

        alg = AlgorithmSpec("rs-row-no-unbump", RS.instantiation, RS.rule, "")
        alg.unbump = unbump
        P, Qt = parse_tableau("1", p_geometry), parse_tableau("1", q_geometry)
        with pytest.raises(GrowthError) as e:
            invert_growth(alg, P, Qt)
        assert str(e.value) == (f"rs-row-no-unbump runs on the quadrant, but P is on the "
                                f"{p_geometry.value} and Q on the {q_geometry.value}")


class TestRestrict:
    def test_trivial_bounds(self):
        g = run_growth(RS, gp_of(RS, "2 3 4 1"))
        assert restrict(g, g.n) == g
        zero = restrict(g, 0)
        assert all(zero.nodes[0][j].size == 0 for j in range(zero.m + 1))
        with pytest.raises(GrowthError):
            restrict(g, 5)

    def test_paper_example(self):
        g = run_growth(RS, gp_of(RS, "2 3 4 1"))
        sub = restrict(g, 3)
        assert extract_P(sub).shape == Shape(Q, (2, 1))
        # the same P tableau as inserting 2, 3, 1
        direct = run_growth(RS, gp_of(RS, "2 3 1"))
        assert extract_P(sub) == extract_P(direct)

    @pytest.mark.parametrize("name", ["rs-row", "sagan1", "worley-sagan", "mixed"])
    def test_restriction_coherence(self, name):
        alg = get_algorithm(name)
        for gp in enumerate_gps(4, alg.r):
            g = run_growth(alg, gp)
            for i_max in range(5):
                sub = restrict(g, i_max)
                rerun = run_growth(alg, gp.restrict_values(i_max))
                assert sub.nodes == rerun.nodes
                assert extract_P(sub) == extract_P(rerun)


class TestRowLocality:
    def test_recomputing_rows_reproduces_them(self):
        # each row of cells is determined by its south border and its alphas
        for name in ("left-right", "sagan1", "double-circle", "shifted-column"):
            alg = get_algorithm(name)
            gp = gp_of(alg, "3 1 4 2" if alg.r < 4 else "3b 1 4ob 2o")
            g = run_growth(alg, gp)
            for j in range(1, g.m + 1):
                nodes = [g.nodes[i][j - 1] for i in range(g.n + 1)]
                hcols = [g.hcolors[i][j - 1] if i else None for i in range(g.n + 1)]
                north, north_h, east_v = _recompute_row(alg, nodes, hcols, g.alphas, j)
                assert north == [g.nodes[i][j] for i in range(g.n + 1)]
                assert north_h == [g.hcolors[i][j] if i else None for i in range(g.n + 1)]
                assert east_v == [g.vcolors[i][j] for i in range(g.n + 1)]


def _spread(gp, values, times, n, m):
    """gp on an n x m grid, value v moved to values[v - 1] and time j to
    times[j - 1]."""
    return GeneralizedPermutation(
        n, m, frozenset((values[i - 1], times[j - 1], c) for i, j, c in gp.entries))


def _walk_inputs(alg):
    """Every full input of size <= 4 (<= 3 when r = 4), and every smaller
    one spread out so that values are absent and times skipped: columns of
    time 0 and rows of no insertion."""
    top = 3 if alg.r == 4 else 4
    for k in range(top + 1):
        yield from enumerate_gps(k, alg.r)
    for k in range(1, top):
        odd, even = range(1, 2 * k, 2), range(2, 2 * k + 1, 2)
        for gp in enumerate_gps(k, alg.r):
            yield _spread(gp, even, odd, 2 * k + 1, 2 * k)
            yield _spread(gp, odd, even, 2 * k, 2 * k + 1)


def _grid_by_cells(alg, gp):
    """(nodes, hcolors, vcolors) of gp's growth, every cell from the six-case
    rule, row by row from the south border, indexed [i][j]."""
    rows = [([empty_shape(alg.geometry)] * (gp.n + 1), [None] * (gp.n + 1), [None] * (gp.n + 1))]
    for j in range(1, gp.m + 1):
        rows.append(_recompute_row(alg, rows[-1][0], rows[-1][1], gp, j))
    return tuple(tuple(zip(*grid)) for grid in zip(*rows))


def _numbered_leaf(alg, gp):
    """gp's growth as a sweep grows it, over a new table of numbered shapes,
    for any n x m input: its columns, folded by grow_column, P's half of its
    record, the step at each column's top, and Q's, its last column's state
    (``_Table.half``), as the sweep's level read joins them."""
    table, entry_of = _Table(alg), {i: (j, c) for i, j, c in gp.entries}
    columns = [border_column(table.moves, gp.m)]
    for i in range(1, gp.n + 1):
        columns.append(grow_column(table.moves, i, columns[-1], *entry_of.get(i, (0, 0))))
    p = b"".join(table.steps[column[4][-1], column[1][-1]] for column in columns[1:])
    return SimpleNamespace(table=table, columns=columns, p=p, q=table.half(columns[-1]))


def _shape_column(table, column):
    """A sweep's column with its Shapes and Points in place of numbers."""
    point = lambda box: None if box is None else Point(box >> 8, box & 255)
    nodes, hcolors, vcolors, boxes, hboxes = column
    return (tuple(table.shapes[x] for x in nodes), hcolors, vcolors,
            tuple(map(point, boxes)), tuple(map(point, hboxes)))


class TestColumnWalk:
    """grow_column walks value i up column i; cell by cell, the six-case
    rule must give the same grid."""

    @pytest.mark.parametrize("name", sorted(list_algorithms()))
    def test_every_cell_equals_the_cell_rule(self, name):
        alg = get_algorithm(name)
        for gp in _walk_inputs(alg):
            g = fold_growth(alg, gp)
            assert (g.nodes, g.hcolors, g.vcolors) == _grid_by_cells(alg, gp), sorted(gp.entries)

    @pytest.mark.parametrize("name", sorted(list_algorithms()))
    def test_columns_carry_their_boxes_and_records(self, name):
        """boxes[j] is the box added between nodes[j - 1] and nodes[j],
        hboxes[j] the box added between the west column's nodes[j] and
        nodes[j], and the record built from the boxes equals the one built
        from shapes."""
        alg = get_algorithm(name)
        steps = _Steps()

        def chain(shapes, colors):
            return b"".join(steps[_box(added_box(lo, hi)) if lo != hi else None, c]
                            for lo, hi, c in zip(shapes, shapes[1:], colors))

        for gp in _walk_inputs(alg):
            leaf = _numbered_leaf(alg, gp)
            columns, m = [_shape_column(leaf.table, c) for c in leaf.columns], gp.m
            for nodes, _, _, boxes, _ in columns:
                assert boxes == (None,) + tuple(
                    None if lo == hi else added_box(lo, hi) for lo, hi in zip(nodes, nodes[1:]))
            for west, (nodes, _, _, _, hboxes) in zip(columns, columns[1:]):
                assert hboxes == tuple(
                    None if lo == hi else added_box(lo, hi) for lo, hi in zip(west[0], nodes))
            east, _, colors, _, _ = columns[-1]
            record = leaf.p + leaf.q
            assert record[:3 * gp.n] == chain([c[0][m] for c in columns],
                                              [c[1][m] for c in columns[1:]])
            assert record[3 * gp.n:] == chain(east, colors[1:])

    @pytest.mark.parametrize("name", sorted(list_algorithms()))
    def test_a_sweep_column_maps_back_to_the_folds(self, name):
        """A sweep grows its columns over numbered shapes and boxes; mapped
        back, each equals the column the walk grows over Shapes and Points,
        field by field."""
        alg = get_algorithm(name)
        moves = shape_moves(alg)
        for gp in _walk_inputs(alg):
            entry_of = {i: (j, c) for i, j, c in gp.entries}
            fold = [border_column(moves, gp.m)]
            for i in range(1, gp.n + 1):
                fold.append(grow_column(moves, i, fold[-1], *entry_of.get(i, (0, 0))))
            leaf = _numbered_leaf(alg, gp)
            assert [_shape_column(leaf.table, c) for c in leaf.columns] == fold, \
                sorted(gp.entries)

    def test_a_fold_compares_boxes_by_value(self, monkeypatch):
        """Equal points need not be one object: with a new Point from every
        corner read, the grid is the same."""
        rng = random.Random(60)
        values = list(range(1, 61))
        rng.shuffle(values)
        gp = GeneralizedPermutation.from_word([(v, 1) for v in values], n=60)
        want = run_growth(dataclasses.replace(RS), gp)
        monkeypatch.setattr(lattice, "_point", Point)
        assert lattice._point(1, 1) is not lattice._point(1, 1)
        got = run_growth(dataclasses.replace(RS), gp)
        assert (got.nodes, got.hcolors, got.vcolors) == (want.nodes, want.hcolors, want.vcolors)

    @pytest.mark.parametrize("time,color", [(1, 1), (2, 2)],
                             ids=["west-gains-a-box", "color-out-of-range"])
    def test_guards_fail_as_the_cell_rule_does(self, time, color):
        # value 1 entered at time 1, so value 2 cannot enter then
        moves = shape_moves(RS)
        west = grow_column(moves, 1, border_column(moves, 2), 1, 1)
        nodes, _, vcols, _, _ = west
        t, y = nodes[time - 1], nodes[time]
        with pytest.raises(GrowthError) as want:
            cell_forward(RS, t, t, y, color_pair(None, vcols[time]) if y != t else None, color)
        with pytest.raises(GrowthError) as got:
            grow_column(moves, 2, west, time, color)
        assert str(got.value) == f"cell (2,{time}): {want.value}"


def _recompute_row(alg, south_nodes, south_hcols, alphas, j):
    north = [south_nodes[0]]
    north_h = [None]
    east_v = [None]
    for i in range(1, len(south_nodes)):
        t, x, y = south_nodes[i - 1], south_nodes[i], north[i - 1]
        a = ColorPair(south_hcols[i], east_v[i - 1]) if y != t else None
        z, b = cell_forward(alg, t, x, y, a, alpha(alphas, i, j))
        north.append(z)
        east_v.append(b.g2 if b else None)
        if z != y:
            north_h.append(b.g1 if b and b.g1 is not None else south_hcols[i])
        else:
            north_h.append(None)
    return north, north_h, east_v
