"""The catalog's local rules against the whole-diagram generators they
replaced (``catalog_reference``).

The diagrams a rule derives must equal the generated ones on every shape up
to size 12, for each algorithm and for the transpose duals of the quadrant
ones; ``unbump`` must invert every arrow of them; and the events that run
and invert through the rules must equal the grid engine of
``growth_reference`` running on the generated diagrams, at n = 400.  No
run, inversion or sweep builds a whole diagram, no run or inversion
follows a move of the column walk, and a grid fold asks the rule once for
each cell that follows an arrow.  A table rule's inverse by lookup
must return what ``SearchRule.unbump``'s search returns, on shapes and on
rows of values: for the catalog's tables and their transposes, every valid
unshifted-1 table of the sides ``FIRST``, ``LAST``, ``NE`` and ``SW``, and a
fixed sample of unshifted-2 tables.  A round trip at n = 2000 builds no
``Shape`` but the final one, with a table rule or with a ``SearchRule`` of
the same arrows.  ``TableRule`` is the only rule of ``growthkit``;
``SearchRule``, an arrow function that inverts by search, lives in
``catalog_reference`` as the reference for the lookup.  One key, an alpha
color or a deletion point and color pair, picks out an arrow in every layer:
the rule, the column walk's move, the inverse and the text format.
"""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from growthkit.catalog import (
    FIRST, LAST, MIRROR, MIRROR_T, NE, SW, SW_OR_FIRST, AlgorithmSpec, get_algorithm,
    list_algorithms,
)
from growthkit.duality import identity, swap_uc, transpose_dual
from growthkit.growth import (
    ColoredTableau, GeneralizedPermutation, extract_P, extract_Q, invert_growth, run_growth,
)
from growthkit.insdiag import DiagramError, TableRule, color_pair, parse_diagram, validate
from growthkit.lattice import (
    Below, Geometry, Point, Shape, add_box, added_box, deletion_points, insertion_points,
    shapes_of_size, shapes_up_to,
)
from growthkit.oracle import check_bijection
from growthkit.wdgg import BUILTIN_INSTANTIATIONS
from catalog_reference import GENERATORS, SearchRule, rule_of, transposed
from growth_reference import alpha, fold_growth, invert_grid

ALGORITHMS = sorted(list_algorithms())
QUADRANT = [name for name in ALGORITHMS
            if get_algorithm(name).geometry is Geometry.QUADRANT]
MAX_SIZE = 12


def _reference(name: str) -> AlgorithmSpec:
    """The algorithm whose rule reads its generator's whole diagrams."""
    alg = get_algorithm(name)
    return AlgorithmSpec(name, alg.instantiation, rule_of(GENERATORS[name]), alg.description)


def _duals():
    """(name, f, g) of every transpose dual tested: edge colors kept or
    swapped, and alpha colors swapped too where there are two."""
    for name in QUADRANT:
        maps = [(identity, identity), (identity, swap_uc)]
        if get_algorithm(name).r == 2:
            maps += [(swap_uc, identity), (swap_uc, swap_uc)]
        for f, g in maps:
            yield pytest.param(name, f, g, id=f"{name}-{f.__name__}-{g.__name__}")


def _inverts_every_arrow(alg, shape):
    d = alg.diagram(shape)
    assert d.arrows, shape
    for a in d.arrows:
        assert alg.unbump(shape, a.target, a.out) == a.key, (shape, str(a))


@pytest.mark.parametrize("name", ALGORITHMS)
def test_rule_derives_the_generated_diagrams(name):
    alg = get_algorithm(name)
    for shape in shapes_up_to(alg.geometry, MAX_SIZE):
        assert alg.generator(shape).arrows == GENERATORS[name](shape).arrows, shape
        _inverts_every_arrow(alg, shape)


@pytest.mark.parametrize("name,f,g", _duals())
def test_transposed_rule_derives_the_transposed_diagrams(name, f, g):
    alg = get_algorithm(name)
    dual = transpose_dual(alg, f, g)
    want = transposed(GENERATORS[name], alg.instantiation, f, g)
    for shape in shapes_up_to(alg.geometry, MAX_SIZE):
        assert dual.generator(shape).arrows == want(shape).arrows, shape
        _inverts_every_arrow(dual, shape)


@pytest.mark.parametrize("name", ["rs-row", "double-circle", "sagan1", "mclarnan-fairy"])
def test_unbump_outside_the_image_names_the_arrow(name):
    alg = get_algorithm(name)
    shape = shapes_of_size(alg.geometry, 6)[1]
    far = Point(len(shape.rows) + 3, 1)   # not an insertion point, nor is (1,1)
    for q, out in ((far, color_pair(1, 1)), (Point(1, 1), color_pair(1, 1)),
                   (insertion_points(shape)[0], color_pair(3, 1))):
        with pytest.raises(DiagramError, match=rf"^no arrow into \({q.row},{q.col}\) "):
            alg.unbump(shape, q, out)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_n400_round_trip_equals_the_grid_engine(name):
    # mclarnan-fairy and sagan1 bump to boxes that are not next to the
    # source, so their inverse needs unbump's search beyond the neighbors
    alg, ref = get_algorithm(name), _reference(name)
    rng = random.Random(f"rules-{name}")
    values = list(range(1, 401))
    rng.shuffle(values)
    gp = GeneralizedPermutation.from_word(
        [(v, rng.randint(1, alg.r)) for v in values], n=400)
    g, fold = run_growth(alg, gp), fold_growth(ref, gp)
    P, Q = extract_P(g), extract_Q(g)
    assert (P, Q) == (extract_P(fold), extract_Q(fold))
    assert invert_growth(alg, P, Q) == invert_grid(ref, P, Q) == gp


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_and_invert_build_no_diagram(name, monkeypatch):
    fresh = dataclasses.replace(get_algorithm(name))
    calls, follows = [], []
    diagram, follow = fresh.diagram, fresh.follow
    monkeypatch.setattr(fresh, "diagram", lambda shape: calls.append(shape) or diagram(shape))
    monkeypatch.setattr(fresh, "follow",
                        lambda shape, key: follows.append(shape) or follow(shape, key))
    rng = random.Random(f"memo-{name}")
    values = list(range(1, 201))
    rng.shuffle(values)
    gp = GeneralizedPermutation.from_word(
        [(v, rng.randint(1, fresh.r)) for v in values], n=200)
    g = run_growth(fresh, gp)
    assert invert_growth(fresh, extract_P(g), extract_Q(g)) == gp
    assert calls == [] and follows == []


def _asking(alg):
    """A copy of alg whose rule counts the arrows it is asked for by
    (shape, key): the key an alpha color or (p, pair)."""
    asked, rule = Counter(), alg.rule

    def arrow(shape, key):
        asked[shape, key] += 1
        return rule.arrow(shape, key)

    return dataclasses.replace(alg, rule=SearchRule(arrow)), asked


def _followed(g):
    """How often g's grid follows each arrow: (x, alpha color) once per
    insertion cell and (x, (p, pair)) once per bump cell, x the cell's
    southeast corner."""
    out = Counter()
    for i in range(1, g.n + 1):
        for j in range(1, g.m + 1):
            t, x, y = g.nodes[i - 1][j - 1], g.nodes[i][j - 1], g.nodes[i - 1][j]
            c = alpha(g.alphas, i, j)
            if c:
                out[x, c] += 1
            elif x == y != t:
                pair = color_pair(g.hcolors[i][j - 1], g.vcolors[i - 1][j])
                out[x, (added_box(t, x), pair)] += 1
    return out


@pytest.mark.parametrize("name", ["rs-row", "double-circle", "sagan1", "mclarnan-fairy"])
def test_cold_fold_asks_once_per_arrow_followed(name):
    alg, asked = _asking(get_algorithm(name))
    rng = random.Random(f"fold-{name}")
    values = list(range(1, 41))
    rng.shuffle(values)
    gp = GeneralizedPermutation.from_word(
        [(v, rng.randint(1, alg.r)) for v in values], n=40)
    g = fold_growth(alg, gp)
    assert asked == _followed(g)


def test_check_bijection_builds_no_diagram(monkeypatch):
    calls = []
    generator = AlgorithmSpec.generator
    monkeypatch.setattr(AlgorithmSpec, "generator",
                        lambda self, shape: calls.append(shape) or generator(self, shape))
    alg = dataclasses.replace(get_algorithm("left-right"))
    assert check_bijection(alg, 4).ok and calls == []


def _algorithms_and_duals():
    """Every catalog algorithm, then every transpose dual of _duals."""
    for name in ALGORITHMS:
        yield pytest.param(get_algorithm(name), id=name)
    for param in _duals():
        name, f, g = param.values
        yield pytest.param(transpose_dual(get_algorithm(name), f, g), id=param.id)


def _row_by_row(shape):
    """The rows of a standard filling of shape, value by value along each row."""
    rows, value = [], 0
    for length in shape.rows:
        rows.append(list(range(value + 1, value + length + 1)))
        value += length
    return rows


@pytest.mark.parametrize("alg", _algorithms_and_duals())
def test_table_inverse_is_the_search(alg):
    # pairs up to <3,3> lie outside every weight grid, whose weights are <= 2
    rule, inst = alg.rule, alg.instantiation
    pairs = [color_pair(a, b) for a in range(1, 4) for b in range(1, 4)]
    for shape in shapes_up_to(alg.geometry, 8):
        view = Below(alg.geometry, _row_by_row(shape), shape.size + 1)
        for q in insertion_points(shape):
            for out in pairs:
                want = SearchRule.unbump(rule, inst, shape, q, out)
                assert rule.unbump(inst, shape, q, out) == want, (shape, q, out)
                assert rule.unbump(inst, view, q, out) == want, (shape, q, out)


PAIRS = [color_pair(a, b) for a in range(1, 4) for b in range(1, 4)]
SIDES = (FIRST, LAST, NE, SW, MIRROR, MIRROR_T, SW_OR_FIRST)


def _around(shape):
    """Every point in rows 1..k + 2 and columns 1..(the first row's end + 2),
    k the number of rows: every corner, and the points off them nearby."""
    k = len(shape.rows)
    width = (shape.row_end(1) if k else 0) + 2
    return [Point(r, c) for r in range(1, k + 3) for c in range(1, width + 1)]


@pytest.mark.parametrize("geometry", list(Geometry), ids=str)
def test_each_side_sources_are_exactly_what_it_sends_to_the_point(geometry):
    # a side lands a bump only from a deletion point, and its sources are
    # the deletion points it sends to q, for every point q, in the order of
    # deletion_points, on shapes and on rows of values
    for shape in shapes_up_to(geometry, 8):
        dels = deletion_points(shape)
        view = Below(geometry, _row_by_row(shape), shape.size + 1)
        points = _around(shape)
        for side in SIDES:
            lands = {p: side(shape, p) for p in points}
            assert {p for p, q in lands.items() if q is not None} <= set(dels), (side, shape)
            for q in points:
                want = [p for p in dels if lands[p] == q]
                assert side.sources(shape, q) == want, (side.__name__, shape, q)
                assert side.sources(view, q) == want, (side.__name__, shape, q)


@pytest.mark.parametrize("alg", _algorithms_and_duals())
def test_table_inverse_is_the_search_off_the_insertion_points(alg):
    # every point near the shape, not only its insertion points: a lookup
    # that dropped the forward check without exact sources fails here
    rule, inst = alg.rule, alg.instantiation
    for shape in shapes_up_to(alg.geometry, 5):
        view = Below(alg.geometry, _row_by_row(shape), shape.size + 1)
        for q in _around(shape):
            for out in PAIRS:
                want = SearchRule.unbump(rule, inst, shape, q, out)
                assert rule.unbump(inst, shape, q, out) == want, (shape, q, out)
                assert rule.unbump(inst, view, q, out) == want, (shape, q, out)


@pytest.mark.parametrize("alg", _algorithms_and_duals())
def test_an_off_diagonal_bump_inverts_without_a_forward_call(alg, monkeypatch):
    shapes = list(shapes_up_to(alg.geometry, 6))
    bumps = [(shape, a) for shape in shapes for a in alg.generator(shape).arrows
             if a.key.__class__ is not int and not a.key[0].diagonal]
    calls, arrow = [], TableRule.arrow
    monkeypatch.setattr(TableRule, "arrow",
                        lambda self, shape, key: calls.append(key) or arrow(self, shape, key))
    for shape, a in bumps:
        assert alg.unbump(shape, a.target, a.out) == a.key, (shape, str(a))
        assert calls == [], (shape, str(a))


@pytest.mark.parametrize("name", ALGORITHMS)
def test_a_swapped_and_recolored_pair_inverts(name):
    # (Q, P) of a run, every box recolored 1, is a pair the run did not
    # give: it must invert, and its input must run back to it
    alg, rng = get_algorithm(name), random.Random(f"swap-{name}")
    values = list(range(1, 301))
    rng.shuffle(values)
    g = run_growth(alg, GeneralizedPermutation.from_word(
        [(v, rng.randint(1, alg.r)) for v in values], n=300))
    P, Q = (ColoredTableau(t.shape, tuple((p, v, 1) for p, v, _ in t.cells))
            for t in (extract_Q(g), extract_P(g)))
    back = run_growth(alg, invert_growth(alg, P, Q))
    assert (extract_P(back), extract_Q(back)) == (P, Q)


@pytest.mark.parametrize("alg", _algorithms_and_duals())
def test_one_key_across_the_layers(alg):
    # an arrow's key gives it back from the rule, the column walk's move
    # and the inverse, and its line of the text format parses back to it
    for shape in shapes_up_to(alg.geometry, 6):
        for a in alg.generator(shape).arrows:
            assert alg.arrow(shape, a.key) == (a.target, a.out), (shape, str(a))
            assert alg.follow(shape, a.key) == (add_box(shape, a.target), a.out, a.target)
            assert alg.unbump(shape, a.target, a.out) == a.key, (shape, str(a))
            assert parse_diagram(str(a), shape).arrows == {a}, (shape, str(a))


ALPHA_SIDES, BUMP_SIDES = (FIRST, LAST), (FIRST, LAST, NE, SW)  # NE, SW read a bump's p
UNSHIFTED_1, UNSHIFTED_2 = (BUILTIN_INSTANTIATIONS[name]
                            for name in ("unshifted-1", "unshifted-2"))


def _lookup_is_the_search(rule, inst, max_size=6):
    """Whether rule's diagrams validate on every shape up to max_size.  If
    they do, its lookup must equal SearchRule's search on those shapes, for
    every (q, out) with out up to <3,3>, on the Shape and on a Below view."""
    spec = AlgorithmSpec("table", inst, rule, "")
    shapes = list(shapes_up_to(inst.geometry, max_size))
    if not all(validate(inst, spec.generator(shape)).ok for shape in shapes):
        return False
    pairs = [color_pair(a, b) for a in range(1, 4) for b in range(1, 4)]
    for shape in shapes:
        view = Below(inst.geometry, _row_by_row(shape), shape.size + 1)
        for q in insertion_points(shape):
            for out in pairs:
                want = SearchRule.unbump(rule, inst, shape, q, out)
                assert rule.unbump(inst, shape, q, out) == want, (rule, shape, q, out)
                assert rule.unbump(inst, view, q, out) == want, (rule, shape, q, out)
    return True


def test_lookup_is_the_search_on_every_unshifted_1_table():
    _11 = color_pair(1, 1)
    valid = [(a, b) for a in ALPHA_SIDES for b in BUMP_SIDES
             if _lookup_is_the_search(TableRule({1: (a, _11), _11: (b, _11)}), UNSHIFTED_1)]
    assert valid == [(FIRST, SW), (LAST, NE)]    # rs-row and rs-col


@pytest.mark.parametrize("transposed", [False, True], ids=["last-first", "first-last"])
def test_first_and_last_bump_sides_invert_on_rectangles(transposed):
    """A rectangle has one deletion point, so entering at the last insertion
    point and bumping to the first (or, transposed, the other way round)
    gives valid diagrams, and only through them do the lookup's
    FIRST.sources and LAST.sources meet a bump."""
    _11 = color_pair(1, 1)
    alg = AlgorithmSpec("last-first", UNSHIFTED_1, TableRule({1: (LAST, _11), _11: (FIRST, _11)}),
                        "")
    if transposed:
        alg = transpose_dual(alg)
    rule, inst = alg.rule, alg.instantiation
    pairs = [color_pair(a, b) for a in range(1, 4) for b in range(1, 4)]
    rectangles = [shape for shape in shapes_up_to(inst.geometry, MAX_SIZE)
                  if len(deletion_points(shape)) == 1]
    assert len(rectangles) == 35    # a x b for each divisor a of each size
    for shape in rectangles:
        assert validate(inst, alg.generator(shape)).ok, shape
        view = Below(inst.geometry, _row_by_row(shape), shape.size + 1)
        for q in insertion_points(shape):
            for out in pairs:
                want = SearchRule.unbump(rule, inst, shape, q, out)
                assert rule.unbump(inst, shape, q, out) == want, (shape, q, out)
                assert rule.unbump(inst, view, q, out) == want, (shape, q, out)


@st.composite
def _unshifted_2_tables(draw):
    """A table on unshifted-2 from the sides above, one of 256.  The two
    alpha arrows, and the two bumps out of a deletion point, take the two out
    colors in some order: every other table fails on the shape (1).  The
    fixed sample of 200 holds 12 of the 16 tables that validate."""
    grid = [color_pair(1, 1), color_pair(1, 2)]
    table = {}
    for keys, sides in (([1, 2], ALPHA_SIDES), (grid, BUMP_SIDES)):
        for key, out in zip(keys, draw(st.permutations(grid))):
            table[key] = (draw(st.sampled_from(sides)), out)
    return TableRule(table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_unshifted_2_tables())
@example(TableRule({1: (FIRST, color_pair(1, 1)), 2: (FIRST, color_pair(1, 2)),
                    color_pair(1, 1): (SW, color_pair(1, 1)),
                    color_pair(1, 2): (SW, color_pair(1, 2))}))   # two row insertions
def test_lookup_is_the_search_on_unshifted_2_tables(rule):
    _lookup_is_the_search(rule, UNSHIFTED_2)


def _shapes_built_by_a_round_trip(alg, monkeypatch):
    """Run and invert one random full input of size 2000 with alg; the
    ``Shape``s built on the way, and the final P."""
    rng = random.Random(f"shapes-{alg.name}")
    values = list(range(1, 2001))
    rng.shuffle(values)
    gp = GeneralizedPermutation.from_word(
        [(v, rng.randint(1, alg.r)) for v in values], n=2000)
    built, init = [], Shape.__init__
    monkeypatch.setattr(Shape, "__init__",
                        lambda self, *args: init(self, *args) or built.append(self))
    g = run_growth(alg, gp)
    P, Q = extract_P(g), extract_Q(g)
    assert invert_growth(alg, P, Q) == gp
    assert P.shape is Q.shape
    return built, P


@pytest.mark.parametrize("name", ALGORITHMS)
def test_n2000_round_trip_builds_only_the_final_shape(name, monkeypatch):
    # events read the corners off P's rows: the one Shape built is the
    # shape of the final P and Q
    built, P = _shapes_built_by_a_round_trip(get_algorithm(name), monkeypatch)
    assert len(built) == 1 and built[0] is P.shape


@pytest.mark.parametrize("name", ["rs-row", "sagan1"])
def test_n2000_round_trip_of_a_rule_that_is_not_a_table(name, monkeypatch):
    # a SearchRule reads the same corners off P's rows, and inverts by search
    alg = get_algorithm(name)
    plain = dataclasses.replace(alg, rule=SearchRule(alg.rule.arrow))
    built, P = _shapes_built_by_a_round_trip(plain, monkeypatch)
    assert len(built) == 1 and built[0] is P.shape
