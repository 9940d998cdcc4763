"""The catalog's local rules against the whole-diagram generators they
replaced (``catalog_reference``).

The diagrams a rule derives must equal the generated ones on every shape up
to size 12, for each algorithm and for the transpose duals of the quadrant
ones; ``unbump`` must invert every arrow of them; and the events that run
and invert through the rules must equal the grid engine of
``growth_reference`` running on the generated diagrams, at n = 400.
"""

import dataclasses
import random

import pytest

from growthkit.catalog import AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.duality import identity, swap_uc, transpose_dual
from growthkit.growth import (
    GeneralizedPermutation, extract_P, extract_Q, invert_growth, run_growth,
)
from growthkit.insdiag import ALPHA, DiagramError, color_pair
from growthkit.lattice import (
    Geometry, Point, insertion_points, shapes_of_size, shapes_up_to,
)
from catalog_reference import GENERATORS, transposed
from growth_reference import fold_growth, invert_grid

ALGORITHMS = sorted(list_algorithms())
QUADRANT = [name for name in ALGORITHMS
            if get_algorithm(name).geometry is Geometry.QUADRANT]
MAX_SIZE = 12


def _reference(name: str) -> AlgorithmSpec:
    """The algorithm given by its generator: whole diagrams, no rule."""
    alg = get_algorithm(name)
    return AlgorithmSpec(name, alg.instantiation, GENERATORS[name], alg.description)


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
        want = a.alpha_color if a.kind == ALPHA else a.source
        assert alg.unbump(shape, a.target, a.out) == want, (shape, str(a))


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


def test_transpose_dual_needs_a_rule():
    with pytest.raises(ValueError, match="has no local rule"):
        transpose_dual(_reference("rs-row"))


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
    calls = []
    diagram = fresh.diagram
    monkeypatch.setattr(fresh, "diagram", lambda shape: calls.append(shape) or diagram(shape))
    rng = random.Random(f"memo-{name}")
    values = list(range(1, 201))
    rng.shuffle(values)
    gp = GeneralizedPermutation.from_word(
        [(v, rng.randint(1, fresh.r)) for v in values], n=200)
    g = run_growth(fresh, gp)
    assert invert_growth(fresh, extract_P(g), extract_Q(g)) == gp
    assert calls == [] and fresh._cache == {}
