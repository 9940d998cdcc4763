"""The event engine against the grid engine.

``run_growth`` and ``invert_growth`` visit only insertion and bump cells.
These tests hold them to the grid engine of ``growth_reference``: the same
P, Q and grid for every input, the same inverse, and the same error naming
the same cell when an insertion diagram is broken.
"""

import random
import tracemalloc

import pytest

from growthkit import growth
from growthkit.catalog import AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.growth import (
    GeneralizedPermutation, GrowthError, extract_P, extract_Q, invert_growth,
    run_growth,
)
from growthkit.insdiag import Arrow, diagram
from growthkit.render import parse_gp
from catalog_reference import rule_of
from growth_reference import fold_growth, invert_grid
from oracle_reference import enumerate_gps

ALGORITHMS = sorted(list_algorithms())


def _agree(alg, gp):
    """run_growth equals the fold on P, Q and the grid; returns its P, Q."""
    g, ref = run_growth(alg, gp), fold_growth(alg, gp)
    P, Q = extract_P(g), extract_Q(g)
    assert (P, Q) == (extract_P(ref), extract_Q(ref))
    assert g.final_shape == ref.final_shape
    assert g == ref
    return P, Q


def _random_gp(rng, n, m, k, r):
    """k entries on an n x m grid: skipped values and empty times."""
    values = rng.sample(range(1, n + 1), k)
    times = rng.sample(range(1, m + 1), k)
    return GeneralizedPermutation(
        n, m, frozenset((i, j, rng.randint(1, r)) for i, j in zip(values, times)))


@pytest.mark.parametrize("name", ALGORITHMS)
def test_exhaustive(name):
    alg = get_algorithm(name)
    for n in range(4 if alg.r == 4 else 5):
        for gp in enumerate_gps(n, alg.r):
            P, Q = _agree(alg, gp)
            assert invert_growth(alg, P, Q) == invert_grid(alg, P, Q) == gp


@pytest.mark.parametrize("name", ALGORITHMS)
def test_random_full_and_partial(name):
    alg = get_algorithm(name)
    rng = random.Random(f"events-{name}")
    for n in (7, 30, 90):
        gp = _random_gp(rng, n, n, n, alg.r)
        P, Q = _agree(alg, gp)
        assert invert_growth(alg, P, Q) == invert_grid(alg, P, Q) == gp
    for n, m, k in ((12, 9, 6), (40, 60, 25), (200, 70, 50)):
        _agree(alg, _random_gp(rng, n, m, k, alg.r))


@pytest.mark.parametrize("name", ["rs-row", "double-circle", "shifted-column"])
def test_random_n200_round_trip(name):
    alg = get_algorithm(name)
    gp = _random_gp(random.Random(f"n200-{name}"), 200, 200, 200, alg.r)
    P, Q = _agree(alg, gp)
    assert invert_growth(alg, P, Q) == invert_grid(alg, P, Q) == gp


# --- broken insertion diagrams ----------------------------------------------

def _broken(base, keep, name="broken"):
    """base with only the arrows keep(shape, arrow) accepts."""
    def generator(shape):
        return diagram(shape, [a for a in base.generator(shape).arrows if keep(shape, a)])
    return AlgorithmSpec(name, base.instantiation, rule_of(generator), f"{base.name}, broken")


def _rewired(base, rewire):
    """base with every bump arrow a replaced by rewire(a)."""
    def generator(shape):
        return diagram(shape, [rewire(a) if isinstance(a.key, tuple) else a
                               for a in base.generator(shape).arrows])
    return AlgorithmSpec("rewired", base.instantiation, rule_of(generator),
                         f"{base.name}, rewired")


def _failure(fn, *args):
    try:
        fn(*args)
    except GrowthError as e:
        return str(e)
    return None


BROKEN = {
    "no-bumps-on-size-2": lambda s, a: not (isinstance(a.key, tuple) and s.size == 2),
    "no-bumps-from-row-1": lambda s, a: not (isinstance(a.key, tuple) and a.key[0].row == 1),
    "no-color-2-bumps": lambda s, a: not (isinstance(a.key, tuple) and a.key[1].g2 == 2),
    "no-alpha-on-size-3": lambda s, a: not (isinstance(a.key, int) and s.size == 3),
}


@pytest.mark.parametrize("base", ["rs-row", "left-right", "sagan1", "mixed"])
@pytest.mark.parametrize("rule", sorted(BROKEN))
def test_broken_forward_names_the_fold_cell(base, rule):
    alg = get_algorithm(base)
    broken = _broken(alg, BROKEN[rule])
    failures = 0
    for n in range(1, 5):
        for gp in enumerate_gps(n, alg.r):
            want = _failure(fold_growth, broken, gp)
            assert _failure(run_growth, broken, gp) == want, gp
            failures += want is not None
    assert failures or rule == "no-color-2-bumps"


@pytest.mark.parametrize("base", ["rs-row", "left-right", "sagan1", "mixed"])
@pytest.mark.parametrize("rule", sorted(BROKEN))
def test_broken_inverse_names_the_reference_cell(base, rule):
    alg = get_algorithm(base)
    broken = _broken(alg, BROKEN[rule])
    failures = 0
    for n in range(1, 5):
        for gp in enumerate_gps(n, alg.r):
            g = run_growth(alg, gp)
            P, Q = extract_P(g), extract_Q(g)
            want = _failure(invert_grid, broken, P, Q)
            assert _failure(invert_growth, broken, P, Q) == want, gp
            failures += want is not None
    assert failures or rule == "no-color-2-bumps"


def test_bad_target_names_the_fold_cell():
    # bumps out of the second row land on their source, not an insertion point
    bad = _rewired(get_algorithm("rs-row"), lambda a: Arrow(
        a.key, a.key[0] if a.key[0].row == 2 else a.target, a.out))
    seen = set()
    for gp in enumerate_gps(4, 1):
        want = _failure(fold_growth, bad, gp)
        assert _failure(run_growth, bad, gp) == want
        seen.add(want is not None)
    assert seen == {True, False}


def test_missing_bump_names_its_cell():
    rs = get_algorithm("rs-row")
    broken = _broken(rs, lambda s, a: not (isinstance(a.key, tuple) and a.key[0].row == 1))
    # rs-row on 2 4 3 1: 3 bumps 4 at time 3, then 1 bumps 2 and 2 bumps 4
    # at time 4.  The fold meets column 2 first, so (2,4) is named, not (4,3).
    with pytest.raises(GrowthError, match=r"^cell \(2,4\): no bump arrow from \(1,1\) <1,1>"):
        run_growth(broken, parse_gp("2 4 3 1", 1))
    # 3 1 2: 1 bumps 3 at time 2, the only bump
    with pytest.raises(GrowthError, match=r"^cell \(3,2\): no bump arrow from \(1,1\) <1,1>"):
        run_growth(broken, parse_gp("3 1 2", 1))


def test_inverse_failure_names_its_cell():
    rs = get_algorithm("rs-row")
    g = run_growth(rs, parse_gp("2 1", 1))
    broken = _broken(rs, lambda s, a: isinstance(a.key, int))
    msg = r"^cell \(2,2\) is outside the image: no arrow into \(2,1\) <1,1>"
    with pytest.raises(GrowthError, match=msg):
        invert_growth(broken, extract_P(g), extract_Q(g))
    with pytest.raises(GrowthError, match=msg):
        invert_grid(broken, extract_P(g), extract_Q(g))


# --- memory and the lazy grid -----------------------------------------------

@pytest.fixture
def columns_grown(monkeypatch):
    """The number of grid columns grown so far."""
    grown = []
    grow = growth.grow_column
    monkeypatch.setattr(growth, "grow_column", lambda *a: grown.append(a[1]) or grow(*a))
    return grown


def test_memory_follows_the_input_length(columns_grown):
    rs = get_algorithm("rs-row")
    gp = parse_gp("99999 1", 1)
    tracemalloc.start()
    try:
        g = run_growth(rs, gp)
        P, Q = extract_P(g), extract_Q(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.final_shape.rows == (1, 1) and P.values() == [1, 99999]
    assert Q.values() == [1, 2] and columns_grown == []


def test_grid_is_built_once_when_read(columns_grown):
    alg = get_algorithm("left-right")
    gp = parse_gp("6o 4o 7 5 2 3 1o", 2)
    g = run_growth(alg, gp)
    extract_P(g), extract_Q(g), g.final_shape
    assert columns_grown == []
    ref = fold_growth(alg, gp)
    columns_grown.clear()
    assert g.nodes[3][4] == ref.nodes[3][4] and columns_grown == list(range(1, 8))
    assert (g.nodes, g.hcolors, g.vcolors) == (ref.nodes, ref.hcolors, ref.vcolors)
    assert columns_grown == list(range(1, 8))
    # equality reads the grids: jitter grows other colors from the same input
    assert g != run_growth(get_algorithm("jitter"), gp)
