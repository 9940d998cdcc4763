"""The bytes records of the oracle against the Shape-chain reference:
check_bijection must give the same report, witness texts and all, as the
check keyed by chains of shapes in oracle_reference."""

import sys
import time
import tracemalloc

import pytest

import oracle_reference
from growthkit import oracle
from growthkit.catalog import LEFT_RIGHT, AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.growth import extract_P, extract_Q, run_growth
from growthkit.insdiag import alpha_arrow, bump_arrow, diagram
from growthkit.lattice import (
    Geometry, Point, deletion_points, insertion_points, shapes_of_size,
)
from growthkit.oracle import (
    _box, _pair_order, _pair_text, _Steps, check_bijection, nodes_records, pair_records,
    tableau_records,
)
from growthkit.wdgg import BUILTIN_INSTANTIATIONS, Instantiation, constant_weight
from catalog_reference import rule_of
from oracles import sweep_order_gps
from test_sweep import _color_blind, _overcolored, level_read, reference_halves


def _color_blind_overcolored(shape):
    """Row insertion for both alpha colors with ascending color 2 on a
    weight-1 instantiation: inputs collide, pairs are missed, and every P
    tableau is invalid."""
    ins = insertion_points(shape)
    arrows = [alpha_arrow(1, ins[0], 2, 1), alpha_arrow(2, ins[0], 2, 1)]
    arrows += [bump_arrow(p, 2, 1, ins[k + 1], 2, 1)
               for k, p in enumerate(deletion_points(shape))]
    return diagram(shape, arrows)


def _overcolored_east(shape):
    """Row insertion whose descending color is 2 on every box past column
    1, on a weight-1 instantiation: the invalid outputs, and so the pairs
    missed, come in many shapes."""
    d = lambda p: 2 if p.col > 1 else 1
    ins = insertion_points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, d(ins[0]))]
    arrows += [bump_arrow(p, 1, d(p), ins[k + 1], 1, d(ins[k + 1]))
               for k, p in enumerate(deletion_points(shape))]
    return diagram(shape, arrows)


BROKEN = {
    "color-blind": ("unshifted-2", _color_blind),
    "overcolored": ("unshifted-1", _overcolored),
    "color-blind-overcolored": ("unshifted-2", _color_blind_overcolored),
    "overcolored-east": ("unshifted-1", _overcolored_east),
}


def _broken(name):
    inst, gen = BROKEN[name]
    return AlgorithmSpec(name, BUILTIN_INSTANTIATIONS[inst], rule_of(gen), "broken on purpose")


def _assert_same_reports(alg, sizes):
    for n in sizes:
        want = oracle_reference.check_bijection(alg, n)
        for workers in (1, 2, 3):
            assert check_bijection(alg, n, workers=workers) == want


@pytest.mark.parametrize("name", sorted(list_algorithms()))
def test_catalog_reports_equal_the_reference(name):
    alg = get_algorithm(name)
    _assert_same_reports(alg, range(4 if alg.r == 4 else 5))


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_reports_equal_the_reference(name):
    _assert_same_reports(_broken(name), range(5))


def test_one_broken_algorithm_reaches_every_witness():
    report = check_bijection(_broken("color-blind-overcolored"), 2)
    assert report.failures == (
        "two inputs map to the same (P, Q) pair: gp=[(1, 1, 1), (2, 2, 1)] and "
        "gp=[(1, 1, 1), (2, 2, 2)] both give P=1^2 2^2 Q=1 2",
        "8 same-shape pairs are not reached, e.g. P=1/2 Q=1/2",
        "2 outputs are not valid same-shape pairs, e.g. P=1^2/2^2 Q=1/2 "
        "from gp=[(1, 2, 1), (2, 1, 1)]",
    )


def test_a_graph_that_is_not_dual_fails_the_counting_identity():
    """left-right's table on weights 1 and 1 with r = 2: n! * r^n inputs
    against sum f1*f2 same-shape pairs, and every output whose Q has a
    color 2 is not a valid pair."""
    one = constant_weight(1)
    bad = Instantiation("bad", Geometry.QUADRANT, one, one, r=2)
    alg = AlgorithmSpec("bad", bad, LEFT_RIGHT, "not dual on purpose")
    assert check_bijection(alg, 3).failures == (
        "counting identity fails: sum f1*f2 = 6, n!*r^n = 48",
        "42 outputs are not valid same-shape pairs, e.g. P=1/2/3 Q=1/2/3^2 "
        "from gp=[(1, 2, 1), (2, 1, 1), (3, 3, 2)]",
    )
    _assert_same_reports(alg, range(1, 4))


def test_shards_that_collide_at_once_give_the_serial_report():
    """More workers than cores, each writing its inputs' own slots, many of
    them one pair index: color-blind's inputs that differ only in value 1's
    color collide across shards."""
    alg = _broken("color-blind")
    start = time.monotonic()
    serial = check_bijection(alg, 5)
    assert check_bijection(alg, 5, workers=4) == serial and not serial.ok
    assert time.monotonic() - start < 60


def _counting_sweeps(monkeypatch):
    """The results of each sweep check_bijection makes, in call order:
    every sweep goes through the one function that shards branches."""
    results = []
    real = oracle._sweep_branches

    def sweep(*args):
        got = real(*args)
        results.append(got[1])
        return got

    monkeypatch.setattr(oracle, "_sweep_branches", sweep)
    return results


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_passing_check_sweeps_once(monkeypatch, workers):
    """The forked children write the shared slots too, so a check that
    passes sweeps once and keeps nothing per input."""
    sweeps = _counting_sweeps(monkeypatch)
    assert check_bijection(get_algorithm("rs-row"), 6, workers=workers).ok
    assert sweeps == [[]]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BROKEN))
def test_a_failing_check_sweeps_once(monkeypatch, name, workers):
    """A failing check names its witnesses from the slots of its one sweep,
    with no second, ordered sweep."""
    sweeps = _counting_sweeps(monkeypatch)
    assert not check_bijection(_broken(name), 5, workers=workers).ok
    assert len(sweeps) == 1


@pytest.mark.parametrize("name", ["rs-row", *sorted(BROKEN)])
def test_the_sweep_returns_only_the_records_that_are_no_pair(monkeypatch, name):
    """A passing check's sweep returns nothing; a failing one returns the
    records of its inputs that give no valid pair, one per such input, and
    nothing for the inputs whose pair index sits in their slot."""
    sweeps = _counting_sweeps(monkeypatch)
    alg = get_algorithm(name) if name == "rs-row" else _broken(name)
    report = check_bijection(alg, 5)
    records, = sweeps
    inst = alg.instantiation
    pairs = {p + q for shape in shapes_of_size(inst.geometry, 5)
             for p in tableau_records(inst.w1)(shape) for q in tableau_records(inst.w2)(shape)}
    want = [p + q for p, q in reference_halves(alg, 5) if p + q not in pairs]
    assert records == want
    if report.ok:
        assert records == []


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", [*sorted(list_algorithms()), *sorted(BROKEN)])
def test_the_level_read_gives_each_rank_the_sweeps_pair(name, workers):
    """At every rank, the level read's halves are those of the P and Q that
    run_growth grows from the input of that rank, and the duality checks'
    reader joins them into the input's record."""
    alg = _broken(name) if name in BROKEN else get_algorithm(name)
    top = 5 if name in BROKEN else 4 if alg.r == 4 else 6
    for n in range(top + 1):
        want = reference_halves(alg, n)
        assert level_read(alg, [n], workers) == (len(want), want)
        assert oracle._sweep_branches(alg, [n], pair_records, workers) == (
            len(want), [p + q for p, q in want])


@pytest.mark.parametrize("name", ["rs-row", "color-blind"])
def test_check_bijection_builds_no_leaf_and_calls_nothing_per_input(monkeypatch, name):
    """In the sweep, outside the growth of each distinct column step, the
    oracle's Python calls (reading the levels a group at a time) number far
    fewer than the inputs."""
    calls, sweep_branches, grow = [], oracle._sweep_branches, oracle._grow_branch

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == oracle.__file__:
            calls.append(frame.f_code.co_name)

    def profiled(run, on):
        def wrapped(*args):
            sys.setprofile(profile if on else None)
            try:
                return run(*args)
            finally:
                sys.setprofile(None if on else profile)
        return wrapped

    monkeypatch.setattr(oracle, "_sweep_branches", profiled(sweep_branches, True))
    monkeypatch.setattr(oracle, "_grow_branch", profiled(grow, False))
    alg = _broken(name) if name in BROKEN else get_algorithm(name)
    report = check_bijection(alg, 7 if alg.r == 1 else 5)
    assert report.gp_count >= 3840 and report.ok == (name == "rs-row")
    assert calls and len(calls) < report.gp_count / 20, (len(calls), report.gp_count)


def test_a_failing_check_keeps_almost_nothing_per_input():
    """color-blind at n = 6 (46 080 inputs, all but 720 colliding): its one
    sweep's slots are in the shared mapping, outside tracemalloc's count,
    and no index or record is listed per input."""
    alg = _broken("color-blind")
    tracemalloc.start()
    try:
        report = check_bijection(alg, 6)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert not report.ok and report.gp_count == 46080
    assert peak < 1, f"tracemalloc peak {peak:.2f} MB"


def _cells(record):
    """The (row, col, color) of each step of a record half."""
    return [tuple(record[k:k + 3]) for k in range(0, len(record), 3)]


@pytest.mark.parametrize("name", ["rs-row", "left-right", "worley-sagan", "double-circle"])
def test_tableaux_record_is_p_then_q_by_value(name):
    alg = get_algorithm(name)
    _, records = oracle._sweep_branches(alg, [3], pair_records, 1)
    for record, gp in zip(records, sweep_order_gps(3, alg.r), strict=True):
        g = run_growth(alg, gp)
        for half, t in ((record[:len(record) // 2], extract_P(g)),
                        (record[len(record) // 2:], extract_Q(g))):
            by_value = sorted(t.cells, key=lambda cell: cell[1])
            assert _cells(half) == [(p.row, p.col, c) for p, _, c in by_value]


def test_nodes_record_reads_columns_or_rows():
    alg, size = get_algorithm("rs-row"), 3

    def steps(lo, hi):
        if lo == hi:
            return 0, 0, 0
        box, = set(hi.boxes()) - set(lo.boxes())
        return box.row, box.col, 0

    count, records = oracle._sweep_branches(alg, [size], nodes_records, 1)
    assert count == 6
    for record, gp in zip(records, sweep_order_gps(size, alg.r), strict=True):
        g = run_growth(alg, gp)
        columns = [steps(g.nodes[i][j - 1], g.nodes[i][j])
                   for i in range(1, size + 1) for j in range(1, size + 1)]
        rows = [steps(g.nodes[i - 1][j], g.nodes[i][j])
                for j in range(1, size + 1) for i in range(1, size + 1)]
        assert _cells(record) == columns + rows


def test_a_step_that_adds_no_box_is_zero():
    steps, one = _Steps(), _box(Point(1, 1))
    assert steps[None, None] + steps[one, 2] == bytes((0, 0, 0, 1, 1, 2))
    assert steps[one, None] == bytes((1, 1, 0))


@pytest.mark.parametrize("name,n", [("rs-row", 4), ("left-right", 3), ("double-circle", 3),
                                    ("worley-sagan", 4)])
def test_witness_text_and_order_equal_the_reference(name, n):
    """Every input's record gives the text its Shape chains give, and the
    records sort as the chains do."""
    alg = get_algorithm(name)
    _, records = oracle._sweep_branches(alg, [n], pair_records, 1)
    pairs = list(zip(records, (oracle_reference._image_entry(alg, gp)
                               for gp in sweep_order_gps(n, alg.r)), strict=True))
    for record, chains in pairs:
        assert _pair_text(record) == oracle_reference._pair_text(chains)
    order = sorted(range(len(pairs)), key=lambda k: _pair_order(pairs[k][0]))
    assert order == sorted(range(len(pairs)),
                           key=lambda k: oracle_reference._pair_order(pairs[k][1]))
