"""The bytes records of the oracle against the Shape-chain reference:
check_bijection must give the same report, witness texts and all, as the
check keyed by chains of shapes in oracle_reference."""

import mmap
import time
from types import SimpleNamespace

import pytest

import oracle_reference
from growthkit import oracle
from growthkit.catalog import LEFT_RIGHT, AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.growth import extract_P, extract_Q, run_growth
from growthkit.insdiag import alpha_arrow, bump_arrow, diagram
from growthkit.lattice import Geometry, Point, deletion_points, insertion_points
from growthkit.oracle import (
    _box, _pair_order, _pair_text, _Steps, check_bijection, nodes_record, pair_record, sweep,
)
from growthkit.wdgg import BUILTIN_INSTANTIATIONS, Instantiation, constant_weight
from catalog_reference import rule_of
from test_sweep import _color_blind, _overcolored


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
        for workers in (1, 2, 3):
            assert (check_bijection(alg, n, workers=workers)
                    == oracle_reference.check_bijection(alg, n, workers=workers))


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


class _Unread(mmap.mmap):
    """Shared marks whose every mark reads as unmarked, as a mark made by
    another process at the same moment may."""

    def __getitem__(self, key):
        return 0 if key.__class__ is int else super().__getitem__(key)


def test_marks_lost_to_a_race_give_the_same_reports(monkeypatch):
    """color-blind's inputs collide into valid pairs only, so with every
    mark read as unmarked the first sweep returns nothing, and only the
    count of marks shows the collisions."""
    monkeypatch.setattr(oracle, "mmap", SimpleNamespace(mmap=_Unread))
    _assert_same_reports(_broken("color-blind"), range(5))
    _assert_same_reports(get_algorithm("left-right"), range(4))


def test_shards_that_collide_at_once_give_the_serial_report():
    """More workers than cores, all marking the same bytes: color-blind's
    inputs that differ only in value 1's color collide across shards."""
    alg = _broken("color-blind")
    start = time.monotonic()
    serial = check_bijection(alg, 5)
    assert check_bijection(alg, 5, workers=4) == serial and not serial.ok
    assert time.monotonic() - start < 60


@pytest.mark.parametrize("workers", [1, 2])
def test_a_passing_check_sweeps_once(monkeypatch, workers):
    """The forked children mark the shared bytes too, so a check that
    passes sweeps once and keeps nothing per input."""
    calls = []
    real = oracle.sweep
    monkeypatch.setattr(oracle, "sweep", lambda *args: calls.append(args) or real(*args))
    assert check_bijection(get_algorithm("rs-row"), 6, workers=workers).ok
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["rs-row", *sorted(BROKEN)])
def test_the_marking_sweep_returns_nothing(monkeypatch, name):
    """The marks alone decide: the first sweep keeps no result per input,
    whether the check passes or sends a failing one to its second sweep."""
    results = []
    real = oracle.sweep

    def sweep(*args):
        got = real(*args)
        results.append(got[1])
        return got

    monkeypatch.setattr(oracle, "sweep", sweep)
    alg = get_algorithm(name) if name == "rs-row" else _broken(name)
    report = check_bijection(alg, 5)
    assert results[0] == []
    assert len(results) == 1 + (not report.ok)


def _cells(record):
    """The (row, col, color) of each step of a record half."""
    return [tuple(record[k:k + 3]) for k in range(0, len(record), 3)]


@pytest.mark.parametrize("name", ["rs-row", "left-right", "worley-sagan", "double-circle"])
def test_tableaux_record_is_p_then_q_by_value(name):
    alg = get_algorithm(name)

    def visit(leaf):
        g = run_growth(alg, leaf.gp())
        record = pair_record(leaf)
        for half, t in ((record[:len(record) // 2], extract_P(g)),
                        (record[len(record) // 2:], extract_Q(g))):
            by_value = sorted(t.cells, key=lambda cell: cell[1])
            assert _cells(half) == [(p.row, p.col, c) for p, _, c in by_value]

    sweep(alg, [3], visit)


def test_nodes_record_reads_columns_or_rows():
    alg = get_algorithm("rs-row")

    def visit(leaf):
        g = leaf.growth()
        size = leaf.n

        def steps(lo, hi):
            if lo == hi:
                return 0, 0, 0
            box, = set(hi.boxes()) - set(lo.boxes())
            return box.row, box.col, 0

        columns = [steps(g.nodes[i][j - 1], g.nodes[i][j])
                   for i in range(1, size + 1) for j in range(1, size + 1)]
        rows = [steps(g.nodes[i - 1][j], g.nodes[i][j])
                for j in range(1, size + 1) for i in range(1, size + 1)]
        assert _cells(nodes_record(leaf)) == columns
        assert _cells(nodes_record(leaf, by_rows=True)) == rows

    sweep(alg, [3], visit)


def test_a_step_that_adds_no_box_is_zero():
    steps, one = _Steps(), _box(Point(1, 1))
    assert steps[None, None] + steps[one, 2] == bytes((0, 0, 0, 1, 1, 2))
    assert steps[one, None] == bytes((1, 1, 0))


@pytest.mark.parametrize("name,n", [("rs-row", 4), ("left-right", 3), ("double-circle", 3),
                                    ("worley-sagan", 4)])
def test_witness_text_and_order_equal_the_reference(name, n):
    """Every leaf's record gives the text its Shape chains give, and the
    records sort as the chains do."""
    alg = get_algorithm(name)
    _, pairs = sweep(alg, [n], lambda leaf: (pair_record(leaf),
                                             oracle_reference._image_entry(leaf)[0]))
    for record, chains in pairs:
        assert _pair_text(record) == oracle_reference._pair_text(chains)
    order = sorted(range(len(pairs)), key=lambda k: _pair_order(pairs[k][0]))
    assert order == sorted(range(len(pairs)),
                           key=lambda k: oracle_reference._pair_order(pairs[k][1]))
