"""The incremental sweep behind the exhaustive checks: its level read must
give every full input's record once, at its rank, as run_growth grows it,
and the reports must not depend on the worker count."""

import dataclasses
import os
import signal
import time
from collections import Counter
from itertools import permutations, product

import pytest

from growthkit import growth, lattice, oracle
from growthkit.catalog import AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.duality import (
    InversionColorMap, check_inversion_duality, check_inversion_nodes, check_transpose_duality,
    transpose_dual,
)
from growthkit.growth import run_growth
from growthkit.insdiag import alpha_arrow, bump_arrow, diagram
from growthkit.lattice import Point, deletion_points, insertion_points
from growthkit.oracle import check_bijection
from growthkit.wdgg import BUILTIN_INSTANTIATIONS
from catalog_reference import rule_of
from oracle_reference import pair_halves, tableau_record
from oracles import sweep_rank


def level_read(alg, sizes, workers=1):
    """Each input's (P half, Q half) as the level read gives them, in rank
    order, size by size, over the sweep's branches and workers."""

    def read(table, size, branch):
        halves = [pq for ps, qs in oracle._leaf_halves(table, size, branch) for pq in zip(ps, qs)]
        return len(halves), halves

    return oracle._sweep_branches(alg, sizes, read, workers)


_halves = {}   # (algorithm name, n) -> its pair_halves


def reference_halves(alg, n):
    """``pair_halves``, each input's halves from run_growth's tableaux by
    rank, worked out once per algorithm name and size in a run."""
    key = alg.name, n
    if key not in _halves:
        _halves[key] = pair_halves(alg, n)
    return _halves[key]


@pytest.mark.parametrize("name", sorted(list_algorithms()))
def test_visits_every_input_once_with_its_growth(name):
    """One read of the sizes 0..5 (0..4 at r = 4), at every worker count:
    rank k's halves, size by size, are those of the P and Q run_growth
    grows from the input ``_unrank(k)``, the direct formula's rank k."""
    alg = get_algorithm(name)
    sizes = range(4 if alg.r == 4 else 6)
    want = [pq for n in sizes for pq in reference_halves(alg, n)]
    for workers in (1, 2, 3):
        assert level_read(alg, sizes, workers) == (len(want), want)


def _halves_of(alg, n, word):
    """The (P half, Q half) of the growth run_growth gives the word."""
    g = run_growth(alg, growth.GeneralizedPermutation(
        n, n, frozenset((i, t, c) for i, (t, c) in enumerate(word, start=1))))
    return tableau_record(growth.extract_P(g)), tableau_record(growth.extract_Q(g))


def test_sizes_come_in_order_and_results_keep_sweep_order():
    alg = get_algorithm("rs-row")
    words = [((1, 1), (2, 1)), ((2, 1), (1, 1)), ((1, 1),)]
    assert level_read(alg, [2, 1]) == (3, [_halves_of(alg, len(w), w) for w in words])


def by_sweep_rank(alg, n):
    """Each input's halves of size n, put at the index the direct formula
    ``sweep_rank`` gives its word."""
    words = sorted(tuple(zip(times, colors)) for times in permutations(range(1, n + 1))
                   for colors in product(range(1, alg.r + 1), repeat=n))
    want = [None] * len(words)
    for word, halves in zip(words, reference_halves(alg, n)):   # both by sorted word
        want[sweep_rank(word, alg.r)] = halves
    return want


@pytest.mark.parametrize("name", ["rs-row", "left-right", "double-circle"])
def test_rank_is_the_sweep_index(name):
    alg = get_algorithm(name)
    for n in range(5):
        want = by_sweep_rank(alg, n)
        assert None not in want
        assert level_read(alg, [n]) == (len(want), want)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name,top", [("rs-row", 6), ("left-right", 6), ("double-circle", 4)])
def test_each_leaf_carries_its_rank(name, top, workers):
    """The record the level read gives at a rank, its branch's first plus
    the inputs read before it in the branch, is that of the input the
    direct formula puts there (r = 1, 2 and 4), whichever process reads
    its branch."""
    alg = get_algorithm(name)
    want = [pq for n in range(top + 1) for pq in by_sweep_rank(alg, n)]
    assert level_read(alg, range(top + 1), workers) == (len(want), want)


@pytest.mark.parametrize("name,n", [("left-right", 4), ("double-circle", 3),
                                    ("shifted-column", 5)])
def test_each_column_step_is_grown_once(monkeypatch, name, n):
    """A node's subtree follows from its column's state, the steps of Q by
    time, so a sweep grows one column per distinct (state, free time,
    color) step: each input prefix's state is read here off the Q tableau
    run_growth gives it, on the n-tall grid."""
    calls = []
    real = oracle.grow_column
    monkeypatch.setattr(oracle, "grow_column",
                        lambda *args: calls.append(args[1]) or real(*args))
    alg = get_algorithm(name)
    count, _ = level_read(alg, [n])
    assert count == len(reference_halves(alg, n))
    steps = set()
    for d in range(n):
        for times in permutations(range(1, n + 1), d):
            for colors in product(range(1, alg.r + 1), repeat=d):
                prefix = growth.GeneralizedPermutation(
                    d, n, frozenset((i, t, c) for i, (t, c) in enumerate(zip(times, colors), 1)))
                state = growth.extract_Q(run_growth(alg, prefix)).cells
                steps.update((d, state, t, c) for t in range(1, n + 1) if t not in times
                             for c in range(1, alg.r + 1))
    assert Counter(calls) == Counter(d + 1 for d, _, _, _ in steps)


@pytest.mark.parametrize("run", [
    lambda w: check_bijection(get_algorithm("left-right"), 4, workers=w),
    lambda w: check_inversion_duality(get_algorithm("left-right"), get_algorithm("mixed"),
                                      4, workers=w),
    lambda w: check_transpose_duality(get_algorithm("rs-row"), get_algorithm("rs-col"),
                                      n=4, workers=w),
    # wrong pairings: the counterexamples and their order must not move
    lambda w: check_transpose_duality(get_algorithm("rs-row"), get_algorithm("rs-row"),
                                      n=4, workers=w),
    lambda w: check_inversion_duality(get_algorithm("sagan1"), get_algorithm("sagan1"), 4,
                                      color_map=InversionColorMap(), workers=w),
], ids=["bijection", "inversion", "transpose", "transpose-wrong", "inversion-wrong"])
def test_reports_do_not_depend_on_workers(run):
    serial = run(1)
    assert run(2) == serial and run(3) == serial


def _reading(at):
    """A reader for ``_sweep_branches`` that grows and reads each branch, then
    calls ``at(branch)`` and gives one result per input: the pid that read it."""

    def read(table, size, branch):
        count = sum(len(ps) for ps, _ in oracle._leaf_halves(table, size, branch))
        at(branch)
        return count, [os.getpid()] * count

    return read


def test_workers_are_forked_processes_unless_fork_is_missing(monkeypatch):
    """The caller sweeps shard 0, the branches 0, 2, ...; one forked child
    sweeps the others."""
    alg, me, pid = get_algorithm("rs-row"), os.getpid(), _reading(lambda branch: None)
    count, pids = oracle._sweep_branches(alg, [3], pid, 2)
    child = pids[2]
    assert count == 6 and child != me and pids == [me, me, child, child, me, me]
    monkeypatch.setattr(oracle, "_fork", None)
    assert oracle._sweep_branches(alg, [3], pid, 2) == (6, [me] * 6)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("run,forks", [
    (lambda w: check_transpose_duality(get_algorithm("rs-row"), get_algorithm("rs-col"),
                                       n=0, workers=w), 0),
    (lambda w: check_inversion_duality(get_algorithm("left-right"), get_algorithm("mixed"),
                                       0, workers=w), 0),
    (lambda w: check_transpose_duality(get_algorithm("rs-row"), get_algorithm("rs-col"),
                                       n=1, workers=w), 0),
    (lambda w: check_bijection(get_algorithm("rs-row"), 0, workers=w), 0),
    (lambda w: check_bijection(get_algorithm("rs-row"), 1, workers=w), 0),
    (lambda w: check_bijection(get_algorithm("left-right"), 0, workers=w), 0),
    # two branches: one child, however many workers are asked for
    (lambda w: check_bijection(get_algorithm("left-right"), 1, workers=w), 1),
    (lambda w: check_bijection(get_algorithm("rs-row"), 2, workers=w), 1),
], ids=["transpose-0", "inversion-0", "transpose-1", "bijection-rs-row-0",
        "bijection-rs-row-1", "bijection-left-right-0", "bijection-left-right-1",
        "bijection-rs-row-2"])
def test_no_more_children_than_branches(monkeypatch, run, forks, workers):
    serial = run(1)
    calls = []
    monkeypatch.setattr(oracle, "_fork", lambda: calls.append(None) or os.fork())
    assert run(workers) == serial and serial.ok
    assert len(calls) == forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failure_in_a_child_reaches_the_caller():
    caller = os.getpid()

    def at(branch):
        if os.getpid() != caller:
            raise ValueError(f"the read broke at branch {branch}")

    with pytest.raises(ValueError, match="the read broke at branch 1"):
        oracle._sweep_branches(get_algorithm("rs-row"), [2], _reading(at), 2)
    _no_child_left()


def test_a_child_that_dies_is_an_error_in_the_caller():
    caller = os.getpid()

    def at(branch):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match="shard 1 ended without a result"):
        oracle._sweep_branches(get_algorithm("rs-row"), [2], _reading(at), 2)
    _no_child_left()


def test_a_failure_in_the_caller_kills_and_reaps_the_child():
    """The child would sleep for a minute on its first branch: the caller's
    failure must stop it, not wait for it."""
    caller = os.getpid()

    def at(branch):
        if os.getpid() == caller:
            raise ValueError("the caller's shard broke")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's shard broke"):
        oracle._sweep_branches(get_algorithm("rs-row"), [3], _reading(at), 2)
    assert time.monotonic() - start < 30
    _no_child_left()


@pytest.mark.parametrize("name,n", [("rs-row", 6), ("double-circle", 3)])
def test_forked_bijection_report_equals_the_serial_one(name, n):
    # each side builds its own sweep table, and the workers fill their own copies
    forked = check_bijection(dataclasses.replace(get_algorithm(name)), n, workers=2)
    serial = check_bijection(dataclasses.replace(get_algorithm(name)), n, workers=1)
    assert serial.ok and forked == serial


@pytest.mark.parametrize("name", ["rs-row", "worley-sagan"])
def test_sweep_compares_boxes_by_value(monkeypatch, name):
    """Equal points need not be one object: with a new Point from every
    corner read, the report is the same."""
    want = check_bijection(dataclasses.replace(get_algorithm(name)), 5)
    monkeypatch.setattr(lattice, "_point", Point)
    assert lattice._point(1, 1) is not lattice._point(1, 1)
    assert check_bijection(dataclasses.replace(get_algorithm(name)), 5) == want


def _fresh(name):
    """A copy of the catalog algorithm."""
    return dataclasses.replace(get_algorithm(name))


def _works_out_a_box(lower, upper):
    raise AssertionError(f"a sweep worked out the box between {lower} and {upper}")


def test_no_sweep_works_a_box_out_from_shapes(monkeypatch):
    """Every record is read off the boxes the columns carry: with added_box
    raising wherever it can be reached, the reports are the same."""
    runs = [
        lambda: check_bijection(_fresh("rs-row"), 5),
        lambda: check_bijection(_fresh("left-right"), 4),
        lambda: check_bijection(_fresh("worley-sagan"), 5),
        lambda: check_inversion_duality(_fresh("left-right"), _fresh("mixed"), 3),
        lambda: check_inversion_duality(_fresh("double-circle"), _fresh("double-circle"), 3),
        lambda: check_inversion_duality(_fresh("shifted-column"), _fresh("shifted-column"), 3),
        lambda: check_transpose_duality(_fresh("rs-row"), _fresh("rs-col"), n=3),
        lambda: check_inversion_nodes(_fresh("rs-row"), 5),
    ]
    want = [run() for run in runs]
    for module in (lattice, growth, oracle):
        monkeypatch.setattr(module, "added_box", _works_out_a_box, raising=False)
    assert [run() for run in runs] == want
    assert all(report.ok for report in want)


def test_wrong_pairing_reports_are_not_empty():
    report = check_transpose_duality(get_algorithm("rs-row"), get_algorithm("rs-row"),
                                     n=4, workers=2)
    assert not report.ok and len(report.counterexamples) > 10


def test_transpose_dual_spec_runs_in_worker_processes():
    # the derived spec holds closures, which cannot be pickled
    dual = transpose_dual(get_algorithm("rs-row"))
    report = check_transpose_duality(get_algorithm("rs-row"), dual, n=4, workers=2)
    assert report.ok and report.checked == 1 + 2 + 6 + 24


def test_worker_failure_reaches_the_caller():
    base = get_algorithm("rs-row")

    def gen(shape):
        if shape.size == 3:
            raise ValueError("generator broke")
        return base.generator(shape)

    broken = AlgorithmSpec("broken", base.instantiation, rule_of(gen), "fails on size 3")
    with pytest.raises(ValueError, match="generator broke"):
        check_bijection(broken, 4, workers=2)


def test_size_zero_is_one_empty_input():
    report = check_bijection(get_algorithm("rs-row"), 0, workers=2)
    assert report.ok and report.gp_count == report.expected_count == 1


# Broken algorithms for the failure witnesses.

def _color_blind(shape):
    """Row insertion for both alpha colors: inputs that differ only in
    color collide, and no pair with a color-2 box is reached."""
    ins = insertion_points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 1), alpha_arrow(2, ins[0], 1, 1)]
    arrows += [bump_arrow(p, 1, 1, ins[k + 1], 1, 1)
               for k, p in enumerate(deletion_points(shape))]
    return diagram(shape, arrows)


def _overcolored(shape):
    """Row insertion whose descending colors are all 2 on a weight-1
    instantiation: every Q tableau is invalid."""
    ins = insertion_points(shape)
    arrows = [alpha_arrow(1, ins[0], 1, 2)]
    arrows += [bump_arrow(p, 1, 2, ins[k + 1], 1, 2)
               for k, p in enumerate(deletion_points(shape))]
    return diagram(shape, arrows)


def test_collision_names_both_inputs_and_the_pair():
    alg = AlgorithmSpec("color-blind", BUILTIN_INSTANTIATIONS["unshifted-2"],
                        rule_of(_color_blind), "ignores alpha colors")
    report = check_bijection(alg, 2)
    assert not report.ok
    collision, missing = report.failures
    assert collision == ("two inputs map to the same (P, Q) pair: "
                         "gp=[(1, 1, 1), (2, 2, 1)] and gp=[(1, 1, 1), (2, 2, 2)] "
                         "both give P=1 2 Q=1 2")
    assert missing == "6 same-shape pairs are not reached, e.g. P=1/2 Q=1/2^2"
    for workers in (2, 3):
        assert check_bijection(alg, 2, workers=workers) == report


def test_extra_output_names_a_pair_and_its_input():
    alg = AlgorithmSpec("overcolored", BUILTIN_INSTANTIATIONS["unshifted-1"],
                        rule_of(_overcolored), "descending colors out of range")
    report = check_bijection(alg, 2)
    assert report.failures == (
        "2 same-shape pairs are not reached, e.g. P=1/2 Q=1/2",
        "2 outputs are not valid same-shape pairs, e.g. P=1/2 Q=1^2/2^2 "
        "from gp=[(1, 2, 1), (2, 1, 1)]",
    )


@pytest.mark.parametrize("r", [1, 2])
def test_unrank_inverts_rank(r):
    for n in range(6):
        for times in permutations(range(1, n + 1)):
            for colors in product(range(1, r + 1), repeat=n):
                word = list(zip(times, colors))
                assert oracle._unrank(sweep_rank(word, r), n, r) == word


@pytest.mark.parametrize("name,n", [("rs-row", 6), ("double-circle", 3), ("worley-sagan", 5)])
def test_each_join_and_move_is_worked_out_once_per_sweep(monkeypatch, name, n):
    """The sweep's table numbers the shapes and boxes it meets and keeps
    every join and move it works out, keyed by their numbers."""
    joins, moves = Counter(), Counter()
    join, follow = oracle.join, AlgorithmSpec.follow
    monkeypatch.setattr(oracle, "join", lambda a, b: joins.update([(a, b)]) or join(a, b))
    monkeypatch.setattr(AlgorithmSpec, "follow", lambda self, shape, key: (
        moves.update([(shape, key)]) or follow(self, shape, key)))
    assert check_bijection(_fresh(name), n).ok
    assert joins and moves
    assert set(joins.values()) == {1} and set(moves.values()) == {1}
