import tracemalloc
from functools import cache
from itertools import takewhile

import pytest

from growthkit import oracle
from growthkit.catalog import RS_ROW, AlgorithmSpec, get_algorithm, list_algorithms
from growthkit.lattice import Geometry, Point, Shape, deletion_points, remove_box, shapes_of_size
from growthkit.oracle import check_bijection, tableau_records
from growthkit.wdgg import BUILTIN_INSTANTIATIONS, Instantiation, constant_weight
from oracle_reference import (
    enumerate_gps, enumerate_sct, sct_count, standard_fillings, tableau_record,
)

Q, O = Geometry.QUADRANT, Geometry.OCTANT


class TestEnumerateGps:
    @pytest.mark.parametrize("n,r,count", [(3, 1, 6), (3, 2, 48), (2, 4, 32)])
    def test_counts(self, n, r, count):
        gps = list(enumerate_gps(n, r))
        assert len(gps) == count
        assert len(set(gps)) == count

    def test_entries_are_full(self):
        for gp in enumerate_gps(3, 1):
            assert len(gp.entries) == 3 and gp.n == gp.m == 3


class TestEnumerateSct:
    def test_unshifted_2_1(self):
        inst = BUILTIN_INSTANTIATIONS["unshifted-1"]
        got = enumerate_sct(inst.w2, Shape(Q, (2, 1)))
        assert len(got) == 2  # the two standard fillings of (2,1)

    def test_shifted_2_1_with_colors(self):
        inst = BUILTIN_INSTANTIATIONS["shifted-1"]
        got = enumerate_sct(inst.w2, Shape(O, (2, 1)))
        assert len(got) == 2  # one filling, two colorings of the (1,2) box

    def test_single_box_doubled(self):
        inst = BUILTIN_INSTANTIATIONS["unshifted-2"]
        got = enumerate_sct(inst.w2, Shape(Q, (1,)))
        assert len(got) == 2

    def test_ascending_channel_uses_w1(self):
        inst = BUILTIN_INSTANTIATIONS["unshifted-mixed"]
        assert len(enumerate_sct(inst.w1, Shape(Q, (1,)))) == 2
        assert len(enumerate_sct(inst.w2, Shape(Q, (1,)))) == 1

    def test_counts_match_chain_recurrence(self):
        for inst in BUILTIN_INSTANTIATIONS.values():
            for n in range(6):
                for shape in shapes_of_size(inst.geometry, n):
                    for w in (inst.w1, inst.w2):
                        assert len(enumerate_sct(w, shape)) == sct_count(w)(shape)

    def test_standard_fillings_hook_count(self):
        # f(2,1) = 2, f(2,2) = 2, f(3,1) = 3, f(2,1,1) = 3
        f = lambda *rows: len(standard_fillings(Shape(Q, rows)))
        assert (f(2, 1), f(2, 2), f(3, 1), f(2, 1, 1)) == (2, 2, 3, 3)


class TestTableauRecords:
    @pytest.mark.parametrize("name", sorted(BUILTIN_INSTANTIATIONS))
    @pytest.mark.parametrize("channel", ["w1", "w2"])
    def test_records_are_the_enumerated_tableaux(self, name, channel):
        """Every shape up to size 7: the records are those of the tableaux
        the reference enumerates, once each, as many as the count says."""
        inst = BUILTIN_INSTANTIATIONS[name]
        w = getattr(inst, channel)
        records, count = tableau_records(w), sct_count(w)
        for n in range(8):
            for shape in shapes_of_size(inst.geometry, n):
                got = records(shape)
                assert set(got) == {tableau_record(t) for t in enumerate_sct(w, shape)}
                assert len(set(got)) == len(got) == count(shape), shape

    @pytest.mark.parametrize("name", sorted(BUILTIN_INSTANTIATIONS))
    @pytest.mark.parametrize("channel", ["w1", "w2"])
    def test_ranks_are_the_chain_recurrence(self, name, channel):
        """Every shape up to size 7: a half's place in its shape's list, the
        rank check_bijection numbers pairs by, is the sum of its steps'
        offsets.  The last step's offset counts the tableaux whose last step
        is an earlier (deletion point, color) choice: w(p') * f(s - p') for
        each earlier point p', then (c - 1) * f(s - p) for the earlier
        colors of its own point p.  The lists hold no duplicate, and as many
        halves as the count says."""
        inst = BUILTIN_INSTANTIATIONS[name]
        w = getattr(inst, channel)
        records, count = tableau_records(w), sct_count(w)

        @cache      # halves share their prefixes
        def rank(s, half):
            if not half:
                return 0
            row, col, c = half[-3:]
            p = Point(row, col)
            earlier = takewhile(lambda q: q != p, deletion_points(s))
            return (sum(w(q) * count(remove_box(s, q)) for q in earlier)
                    + (c - 1) * count(remove_box(s, p)) + rank(remove_box(s, p), half[:-3]))

        for n in range(8):
            for shape in shapes_of_size(inst.geometry, n):
                got = records(shape)
                assert len(set(got)) == len(got) == count(shape), shape
                assert [rank(shape, h) for h in got] == list(range(len(got))), shape


class TestCheckBijection:
    def test_rs_row_n4_count(self):
        report = check_bijection(get_algorithm("rs-row"), 4)
        assert report.ok and report.expected_count == 24

    def test_sagan_n3(self):
        report = check_bijection(get_algorithm("sagan1"), 3)
        assert report.ok and report.image_count == 6

    def test_double_circle_n3(self):
        report = check_bijection(get_algorithm("double-circle"), 3)
        assert report.ok and report.expected_count == 384

    def test_workers_agree(self):
        serial = check_bijection(get_algorithm("left-right"), 3, workers=1)
        threaded = check_bijection(get_algorithm("left-right"), 3, workers=4)
        assert serial == threaded

    @pytest.mark.parametrize("name", sorted(list_algorithms()))
    def test_all_algorithms_n3(self, name):
        report = check_bijection(get_algorithm(name), 3)
        assert report.ok, str(report)

    def test_keeps_nothing_per_input(self):
        """The check's own allocations at rs-row n = 7 (5040 inputs) peak
        under 1 MB, so no record, image or pair set per input comes back
        unnoticed: those took 2.0 MB."""
        tracemalloc.start()
        try:
            assert check_bijection(get_algorithm("rs-row"), 7).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    def test_keeps_no_column_per_state(self):
        """At rs-row n = 8 (40 320 inputs) the sweep's table of column
        states keeps each state's Q half and its edges, no column: the
        check's own allocations peak under 2 MB."""
        tracemalloc.start()
        try:
            assert check_bijection(get_algorithm("rs-row"), 8).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak


class _Refused(Exception):
    """Raised where a check that was refused would have started work."""


@pytest.fixture
def no_work(monkeypatch):
    """check_bijection that raises _Refused when it lists a tableau or
    starts a sweep."""

    def refuse(*args):
        raise _Refused

    monkeypatch.setattr(oracle, "tableau_records", refuse)
    monkeypatch.setattr(oracle, "_sweep_branches", refuse)


class TestSizeGuard:
    @pytest.mark.parametrize("name,n,inputs", [
        ("rs-row", 13, 6227020800),
        ("left-right", 11, 81749606400),
        ("double-circle", 9, 95126814720),
    ])
    def test_too_many_inputs_are_refused_before_any_work(self, no_work, name, n, inputs):
        """n! * r^n inputs past what a 4-byte slot numbers below the sentinel
        2^32 - 1: refused with the inputs and the bytes of their slots."""
        with pytest.raises(ValueError, match=rf"^n={n} is too large for {name}: its {inputs} "
                                             rf"inputs would take {4 * inputs} bytes of slots"):
            check_bijection(get_algorithm(name), n)

    @pytest.mark.parametrize("name,n", [("rs-row", 12), ("left-right", 10),
                                        ("double-circle", 8)])
    def test_the_largest_size_that_fits_goes_on(self, no_work, name, n):
        with pytest.raises(_Refused):
            check_bijection(get_algorithm(name), n)

    def test_too_many_pairs_are_refused_before_the_sweep(self, monkeypatch):
        """A graph that is not dual, with weight 30 on every box: 6 inputs at
        n = 3 against 4 374 000 000 same-shape pairs."""
        heavy = constant_weight(30)
        alg = AlgorithmSpec("heavy", Instantiation("heavy", Q, heavy, heavy),
                            RS_ROW, "not dual on purpose")
        monkeypatch.setattr(oracle, "_sweep_branches", None)
        with pytest.raises(ValueError, match=r"^n=3 is too large for heavy: "
                                             r"over 4294967294 pairs$"):
            check_bijection(alg, 3)
