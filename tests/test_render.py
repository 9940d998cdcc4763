import pytest

from growthkit.catalog import get_algorithm, list_algorithms
from growthkit.growth import GeneralizedPermutation, extract_P, extract_Q, run_growth
from growthkit.lattice import Geometry
from growthkit.render import (
    ParseError, alpha_suffixes, format_gp, parse_gp, parse_growth_records, parse_tableau,
    parse_tableau_records, render_growth, render_tableau, tableau_suffixes,
)
from figures import FIGURES
from growth_reference import alpha, column_of

Q = Geometry.QUADRANT


class TestParseGp:
    def test_plain_permutation(self):
        gp = parse_gp("2 3 4 1", 1)
        assert sorted(gp.entries) == [(1, 4, 1), (2, 1, 1), (3, 2, 1), (4, 3, 1)]

    def test_left_right_example(self):
        gp = parse_gp("6o 4o 7 5 2 3 1o", 2)
        assert alpha(gp, 6, 1) == 2 and alpha(gp, 7, 3) == 1 and alpha(gp, 1, 7) == 2

    def test_compact_with_empty_step(self):
        gp = parse_gp("1 3 2 _ 4o", 2)
        assert column_of(gp, 4) is None and alpha(gp, 4, 5) == 2

    def test_four_color_suffixes(self):
        gp = parse_gp("1 2o 3b 4ob", 4)
        assert [alpha(gp, i, i) for i in range(1, 5)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("bad,r", [
        ("1 1", 1), ("1 2o", 1), ("1 x", 1), ("0", 1), ("2ob 1", 2)])
    def test_errors(self, bad, r):
        with pytest.raises(ParseError):
            parse_gp(bad, r)

    def test_round_trip(self):
        for _, name, perm, _, _ in FIGURES:
            alg = get_algorithm(name)
            gp = parse_gp(perm, alg.r)
            assert parse_gp(format_gp(gp, alg.r), alg.r) == gp
        gp = parse_gp("1 3 2 _ 4o", 2)
        assert format_gp(gp, 2) == "1 3 2 _ 4o"


class TestColorVocabulary:
    def test_alpha_suffixes_are_the_bits_of_c_minus_1(self):
        assert alpha_suffixes(1) == {1: ""}
        assert alpha_suffixes(2) == {1: "", 2: "o"}
        assert alpha_suffixes(4) == {1: "", 2: "o", 3: "b", 4: "ob"}

    @pytest.mark.parametrize("r", [0, 3, 8])
    def test_other_degrees_are_rejected(self, r):
        with pytest.raises(ParseError, match=f"unsupported differential degree {r}"):
            parse_gp("1", r)

    def test_q_marks_b_only_when_both_channels_carry_color(self):
        for r in (1, 2):
            assert tableau_suffixes(r, "P") == tableau_suffixes(r, "Q") == {1: "", 2: "o"}
        assert tableau_suffixes(4, "P") == {1: "", 2: "o"}
        assert tableau_suffixes(4, "Q") == {1: "", 2: "b"}

    def test_specs_derive_their_suffixes(self):
        for alg in list_algorithms().values():
            assert alg.p_suffixes == tableau_suffixes(alg.r, "P")
            assert alg.q_suffixes == tableau_suffixes(alg.r, "Q")

    def test_a_channel_reads_only_its_marks(self):
        t = parse_tableau("1 2b", Q, tableau_suffixes(4, "Q"))
        assert [c for _, _, c in t.cells] == [1, 2]
        with pytest.raises(ParseError, match="'2b': 'b' marks no color"):
            parse_tableau("1 2b", Q, tableau_suffixes(4, "P"))
        with pytest.raises(ParseError, match="'2o': 'o' marks no color"):
            parse_tableau("1 2o", Q, tableau_suffixes(4, "Q"))

    def test_without_suffixes_every_mark_is_color_2(self):
        assert parse_tableau("1 2b", Q) == parse_tableau("1 2o", Q)

    def test_records_of_the_other_channel_are_rejected(self):
        text = render_tableau(parse_tableau("1 2", Q), "records", channel="Q")
        assert parse_tableau_records(text, "Q") == parse_tableau_records(text)
        with pytest.raises(ParseError, match="^line 1: the header names tableau 'Q', not 'P'"):
            parse_tableau_records(text, "P")
        headless = text.replace('"channel": "Q", ', "")
        assert parse_tableau_records(headless, "P") == parse_tableau_records(text)


class TestTableauRendering:
    def test_text_alignment(self):
        t = parse_tableau("1 3 4\n2", Q)
        assert render_tableau(t) == "1 3 4\n2"

    def test_circle_suffix(self):
        alg = get_algorithm("left-right")
        t = parse_tableau("1o 2", Q)
        assert render_tableau(t, "text", alg.q_suffixes) == "1o 2"

    def test_empty(self):
        t = parse_tableau("", Q)
        assert render_tableau(t) == "(empty)"

    def test_empty_latex(self):
        t = parse_tableau("", Q)
        assert render_tableau(t, "latex") == "\\emptyset"

    def test_shifted_indent(self):
        alg = get_algorithm("sagan1")
        t = parse_tableau("1 2 3\n4 5", alg.geometry)
        assert render_tableau(t) == "1 2 3\n  4 5"

    def test_latex(self):
        alg = get_algorithm("worley-sagan")
        t = parse_tableau("1 2 3\n4 5o", alg.geometry)
        out = render_tableau(t, "latex", alg.q_suffixes)
        assert "\\none & 4 & 5^\\circ" in out and out.startswith("\\begin{ytableau}")

    def test_latex_bullet(self):
        alg = get_algorithm("double-circle")
        t = parse_tableau("1 2b", Q)
        assert "2^\\bullet" in render_tableau(t, "latex", alg.q_suffixes)

    def test_text_round_trip(self):
        for _, name, perm, p_text, q_text in FIGURES:
            alg = get_algorithm(name)
            for text in (p_text, q_text):
                t = parse_tableau(text, alg.geometry)
                suffixes = {1: "", 2: "o" if "b" not in text else "b"}
                rendered = render_tableau(t, "text", suffixes)
                assert parse_tableau(rendered, alg.geometry) == t

    def test_records_round_trip(self):
        for _, name, perm, p_text, _ in FIGURES:
            alg = get_algorithm(name)
            t = parse_tableau(p_text, alg.geometry)
            assert parse_tableau_records(render_tableau(t, "records")) == t


class TestGrowthRendering:
    @pytest.mark.parametrize("case", FIGURES, ids=[c[0] for c in FIGURES])
    def test_records_round_trip(self, case):
        _, name, perm, _, _ = case
        alg = get_algorithm(name)
        g = run_growth(alg, parse_gp(perm, alg.r))
        assert parse_growth_records(render_growth(g, "records")) == g

    def test_one_by_one_text(self):
        alg = get_algorithm("rs-row")
        g = run_growth(alg, parse_gp("1", 1))
        out = render_growth(g, "text", alg)
        lines = out.splitlines()
        assert lines[0].startswith("0 --- 1")
        assert "X" in lines[1]
        assert lines[2].startswith("0 --- 0")

    def test_text_contains_edge_labels(self):
        alg = get_algorithm("sagan1")
        g = run_growth(alg, parse_gp("1 2 5 4 3", 1))
        out = render_growth(g, "text", alg)
        assert " B" in out and " R" in out and "-" in out

    def test_latex_shape(self):
        alg = get_algorithm("rs-row")
        g = run_growth(alg, parse_gp("2 3 4 1", 1))
        out = render_growth(g, "latex", alg)
        assert out.startswith("\\begin{tikzcd}")
        assert "\\emptyset" in out and "31 \\ar[dd]" in out

    @pytest.mark.parametrize("record", [
        {"kind": "node", "i": 4, "j": 0, "shape": "0"},
        {"kind": "node", "i": 0, "j": -1, "shape": "0"},
        {"kind": "hedge", "i": 4, "j": 1, "color": 1},
        {"kind": "vedge", "i": 1, "j": 4, "color": 1},
        {"kind": "alpha", "i": 0, "j": 9, "color": 1},
    ], ids=["node-east", "node-south", "hedge", "vedge", "alpha"])
    def test_records_reader_rejects_records_outside_the_grid(self, record):
        import json
        alg = get_algorithm("rs-row")
        lines = render_growth(run_growth(alg, parse_gp("2 3 1", 1)), "records").splitlines()
        lines.insert(5, json.dumps(record))
        i, j = record["i"], record["j"]
        with pytest.raises(ParseError, match=rf"^line 6: \({i},{j}\) is outside the 4 x 4 grid"):
            parse_growth_records("\n".join(lines))

    def test_records_reader_rejects_a_node_outside_an_empty_growth(self):
        text = ('{"kind": "growth", "n": 0, "m": 0, "geometry": "quadrant"}\n'
                '{"kind": "node", "i": 0, "j": 0, "shape": "0"}\n'
                '{"kind": "node", "i": 9, "j": 9, "shape": "0"}\n')
        with pytest.raises(ParseError, match=r"^line 3: \(9,9\) is outside the 1 x 1 grid"):
            parse_growth_records(text)

    def test_records_reader_wants_the_header_first(self):
        text = ('{"kind": "hedge", "i": 1, "j": 0, "color": 1}\n'
                '{"kind": "growth", "n": 1, "m": 1, "geometry": "quadrant"}\n')
        with pytest.raises(ParseError, match=r"^line 1: hedge record before the growth header"):
            parse_growth_records(text)

    def test_records_reader_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_growth_records('{"kind": "node", "i": 0, "j": 0, "shape": "0"}')

    @pytest.mark.parametrize("at, header", [
        (1, '{"kind": "growth", "n": 3, "m": 3, "geometry": "quadrant"}'),
        (5, '{"kind": "growth", "n": 1, "m": 1, "geometry": "quadrant"}'),
        (None, '{"kind": "growth", "n": 3, "m": 3, "geometry": "quadrant"}'),
    ], ids=["same-second", "smaller-midway", "same-last"])
    def test_records_reader_refuses_a_second_header(self, at, header):
        """The records before a second header are neither dropped nor kept."""
        alg = get_algorithm("rs-row")
        lines = render_growth(run_growth(alg, parse_gp("2 3 1", 1)), "records").splitlines()
        lines.insert(len(lines) if at is None else at, header)
        number = len(lines) if at is None else at + 1
        with pytest.raises(ParseError, match=rf"^line {number}: a second growth header record$"):
            parse_growth_records("\n".join(lines))

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 20])
    def test_records_reader_holds_no_grid_larger_than_its_text(self, n):
        """A header may name a grid far larger than the records that follow:
        the reader still names the first missing node."""
        text = "\n".join([
            '{"kind": "growth", "n": %d, "m": 0, "geometry": "quadrant"}' % n,
            '{"kind": "node", "i": 0, "j": 0, "shape": "0"}',
            '{"kind": "node", "i": 1, "j": 0, "shape": "0"}',
            '{"kind": "node", "i": 3, "j": 0, "shape": "0"}'])
        with pytest.raises(ParseError, match=r"^missing node record \(2, 0\)$"):
            parse_growth_records(text)

    def test_records_reader_peak_memory(self):
        """Records fill one grid per field as they arrive: on a seeded rs-row
        growth at n = 300 (11 MB of records) the reader's tracemalloc peak
        stays under 40 MB.  Three dicts of every record peaked at 52 MB."""
        import random
        import tracemalloc
        alg, rng = get_algorithm("rs-row"), random.Random(7)
        values = list(range(1, 301))
        rng.shuffle(values)
        g = run_growth(alg, GeneralizedPermutation.from_word([(v, 1) for v in values], n=300))
        text = render_growth(g, "records")
        tracemalloc.start()
        try:
            parsed = parse_growth_records(text)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert parsed == g
        assert peak < 40, f"tracemalloc peak {peak:.1f} MB"

    def test_unknown_format(self):
        alg = get_algorithm("rs-row")
        g = run_growth(alg, parse_gp("1", 1))
        with pytest.raises(ParseError):
            render_growth(g, "html")
