"""Every parser of user input raises only ValueError subclasses, whatever it
is given, and answers quickly: the CLI turns a ValueError into ``error: ...``
and exit 2, and anything else into a traceback.

Each property has a fixed example budget and a deadline, and runs
derandomized, so a run is reproducible.  A hang that never returns is not
cut off by the deadline; the explicit huge-shape examples keep the known
case of one in every run."""

import json

from hypothesis import example, given, settings, strategies as st

from growthkit.catalog import get_algorithm
from growthkit.growth import extract_P, run_growth
from growthkit.insdiag import parse_diagram
from growthkit.lattice import Geometry, parse_shape
from growthkit.render import (
    parse_gp, parse_growth_records, parse_tableau, parse_tableau_records, render_growth,
    render_tableau, tableau_suffixes,
)

FUZZ = settings(max_examples=150, deadline=1000, derandomize=True)

HUGE = "99999999999999999999"
HUGE_TABLEAU = ('{"kind": "tableau", "geometry": "quadrant", "shape": "%s"}' % HUGE)

GEOMETRIES = st.sampled_from(list(Geometry))
# Text near the grammars: their symbols, digits, separators and a few others.
SYMBOLS = st.text(st.sampled_from("0123456789 ,_ob\n\t()<>-#xalphbum{}:\"[]9٣"), max_size=40)
TEXT = st.one_of(st.text(max_size=40), SYMBOLS)

SHAPE_TEXT = st.one_of(
    st.lists(st.integers(-2, 6), max_size=5).map(lambda rows: ",".join(map(str, rows))),
    st.just(HUGE), st.text(max_size=6))
FIELD = st.one_of(st.integers(-2, 8), st.just(10 ** 20), st.booleans(), st.none(),
                  st.sampled_from(["quadrant", "octant", "P", "Q", "1", "x"]), SHAPE_TEXT,
                  st.lists(st.integers(0, 3), max_size=2))
NAMES = ["geometry", "shape", "channel", "row", "col", "value", "color",
         "n", "m", "i", "j", "label"]
KINDS = ["tableau", "cell", "growth", "node", "hedge", "vedge", "alpha", "other"]
RECORD = st.fixed_dictionaries({"kind": st.sampled_from(KINDS)},
                               optional={name: FIELD for name in NAMES})
RECORDS = st.lists(st.one_of(RECORD.map(json.dumps), TEXT), max_size=8).map("\n".join)


def raises_only_value_errors(parse, *args):
    try:
        parse(*args)
    except ValueError:
        pass


@FUZZ
@given(TEXT, st.sampled_from([0, 1, 2, 3, 4]))
@example("1 2 " + HUGE, 1)
def test_parse_gp(text, r):
    raises_only_value_errors(parse_gp, text, r)


@FUZZ
@given(TEXT, GEOMETRIES, st.sampled_from([None, (2, "P"), (4, "Q"), (4, "P")]))
def test_parse_tableau(text, geometry, marks):
    suffixes = marks and tableau_suffixes(*marks)
    raises_only_value_errors(parse_tableau, text, geometry, suffixes)


@FUZZ
@given(RECORDS, st.sampled_from([None, "P", "Q"]))
@example(HUGE_TABLEAU, None)
@example(HUGE_TABLEAU + '\n{"kind": "cell", "row": 1, "col": 1, "value": 1, "color": 1}', "P")
def test_parse_tableau_records(text, channel):
    raises_only_value_errors(parse_tableau_records, text, channel)


@FUZZ
@given(RECORDS)
@example('{"kind": "growth", "n": 1, "m": 1, "geometry": "quadrant"}\n'
         '{"kind": "node", "i": 1, "j": 1, "shape": "%s"}' % HUGE)
def test_parse_growth_records(text):
    raises_only_value_errors(parse_growth_records, text)


# Every line boundary of str.splitlines, and the lines of a growth's and a
# tableau's records, which parse.
ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_GROWTH = run_growth(get_algorithm("left-right"), parse_gp("2 1o", 2))
VALID = [render_growth(_GROWTH, "records").split("\n"),
         render_tableau(extract_P(_GROWTH), "records").split("\n")]
LINES = st.one_of(
    st.sampled_from(VALID),
    st.lists(st.one_of(st.sampled_from(sum(VALID, [])), RECORD.map(json.dumps), TEXT),
             max_size=8))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return type(e), str(e)


@FUZZ
@given(LINES, st.lists(st.sampled_from(ENDS), min_size=20, max_size=20))
@example(VALID[0], ENDS * 2)
@example(VALID[1], ENDS[::-1] * 2)
def test_records_lines_end_where_str_splitlines_ends_them(lines, ends):
    """The records readers split lines as str.splitlines does, with the
    same line numbers: a text reads as its lines joined by "\\n" read."""
    text = "".join(line + end for line, end in zip(lines, ends))
    for parse in (parse_growth_records, parse_tableau_records):
        assert outcome(parse, text) == outcome(parse, "\n".join(text.splitlines()))


@FUZZ
@given(TEXT, GEOMETRIES, st.sampled_from(["0", "1", "2,1", "3,1"]))
@example("alpha 1 -> (1,%s) <1,1>" % HUGE, Geometry.QUADRANT, "1")
def test_parse_diagram(text, geometry, shape):
    raises_only_value_errors(parse_diagram, text, parse_shape(shape, geometry))
