"""Text, line-delimited-record, and LaTeX rendering of tableaux and growth
diagrams, plus the parsers for the ASCII input grammars.

Every color mark is worked out here from the instantiation and the
algorithm's ``letters``.  Alpha color c is written as the set bits of c - 1,
bit 0 (P's color) marked ``o`` and bit 1 (Q's) ``b``, so none/``o``/``b``/
``ob`` for r = 4; it is named ``X`` when r = 1, else by the letters of those
bits (r = 4: UU, CU, UC, CC).  A tableau's color 2 is ``o``, or ``b`` on Q
when r = 4.  A channel whose weight is 1 everywhere has no edge labels;
otherwise a weight-1 box shows ``-`` and colors 1, 2 the letters.

A generalized permutation is whitespace-separated tokens, each a value with
its suffix, or ``_`` for an empty step.  Tableau files hold one row per
line, entries ``5`` / ``5o`` / ``5b``.
"""

from __future__ import annotations

import json
import re
from functools import cache
from typing import Optional

from .growth import ColoredTableau, GeneralizedPermutation, GrowthDiagram
from .lattice import Geometry, Point, Shape, added_box, format_shape, parse_shape
from .wdgg import constant_value


class ParseError(ValueError):
    pass


MARKS = "ob"    # the marks of bit 0 and bit 1 of an alpha color c - 1


def alpha_suffixes(r: int) -> dict[int, str]:
    if r not in (1, 2, 4):
        raise ParseError(f"unsupported differential degree {r}")
    return {c: "".join(m for k, m in enumerate(MARKS) if (c - 1) >> k & 1)
            for c in range(1, r + 1)}


def tableau_suffixes(r: int, channel: str) -> dict[int, str]:
    """The marks of the P or Q tableau's colors."""
    return {1: "", 2: MARKS["PQ".index(channel) if r == 4 else 0]}


_GP_TOKEN = re.compile(r"^(\d+)(%s)$" % "".join(f"{m}?" for m in MARKS))


def parse_gp(text: str, r: int = 1, n: Optional[int] = None) -> GeneralizedPermutation:
    """Read the compact one-line form, e.g. "1 3 2 _ 4o"."""
    colors = {s: c for c, s in alpha_suffixes(r).items()}
    word = []
    seen = set()
    for pos, token in enumerate(text.replace(",", " ").split(), start=1):
        if token == "_":
            word.append(None)
            continue
        m = _GP_TOKEN.match(token)
        if not m:
            raise ParseError(f"token {pos}: malformed entry {token!r}")
        value = int(m.group(1))
        if value < 1:
            raise ParseError(f"token {pos}: values must be >= 1")
        if value in seen:
            raise ParseError(f"token {pos}: duplicate value {value}")
        seen.add(value)
        color = colors.get(m.group(2))
        if color is None:
            raise ParseError(
                f"token {pos}: color suffix {m.group(2)!r} out of range for r={r}")
        word.append((value, color))
    return GeneralizedPermutation.from_word(word, n=n)


def format_gp(gp: GeneralizedPermutation, r: int) -> str:
    """Inverse of parse_gp."""
    suffix = alpha_suffixes(r)
    token = {j: f"{i}{suffix[c]}" for i, j, c in gp.entries}
    return " ".join(token.get(j, "_") for j in range(1, gp.m + 1))


_TABLEAU_TOKEN = re.compile(r"^(\d+)([%s]?)$" % MARKS)
_ANY_MARK = {"": 1, **dict.fromkeys(MARKS, 2)}


def parse_tableau(text: str, geometry: Geometry,
                  suffixes: Optional[dict[int, str]] = None) -> ColoredTableau:
    """Read a tableau from its text rendering; leading indentation on
    shifted rows is ignored.  With suffixes (a ``tableau_suffixes`` table)
    only that tableau's marks are read; without, every mark is color 2."""
    colors = _ANY_MARK if suffixes is None else {s: c for c, s in suffixes.items()}
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "(empty)":
            continue
        rows.append(line.split())
    shape = Shape(geometry, [len(row) for row in rows]) if rows \
        else Shape(geometry, ())
    cells = []
    for r, row in enumerate(rows, start=1):
        for k, token in enumerate(row):
            m = _TABLEAU_TOKEN.match(token)
            if not m:
                raise ParseError(f"malformed tableau entry {token!r}")
            color = colors.get(m.group(2))
            if color is None:
                raise ParseError(f"tableau entry {token!r}: {m.group(2)!r} marks no "
                                 f"color of this tableau")
            col = shape.row_start(r) + k
            cells.append((Point(r, col), int(m.group(1)), color))
    return ColoredTableau(shape, tuple(cells))


def render_tableau(t: ColoredTableau, fmt: str = "text",
                   suffixes: Optional[dict[int, str]] = None,
                   channel: str = "P") -> str:
    write = _writers(fmt)[0]
    return write(t, suffixes or tableau_suffixes(1, channel), channel)


def _writers(fmt: str):
    """The (tableau, growth) writers of a format."""
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}")
    return FORMATS[fmt]


def _tableau_rows(t: ColoredTableau):
    rows: dict[int, list] = {}
    for p, v, c in t.cells:
        rows.setdefault(p.row, []).append((p.col, v, c))
    return [sorted(rows[r]) for r in sorted(rows)]


def _tableau_text(t, suffixes, _channel) -> str:
    if not t.cells:
        return "(empty)"
    entries = _tableau_rows(t)
    tokens = [[f"{v}{suffixes.get(c, f'^{c}')}" for _, v, c in row] for row in entries]
    width = max(len(token) for row in tokens for token in row)
    lines = []
    for r, row in enumerate(tokens, start=1):
        indent = (t.shape.row_start(r) - 1) * (width + 1)
        cells = " ".join(token.ljust(width) for token in row)
        lines.append(" " * indent + cells.rstrip())
    return "\n".join(lines)


def _tableau_records(t, _suffixes, channel) -> str:
    """Line-delimited records, keys in sorted order, as ``_growth_records``."""
    encode = json.JSONEncoder().encode
    lines = [encode({"channel": channel, "geometry": t.shape.geometry.value,
                     "kind": "tableau", "shape": format_shape(t.shape)})]
    for p, v, c in t.cells:
        lines.append(encode({"col": p.col, "color": c, "kind": "cell", "row": p.row, "value": v}))
    return "\n".join(lines)


_LATEX_MARK = {"": "", "o": "^\\circ", "b": "^\\bullet"}


def _tableau_latex(t, suffixes, _channel) -> str:
    if not t.cells:
        return "\\emptyset"
    lines = ["\\begin{ytableau}"]
    body = []
    for r, row in enumerate(_tableau_rows(t), start=1):
        pads = ["\\none"] * (t.shape.row_start(r) - 1)
        cells = []
        for _, v, c in row:
            cells.append(f"{v}{_LATEX_MARK.get(suffixes.get(c), '^{%d}' % c)}")
        body.append(" & ".join(pads + cells))
    lines.append(" \\\\\n".join(body))
    lines.append("\\end{ytableau}")
    return "\n".join(lines)


def _records(text: str):
    """Each non-blank line's JSON object, with the line's 1-based number."""
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as e:
            raise ParseError(f"line {number}: not JSON ({e})") from None
        if not isinstance(rec, dict):
            raise ParseError(f"line {number}: a record must be a JSON object")
        yield number, rec


_KIND_NAMES = {int: "an integer", str: "a string"}


def _field(number: int, rec: dict, name: str, kind: type):
    """A record's field, which must be present and of this type (an int
    field rejects true/false)."""
    value = rec.get(name)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"line {number}: field {name!r} must be {_KIND_NAMES[kind]}, "
                         f"got {value!r}")
    return value


def _geometry(number: int, rec: dict) -> Geometry:
    text = _field(number, rec, "geometry", str)
    try:
        return Geometry(text)
    except ValueError:
        raise ParseError(f"line {number}: unknown geometry {text!r}") from None


def parse_tableau_records(text: str, channel: Optional[str] = None) -> ColoredTableau:
    """Read a tableau from its records; with channel ("P" or "Q"), a header
    that names the other tableau is an error."""
    shape = None
    cells = []
    for number, rec in _records(text):
        kind = _field(number, rec, "kind", str)
        if kind == "tableau":
            if channel is not None and rec.get("channel", channel) != channel:
                raise ParseError(f"line {number}: the header names tableau "
                                 f"{rec['channel']!r}, not {channel!r}")
            shape = parse_shape(_field(number, rec, "shape", str), _geometry(number, rec))
        elif kind == "cell":
            row, col, value, color = (_field(number, rec, name, int)
                                      for name in ("row", "col", "value", "color"))
            cells.append((Point(row, col), value, color))
    if shape is None:
        raise ParseError("missing tableau header record")
    return ColoredTableau(shape, tuple(cells))


def render_growth(g: GrowthDiagram, fmt: str = "text", alg=None) -> str:
    """g in fmt; with alg, its edges carry the algorithm's labels and its
    alpha cells their names."""
    write = _writers(fmt)[1]
    return write(g, *_labelled(g, alg))


def _palette(alg):
    """The ascending and descending edge labels of alg, each a function of
    (box, color) or None, and its alpha names."""
    if alg is None:
        return None, None, {}

    def labels(w):
        if constant_value(w) != 1:
            return lambda box, color: "-" if w(box) == 1 else alg.letters[color - 1]

    bits = (alg.r - 1).bit_length()
    names = {c: "".join(alg.letters[(c - 1) >> k & 1] for k in range(bits)) or "X"
             for c in range(1, alg.r + 1)}
    return labels(alg.instantiation.w1), labels(alg.instantiation.w2), names


def _labelled(g: GrowthDiagram, alg):
    """What every growth writer lays out, from one pass over the grid (built,
    or refused as too large, first): its nodes and each edge's label ("" where
    it has none), indexed [i][j] as in GrowthDiagram, and each alpha cell's
    name by (i, j)."""
    nodes, hcolors, vcolors = g.nodes, g.hcolors, g.vcolors
    h_label, v_label, alpha_names = _palette(alg)
    hlabels, vlabels = [("",) * (g.m + 1)], []
    for i, column in enumerate(nodes):
        if i:
            hlabels.append(_labels(h_label, nodes[i - 1], column, hcolors[i]))
        vlabels.append([""] + _labels(v_label, column, column[1:], vcolors[i][1:]))
    names = {(i, j): alpha_names.get(c, str(c)) for i, j, c in g.alphas.entries}
    return nodes, hlabels, vlabels, names


def _labels(label, lower, upper, colors) -> list[str]:
    """Each edge's label: label(box, color) of lower[k] -> upper[k], or ""."""
    return ["" if c is None or label is None else label(added_box(a, b), c)
            for a, b, c in zip(lower, upper, colors)]


def _growth_text(g: GrowthDiagram, nodes, hlabels, vlabels, names) -> str:
    """Fixed-width grid, Cartesian layout: north at the top."""
    grid = []   # each node row, then the row below it; [1:]: nothing is west of column 0
    for j in range(g.m, -1, -1):
        grid.append([s for i in range(g.n + 1)
                     for s in (hlabels[i][j], format_shape(nodes[i][j]))][1:])
        if j:
            grid.append([s for i in range(g.n + 1)
                         for s in (names.get((i, j), ""), vlabels[i][j] or "|")][1:])
    widths = [max(3 if c % 2 else 1, *map(len, cells))
              for c, cells in enumerate(zip(*grid))]
    lines = []
    for r, row in enumerate(grid):
        fill = " " if r % 2 else "-"    # a horizontal edge is padded with dashes
        parts = [cell.center(w, fill) if c % 2 else cell.ljust(w)
                 for c, (cell, w) in enumerate(zip(row, widths))]
        lines.append(" ".join(parts).rstrip())
    return "\n".join(lines)


def _growth_records(g: GrowthDiagram, nodes, hlabels, vlabels, _names) -> str:
    """Line-delimited records, keys in sorted order; colors are integers,
    plus the algorithm's label on edges of a labeled channel."""
    encode = json.JSONEncoder().encode
    lines = [encode({"geometry": nodes[0][0].geometry.value, "kind": "growth",
                     "m": g.m, "n": g.n})]
    for i in range(g.n + 1):
        for j in range(g.m + 1):
            lines.append(encode({"i": i, "j": j, "kind": "node",
                                 "shape": format_shape(nodes[i][j])}))

    def edges(kind, colors, labels, i_from, j_from):
        for i in range(i_from, g.n + 1):
            for j in range(j_from, g.m + 1):
                if colors[i][j] is not None:
                    rec = {"color": colors[i][j], "i": i, "j": j, "kind": kind}
                    if labels[i][j]:
                        rec["label"] = labels[i][j]
                    lines.append(encode(rec))

    edges("hedge", g.hcolors, hlabels, 1, 0)
    edges("vedge", g.vcolors, vlabels, 0, 1)
    for i, j, c in sorted(g.alphas.entries):
        lines.append(encode({"color": c, "i": i, "j": j, "kind": "alpha"}))
    return "\n".join(lines)


def parse_growth_records(text: str) -> GrowthDiagram:
    header = None
    shape_of = cache(parse_shape)       # each distinct shape text parsed once
    alphas = set()
    for number, rec in _records(text):
        kind = _field(number, rec, "kind", str)
        if kind == "growth":
            if header is not None:
                raise ParseError(f"line {number}: a second growth header record")
            header = n, m, geometry = (_field(number, rec, "n", int),
                                       _field(number, rec, "m", int), _geometry(number, rec))
            if min(n, m) < 0:
                raise ParseError(f"line {number}: n and m must be >= 0")
            # Node shapes and h- and v-edge colors, flat by (i, j).  A record
            # takes two characters or more, so a grid of more nodes than
            # len(text) // 2 misses one among its first that many + 1: keep those.
            size = min((n + 1) * (m + 1), len(text) // 2 + 1)
            grids = {field: [None] * size for field in ("node", "hedge", "vedge")}
            continue
        if kind not in ("node", "hedge", "vedge", "alpha"):
            raise ParseError(f"unknown record kind {kind!r}")
        i, j = _field(number, rec, "i", int), _field(number, rec, "j", int)
        if header is None:
            raise ParseError(f"line {number}: {kind} record before the growth header")
        if not (0 <= i <= n and 0 <= j <= m):
            raise ParseError(f"line {number}: ({i},{j}) is outside the "
                             f"{n + 1} x {m + 1} grid of the growth header")
        value = (shape_of(_field(number, rec, "shape", str), geometry) if kind == "node"
                 else _field(number, rec, "color", int))
        if kind == "alpha":
            alphas.add((i, j, value))
        elif i * (m + 1) + j < size:
            grids[kind][i * (m + 1) + j] = value
    if header is None:
        raise ParseError("missing growth header record")
    if None in grids["node"]:
        raise ParseError(f"missing node record {divmod(grids['node'].index(None), m + 1)}")
    nodes, hcolors, vcolors = (tuple(tuple(grid[k:k + m + 1]) for k in range(0, size, m + 1))
                               for grid in grids.values())
    g = GrowthDiagram(n, m, nodes, hcolors, vcolors,
                      GeneralizedPermutation(n, m, frozenset(alphas)))
    g.check()
    return g


def _growth_latex(g: GrowthDiagram, nodes, hlabels, vlabels, names) -> str:
    lines = ["\\begin{tikzcd}[sep=small]"]
    rows = []
    for j in range(g.m, -1, -1):
        cells = []
        for i in range(g.n + 1):
            shape = format_shape(nodes[i][j])
            node = "\\emptyset" if shape == "0" else shape.replace(",", "")
            arrows = []
            if i < g.n:
                lab = hlabels[i + 1][j]
                arrows.append(f'\\ar[rr, "{lab}"]' if lab else "\\ar[rr]")
            if j > 0:
                lab = vlabels[i][j]
                arrows.append(f'\\ar[dd, "{lab}"]' if lab else "\\ar[dd]")
            cells.append(" ".join([node] + arrows))
        rows.append(" && ".join(cells))
        if j > 0:
            marks = [names.get((i, j), "") for i in range(1, g.n + 1)]
            rows.append("& " + " && ".join(marks) + " &")
    lines.append(" \\\\\n".join(rows))
    lines.append("\\end{tikzcd}")
    return "\n".join(lines)


# Each format's (tableau, growth) writer.
FORMATS = {"text": (_tableau_text, _growth_text),
           "records": (_tableau_records, _growth_records),
           "latex": (_tableau_latex, _growth_latex)}
