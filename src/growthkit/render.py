"""Text, line-delimited-record, and LaTeX rendering of tableaux and growth
diagrams, plus the parsers for the ASCII input grammars.

Input grammar: a generalized permutation is whitespace-separated tokens,
each a value with an optional color suffix, or ``_`` for an empty step.
Suffixes: none = color 1, ``o`` = 2; with four colors none/``o``/``b``/``ob``
map to 1..4.  Tableau files hold one row per line, entries ``5`` / ``5o`` /
``5b``.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .growth import ColoredTableau, GeneralizedPermutation, GrowthDiagram, GrowthError
from .lattice import Geometry, Point, Shape, format_shape, parse_shape


class ParseError(ValueError):
    pass


_GP_TOKEN = re.compile(r"^(\d+)(ob|o|b)?$")

_SUFFIX_COLORS = {
    1: {None: 1},
    2: {None: 1, "o": 2},
    4: {None: 1, "o": 2, "b": 3, "ob": 4},
}


def alpha_suffixes(r: int) -> dict[int, str]:
    return {c: (s or "") for s, c in _SUFFIX_COLORS[r].items()}


def parse_gp(text: str, r: int = 1, n: Optional[int] = None) -> GeneralizedPermutation:
    """Read the compact one-line form, e.g. "1 3 2 _ 4o"."""
    if r not in _SUFFIX_COLORS:
        raise ParseError(f"unsupported differential degree {r}")
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
        color = _SUFFIX_COLORS[r].get(m.group(2))
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


_TABLEAU_TOKEN = re.compile(r"^(\d+)(o|b)?$")


def parse_tableau(text: str, geometry: Geometry) -> ColoredTableau:
    """Read a tableau from its text rendering; leading indentation on
    shifted rows is ignored."""
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
            col = shape.row_start(r) + k
            cells.append((Point(r, col), int(m.group(1)), 2 if m.group(2) else 1))
    return ColoredTableau(shape, tuple(cells))


def render_tableau(t: ColoredTableau, fmt: str = "text",
                   suffixes: Optional[dict[int, str]] = None,
                   channel: str = "P") -> str:
    if fmt == "text":
        return _tableau_text(t, suffixes)
    if fmt == "records":
        return _tableau_records(t, channel)
    if fmt == "latex":
        return _tableau_latex(t, suffixes)
    raise ParseError(f"unknown format {fmt!r}")


def _suffix(suffixes, color) -> str:
    if suffixes and color in suffixes:
        return suffixes[color]
    return {1: "", 2: "o"}.get(color, f"^{color}")


def _tableau_rows(t: ColoredTableau):
    rows: dict[int, list] = {}
    for p, v, c in t.cells:
        rows.setdefault(p.row, []).append((p.col, v, c))
    return [sorted(rows[r]) for r in sorted(rows)]


def _tableau_text(t, suffixes) -> str:
    if not t.cells:
        return "(empty)"
    entries = _tableau_rows(t)
    width = max(len(f"{v}{_suffix(suffixes, c)}") for row in entries for _, v, c in row)
    lines = []
    for r, row in enumerate(entries, start=1):
        indent = (t.shape.row_start(r) - 1) * (width + 1)
        cells = " ".join(f"{v}{_suffix(suffixes, c)}".ljust(width) for _, v, c in row)
        lines.append(" " * indent + cells.rstrip())
    return "\n".join(lines)


def _tableau_records(t, channel) -> str:
    lines = [json.dumps({"kind": "tableau", "channel": channel,
                         "geometry": t.shape.geometry.value,
                         "shape": format_shape(t.shape)}, sort_keys=True)]
    for p, v, c in t.cells:
        lines.append(json.dumps({"kind": "cell", "row": p.row, "col": p.col,
                                 "value": v, "color": c}, sort_keys=True))
    return "\n".join(lines)


_LATEX_MARK = {"": "", "o": "^\\circ", "b": "^\\bullet"}


def _tableau_latex(t, suffixes) -> str:
    if not t.cells:
        return "\\emptyset"
    lines = ["\\begin{ytableau}"]
    body = []
    for r, row in enumerate(_tableau_rows(t), start=1):
        pads = ["\\none"] * (t.shape.row_start(r) - 1)
        cells = []
        for _, v, c in row:
            mark = _suffix(suffixes, c)
            cells.append(f"{v}{_LATEX_MARK.get(mark, '^{%d}' % c)}")
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


def parse_tableau_records(text: str) -> ColoredTableau:
    shape = None
    cells = []
    for number, rec in _records(text):
        kind = _field(number, rec, "kind", str)
        if kind == "tableau":
            shape = parse_shape(_field(number, rec, "shape", str), _geometry(number, rec))
        elif kind == "cell":
            row, col, value, color = (_field(number, rec, name, int)
                                      for name in ("row", "col", "value", "color"))
            cells.append((Point(row, col), value, color))
    if shape is None:
        raise ParseError("missing tableau header record")
    return ColoredTableau(shape, tuple(cells))


def render_growth(g: GrowthDiagram, fmt: str = "text", alg=None) -> str:
    if fmt == "text":
        return _growth_text(g, alg)
    if fmt == "records":
        return _growth_records(g, alg)
    if fmt == "latex":
        return _growth_latex(g, alg)
    raise ParseError(f"unknown format {fmt!r}")


def _edge_label(labels, lower, upper, color) -> str:
    if color is None or labels is None:
        return ""
    from .lattice import added_box
    return labels(added_box(lower, upper), color)


def _growth_text(g: GrowthDiagram, alg) -> str:
    """Fixed-width grid, Cartesian layout: north at the top."""
    g1_labels = alg.g1_labels if alg else None
    g2_labels = alg.g2_labels if alg else None
    alpha_names = alg.alpha_names if alg else {}
    alpha_at = {(i, j): c for i, j, c in g.alphas.entries}
    nrows, ncols = 2 * g.m + 1, 2 * g.n + 1
    grid = [["" for _ in range(ncols)] for _ in range(nrows)]
    for j in range(g.m, -1, -1):
        rr = 2 * (g.m - j)
        for i in range(g.n + 1):
            grid[rr][2 * i] = format_shape(g.node(i, j))
            if i >= 1:
                grid[rr][2 * i - 1] = _edge_label(
                    g1_labels, g.node(i - 1, j), g.node(i, j), g.hcolor(i, j))
        if j >= 1:
            for i in range(g.n + 1):
                lab = _edge_label(g2_labels, g.node(i, j - 1), g.node(i, j),
                                  g.vcolor(i, j))
                grid[rr + 1][2 * i] = lab or "|"
                if i >= 1:
                    a = alpha_at.get((i, j))
                    grid[rr + 1][2 * i - 1] = alpha_names.get(a, str(a)) if a else ""
    widths = [max([len(grid[r][c]) for r in range(nrows)] + [3 if c % 2 else 1])
              for c in range(ncols)]
    lines = []
    for r in range(nrows):
        parts = []
        for c in range(ncols):
            cell, w = grid[r][c], widths[c]
            if r % 2 == 0 and c % 2 == 1:  # horizontal edge: pad with dashes
                parts.append(cell.center(w, "-"))
            elif c % 2 == 1:               # alpha marker
                parts.append(cell.center(w))
            else:                          # node or vertical edge
                parts.append(cell.ljust(w))
        lines.append(" ".join(parts).rstrip())
    return "\n".join(lines)


def _growth_records(g: GrowthDiagram, alg=None) -> str:
    """Line-delimited records; colors are integers, plus the algorithm's
    display label on edges when a palette is available."""
    geometry = g.node(0, 0).geometry.value
    lines = [json.dumps({"kind": "growth", "n": g.n, "m": g.m,
                         "geometry": geometry}, sort_keys=True)]
    for i in range(g.n + 1):
        for j in range(g.m + 1):
            lines.append(json.dumps({"kind": "node", "i": i, "j": j,
                                     "shape": format_shape(g.node(i, j))},
                                    sort_keys=True))

    def edge(kind, i, j, color, labels, lower, upper):
        rec = {"kind": kind, "i": i, "j": j, "color": color}
        label = _edge_label(labels, lower, upper, color)
        if label:
            rec["label"] = label
        return json.dumps(rec, sort_keys=True)

    for i in range(1, g.n + 1):
        for j in range(g.m + 1):
            if g.hcolor(i, j) is not None:
                lines.append(edge("hedge", i, j, g.hcolor(i, j),
                                  alg.g1_labels if alg else None,
                                  g.node(i - 1, j), g.node(i, j)))
    for i in range(g.n + 1):
        for j in range(1, g.m + 1):
            if g.vcolor(i, j) is not None:
                lines.append(edge("vedge", i, j, g.vcolor(i, j),
                                  alg.g2_labels if alg else None,
                                  g.node(i, j - 1), g.node(i, j)))
    for i, j, c in sorted(g.alphas.entries):
        lines.append(json.dumps({"kind": "alpha", "i": i, "j": j, "color": c},
                                sort_keys=True))
    return "\n".join(lines)


def parse_growth_records(text: str) -> GrowthDiagram:
    header = None
    nodes = {}
    hcol = {}
    vcol = {}
    alphas = set()
    for number, rec in _records(text):
        kind = _field(number, rec, "kind", str)
        if kind == "growth":
            header = (_field(number, rec, "n", int), _field(number, rec, "m", int),
                      _geometry(number, rec))
            if min(header[:2]) < 0:
                raise ParseError(f"line {number}: n and m must be >= 0")
            continue
        if kind not in ("node", "hedge", "vedge", "alpha"):
            raise ParseError(f"unknown record kind {kind!r}")
        at = _field(number, rec, "i", int), _field(number, rec, "j", int)
        if header is None:
            raise ParseError(f"line {number}: {kind} record before the growth header")
        if not (0 <= at[0] <= header[0] and 0 <= at[1] <= header[1]):
            raise ParseError(f"line {number}: ({at[0]},{at[1]}) is outside the "
                             f"{header[0] + 1} x {header[1] + 1} grid of the growth header")
        if kind == "node":
            nodes[at] = parse_shape(_field(number, rec, "shape", str), header[2])
        elif kind == "hedge":
            hcol[at] = _field(number, rec, "color", int)
        elif kind == "vedge":
            vcol[at] = _field(number, rec, "color", int)
        else:
            alphas.add(at + (_field(number, rec, "color", int),))
    if header is None:
        raise ParseError("missing growth header record")
    n, m, _ = header
    try:
        node_grid = tuple(tuple(nodes[i, j] for j in range(m + 1)) for i in range(n + 1))
    except KeyError as e:
        raise ParseError(f"missing node record {e}") from None
    hgrid = tuple(tuple(hcol.get((i, j)) for j in range(m + 1)) for i in range(n + 1))
    vgrid = tuple(tuple(vcol.get((i, j)) for j in range(m + 1)) for i in range(n + 1))
    gp = GeneralizedPermutation(n, m, frozenset(alphas))
    g = GrowthDiagram(n, m, node_grid, hgrid, vgrid, gp)
    g.check()
    return g


def _growth_latex(g: GrowthDiagram, alg) -> str:
    g1_labels = alg.g1_labels if alg else None
    g2_labels = alg.g2_labels if alg else None
    alpha_names = alg.alpha_names if alg else {}
    alpha_at = {(i, j): c for i, j, c in g.alphas.entries}
    lines = ["\\begin{tikzcd}[sep=small]"]
    rows = []
    for j in range(g.m, -1, -1):
        cells = []
        for i in range(g.n + 1):
            shape = format_shape(g.node(i, j))
            node = "\\emptyset" if shape == "0" else shape.replace(",", "")
            arrows = []
            if i < g.n:
                lab = _edge_label(g1_labels, g.node(i, j), g.node(i + 1, j),
                                  g.hcolor(i + 1, j))
                arrows.append(f'\\ar[rr, "{lab}"]' if lab else "\\ar[rr]")
            if j > 0:
                lab = _edge_label(g2_labels, g.node(i, j - 1), g.node(i, j),
                                  g.vcolor(i, j))
                arrows.append(f'\\ar[dd, "{lab}"]' if lab else "\\ar[dd]")
            cells.append(" ".join([node] + arrows))
        rows.append(" && ".join(cells))
        if j > 0:
            marks = []
            for i in range(1, g.n + 1):
                a = alpha_at.get((i, j))
                marks.append(alpha_names.get(a, str(a)) if a else "")
            rows.append("& " + " && ".join(marks) + " &")
    lines.append(" \\\\\n".join(rows))
    lines.append("\\end{tikzcd}")
    return "\n".join(lines)
