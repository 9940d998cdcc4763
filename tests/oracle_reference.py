"""Reference for check_bijection: the image keyed by chains of shapes.

Each input, in sweep order, is grown by run_growth (the event engine), and
its (P, Q) pair is a tuple of Shape chains with their colors, by value,
compared as a set against the chains of every enumerated tableau pair, and
witnesses are written and ordered from the chains.  This is the direct
reading of the check, kept independent of the sweep table and the bytes
records of growthkit.oracle, so check_bijection can be compared against it
report for report.

The enumeration of standard colored tableaux is here too, as the reference
for ``oracle.tableau_records``: ``standard_fillings`` lists the fillings,
``enumerate_sct`` builds and validates a ``ColoredTableau`` for each
filling and coloring, ``sct_count`` counts them by the chain recurrence,
and ``tableau_record`` sorts a tableau's cells into its half of a record.
"""

from functools import cache
from itertools import permutations, product
from operator import itemgetter

from growthkit.growth import (
    ColoredTableau, GeneralizedPermutation, extract_P, extract_Q, run_growth,
)
from growthkit.lattice import (
    Shape, add_box, added_box, deletion_points, empty_shape, remove_box, shapes_of_size,
)
from growthkit.oracle import BijectionReport
from oracles import sweep_order_gps


def enumerate_gps(n: int, r: int):
    """All n! * r^n full n x n generalized permutations, each exactly once."""
    for perm in permutations(range(1, n + 1)):
        for colors in product(range(1, r + 1), repeat=n):
            yield GeneralizedPermutation.from_word(list(zip(perm, colors)), n=n)


def standard_fillings(shape: Shape) -> list[tuple]:
    """All standard fillings, each as a sorted tuple of (point, value)."""
    out = []

    def peel(s, acc):
        if s.size == 0:
            out.append(tuple(sorted(acc)))
            return
        for p in deletion_points(s):
            peel(remove_box(s, p), acc + [(p, s.size)])

    peel(shape, [])
    return out


def enumerate_sct(w, shape: Shape) -> list[ColoredTableau]:
    """All standard colored tableaux: standard fillings times per-box colors
    bounded by w (w1 for the ascending channel, w2 for the descending)."""
    boxes = shape.boxes()
    tableaux = []
    for filling in standard_fillings(shape):
        values = dict(filling)
        for colors in product(*(range(1, w(p) + 1) for p in boxes)):
            cells = tuple((p, values[p], c) for p, c in zip(boxes, colors))
            tableaux.append(ColoredTableau(shape, cells))
    return tableaux


def sct_count(w):
    """A function from a shape to its number of standard colored tableaux,
    box p's colors bounded by w(p): the chain recurrence f(s) = sum f(s - p)
    over the deletion points p, times the w(p) colors of the removed box,
    cached over shapes for this one w."""

    @cache
    def count(s: Shape) -> int:
        if s.size == 0:
            return 1
        return sum(w(p) * count(remove_box(s, p)) for p in deletion_points(s))

    return count


def tableau_record(t: ColoredTableau) -> bytes:
    """A standard tableau as its half of a record: its cells by value."""
    return bytes(x for p, _, c in sorted(t.cells, key=itemgetter(1))
                 for x in (p.row, p.col, c))


def pair_halves(alg, n: int) -> list[tuple[bytes, bytes]]:
    """Each input's (P half, Q half) of its record, in sweep order: the
    tableaux of its run_growth, each sorted into its half."""
    return [(tableau_record(extract_P(g)), tableau_record(extract_Q(g)))
            for g in (run_growth(alg, gp) for gp in sweep_order_gps(n, alg.r))]


def _image_entry(alg, gp):
    """The (P, Q) key of gp's growth under run_growth.  P is the north edge
    and Q the east column, each as a chain: the shapes at 0..m and the
    colors of the edges into them (None into the first)."""
    m, g = gp.m, run_growth(alg, gp)
    p = (tuple(c[m] for c in g.nodes), tuple(c[m] for c in g.hcolors))
    return p, (g.nodes[-1], g.vcolors[-1])


def _chain_key(t):
    """A standard tableau as the chain of _image_entry: the shapes of its
    sub-tableaux on values <= 0..n and the colors of the boxes added."""
    chain, colors = [empty_shape(t.shape.geometry)], [None]
    for p, _, c in sorted(t.cells, key=lambda cell: cell[1]):
        chain.append(add_box(chain[-1], p))
        colors.append(c)
    return tuple(chain), tuple(colors)


def _chain_text(chain, colors) -> str:
    rows: dict[int, list] = {}
    for v in range(1, len(chain)):
        if chain[v] != chain[v - 1]:
            p = added_box(chain[v - 1], chain[v])
            mark = "" if colors[v] == 1 else f"^{colors[v]}"
            rows.setdefault(p.row, []).append((p.col, f"{v}{mark}"))
    return "/".join(" ".join(e for _, e in sorted(rows[r])) for r in sorted(rows)) or "(empty)"


def _pair_text(key) -> str:
    (p_chain, p_colors), (q_chain, q_colors) = key
    return f"P={_chain_text(p_chain, p_colors)} Q={_chain_text(q_chain, q_colors)}"


def _pair_order(key):
    return [(tuple(s.rows for s in chain), tuple(c or 0 for c in colors))
            for chain, colors in key]


def check_bijection(alg, n: int) -> BijectionReport:
    inst = alg.instantiation
    failures = []
    count, image = 0, {}    # (P, Q) key -> the first gp that gives it
    collision = None
    for gp in sweep_order_gps(n, inst.r):
        count += 1
        key = _image_entry(alg, gp)
        if key not in image:
            image[key] = gp
        elif collision is None:
            collision = key, image[key], gp
    if collision is not None:
        key, first, second = collision
        failures.append(
            f"two inputs map to the same (P, Q) pair: "
            f"gp={sorted(first.entries)} and gp={sorted(second.entries)} "
            f"both give {_pair_text(key)}")

    expected = set()
    expected_count = 0
    for shape in shapes_of_size(inst.geometry, n):
        ps = enumerate_sct(inst.w1, shape)
        qs = enumerate_sct(inst.w2, shape)
        f1, f2 = sct_count(inst.w1)(shape), sct_count(inst.w2)(shape)
        if len(ps) != f1 or len(qs) != f2:
            failures.append(
                f"tableau counts disagree with the chain recurrence on {shape}: "
                f"{len(ps)} vs {f1}, {len(qs)} vs {f2}")
        expected_count += f1 * f2
        q_keys = [_chain_key(q) for q in qs]
        for p in ps:
            kp = _chain_key(p)
            expected.update((kp, kq) for kq in q_keys)

    if expected_count != count:
        failures.append(
            f"counting identity fails: sum f1*f2 = {expected_count}, "
            f"n!*r^n = {count}")
    missing = expected - image.keys()
    extra = image.keys() - expected
    if missing:
        failures.append(f"{len(missing)} same-shape pairs are not reached, e.g. "
                        f"{_pair_text(min(missing, key=_pair_order))}")
    if extra:
        key = min(extra, key=_pair_order)
        failures.append(f"{len(extra)} outputs are not valid same-shape pairs, e.g. "
                        f"{_pair_text(key)} from gp={sorted(image[key].entries)}")
    return BijectionReport(alg.name, n, count, len(image), expected_count, tuple(failures))
