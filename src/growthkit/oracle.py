"""Exhaustive small-n verification: bijectivity onto same-shape standard
colored tableau pairs, and the counting identity sum f1*f2 = n! * r^n.

The checks run on every full colored permutation of a size, one branch
(value 1's time and color) at a time.  Columns 0..i of a growth depend only
on where values 1..i sit, and a column's *state*, its Q half (each time's
step: its box and descending color), fixes its shapes and free times, so a
tree node's subtree follows from its state (Fomin's local-rule argument).
A branch is swept in two phases over one table per sweep (``_Table``).
``_grow_branch`` grows each edge (state, free time, color) once, on the
state's first sight, into the state's row: the child's number and P's step
(88 119 states and 182 406 edges for left-right's 645 120 inputs at n = 7).
Then one reader reads the leaves level by level (``_leaf_halves``), with no
call per input: ``check_bijection`` codes their halves into slots by rank,
and ``pair_records`` gives the duality checks their records in rank order.
``nodes_records`` grows each input's columns again from its rank's word.
Records are bytes, three per step, read off the boxes the columns carry.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, repeat
from math import factorial
from operator import add
from struct import Struct

from .growth import (
    GeneralizedPermutation, Moves, border_column, grow_column,
)
from .insdiag import color_pair
from .lattice import (
    Point, Shape, deletion_points, empty_shape, join, remove_box, shapes_of_size,
)

NO_PAIR = 2 ** 32 - 1     # the slot of an input whose record is no pair
_FAR = 1 << 62            # the code of a half that is no tableau (see check_bijection)
_EDGE = Struct("ii")      # an edge in its state's row: the child's number, P's step
_CHUNK = 1 << 10          # the most leaves a level read holds at once


def tableau_records(w):
    """A function from a shape to its standard colored tableaux, box p's
    colors bounded by w(p), each as its half of a record: its steps by
    value.  The largest value sits at a deletion point p, in any of its w(p)
    colors, on top of a tableau of shape s - p: the chain recurrence
    f(s) = sum w(p) * f(s - p), cached over shapes for this one w."""

    @cache
    def records(s: Shape) -> list[bytes]:
        if s.size == 0:
            return [b""]
        return [r + step
                for p in deletion_points(s)
                for step in [bytes((p.row, p.col, c)) for c in range(1, w(p) + 1)]
                for r in records(remove_box(s, p))]

    return records


def _word_gp(n: int, word) -> GeneralizedPermutation:
    """The full n x n input whose value i sits at word[i - 1] = (time, color)."""
    return GeneralizedPermutation(
        n, n, frozenset((i, t, c) for i, (t, c) in enumerate(word, start=1)))


def _gp_text(n: int, word) -> str:
    """The input of a witness: "gp=" and the sorted entries of the full
    n x n input that ``word`` gives (see ``_word_gp``)."""
    return f"gp={sorted(_word_gp(n, word).entries)}"


def _box(p: Point) -> int:
    """A box as a sweep numbers it: row * 256 + column."""
    return p.row << 8 | p.col


class _Steps(dict):
    """(box, color) -> the three bytes of the step that adds box in color:
    the box's row and column and the color, (0, 0, 0) if it adds no box
    (None), and color 0 where there is no color.  Filled on first use."""

    def __missing__(self, key):
        box, color = key
        step = self[key] = bytes(3) if box is None else bytes((box >> 8, box & 255, color or 0))
        return step


class _Level(dict):
    """Column states of grid height m and depth d, numbered on first lookup
    by their Q halves (this dict; ``halves`` by number), and their edges: a
    state's by its k-th free time in color c, j = k * r + c - 1, is at byte
    8j of its row (``rows[state]``, None until grown): the child's number
    and P's step, its three bytes as one int (``_EDGE``)."""

    __slots__ = ("halves", "rows")

    def __init__(self):
        self.halves, self.rows = [], []

    def __missing__(self, half: bytes) -> int:
        x = self[half] = len(self.halves)
        self.halves.append(half)
        self.rows.append(None)
        return x


class _Table:
    """The part of the lattice one sweep meets, as numbers: what its column
    walk is passed (``moves``, a growth.Moves), the steps of its records,
    and its column states (``levels[m, d]``).  A shape is numbered on first
    sight (``shapes`` maps it back), a box is ``_box`` of its point, and a
    move or join is filled on its first lookup from ``AlgorithmSpec.follow``
    or ``lattice.join``.  This is the only memo of moves, joins and states,
    one per sweep; the children it forks fill their own copies."""

    __slots__ = ("moves", "shapes", "steps", "levels")

    def __init__(self, alg):
        shapes, numbers = [], {}

        def number(shape):
            x = numbers.get(shape)
            if x is None:
                x = numbers[shape] = len(shapes)
                shapes.append(shape)
            return x

        def move(x, key):
            shape, out, box = alg.follow(shapes[x], key)
            return number(shape), out, _box(box)

        self.shapes, self.steps, self.levels = shapes, _Steps(), {}
        self.moves = Moves(
            alg.instantiation.r, number(empty_shape(alg.geometry)),
            cache(move),
            cache(lambda x, box, g1, g2: move(
                x, (Point(box >> 8, box & 255), color_pair(g1, g2)))),
            cache(lambda x, y: number(join(shapes[x], shapes[y]))))

    def half(self, column) -> bytes:
        """A column's Q half: each time's step, its box and descending color."""
        _, _, colors, boxes, _ = column
        return b"".join(map(self.steps.__getitem__, zip(boxes[1:], colors[1:])))


def _grow_branch(table: _Table, n: int, branch: int) -> list:
    """Phase 1 of a sweep: grow each edge the branch's inputs follow once
    per table, a state's on its first sight, in order, and a new child's
    right after the edge that finds it, so a broken rule raises the first
    input's GrowthError.  Returns the levels (n, 0..n)."""
    moves, r = table.moves, table.moves.r
    levels = [table.levels.setdefault((n, d), _Level()) for d in range(n + 1)]

    def grow(d, column, row, edges):
        # a new state's edges into its row: only its column and those on the
        # walk's path are kept
        below = levels[d + 1]
        free = [t for t, box in enumerate(column[3]) if box is None][1:]
        for j in edges:
            k, c = divmod(j, r)
            child = grow_column(moves, d + 1, column, free[k], c + 1)
            x = below[table.half(child)]
            _EDGE.pack_into(row, 8 * j, x, int.from_bytes(
                table.steps[child[4][-1], child[1][-1]], "big"))
            if d + 1 < n and below.rows[x] is None:
                width = (n - d - 1) * r
                below.rows[x] = bytes(grow(d + 1, child, bytearray(8 * width), range(width)))
        return row

    if n:   # the root's row holds the branch's edge alone
        root = levels[0][bytes(3 * n)]
        levels[0].rows[root] = grow(0, border_column(moves, n), bytearray(8 * n * r), [branch])
    return levels


_fork = getattr(os, "fork", None)   # None where the platform cannot fork


def _sweep_branches(alg, sizes, reader, workers: int) -> tuple[int, list]:
    """Sweep each (size, value-1 placement) branch of ``sizes`` over one
    table built here: ``reader(table, size, branch)`` reads the branch (most
    readers grow it first, ``_grow_branch``) and gives its number of inputs
    and a list of results.  Returns the inputs counted and the results in
    sweep order.  With workers > 1 the branches are dealt round-robin to
    that many shards: this process sweeps shard 0, a forked child each other
    one over its own copy of the table; without fork, all run here."""
    branches = [(size, b) for size in sizes
                for b in range(size * alg.instantiation.r or 1)]
    stride = max(1, min(workers, len(branches))) if _fork else 1
    table = _Table(alg)

    def shard(k):
        # A forked child inherits this frame, so nothing in it needs to
        # pickle (readers are closures, specs and tables hold closures).
        return [reader(table, size, b) for size, b in branches[k::stride]]

    children = []   # (pid, the read end of its pipe)
    try:
        if stride > 1:      # imported here: the command line starts without them
            import pickle
            import signal
        for k in range(1, stride):
            read, write = os.pipe()
            pid = _fork()
            if pid == 0:
                try:
                    try:
                        out = pickle.dumps((True, shard(k)))
                    except BaseException as exc:   # the caller re-raises it
                        out = pickle.dumps((False, exc))
                    with open(write, "wb") as pipe:
                        pipe.write(out)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        shards = [shard(0)]
        for k, (_, pipe) in enumerate(children, start=1):
            out = pipe.read()
            if not out:     # killed, or its exception would not pickle
                raise RuntimeError(f"the process sweeping shard {k} ended without a result")
            ok, got = pickle.loads(out)
            if not ok:
                raise got
            shards.append(got)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    merged = [shards[k % stride][k // stride] for k in range(len(branches))]
    results = []
    for _, got in merged:
        results.extend(got)
        got.clear()     # copied: not held twice
    return sum(n for n, _ in merged), results


def _leaf_halves(table: _Table, n: int, branch: int):
    """Phase 2 of ``check_bijection``: the P and Q halves of the branch's
    inputs in rank order, two lists per group of at most ``_CHUNK``, read
    level by level with no call per input: level d + 1's states are level
    d's children, row by row, their P halves their parents' and a step."""
    levels, r = _grow_branch(table, n, branch), table.moves.r
    step = {int.from_bytes(s, "big"): s for s in table.steps.values()}.__getitem__

    def below(d, rows, ps, width):
        # level d's nodes in rank order, by their P halves and rows of edges
        edge = memoryview(rows).cast("i")
        ps = list(map(add, chain.from_iterable(map(repeat, ps, repeat(width))),
                      map(step, edge[1::2])))
        if d + 1 == n:
            yield ps, list(map(levels[n].halves.__getitem__, edge[0::2]))
            return
        states, rows, width = edge[0::2], levels[d + 1].rows, (n - d - 1) * r
        group = max(1, _CHUNK // (factorial(n - d - 1) * r ** (n - d - 1)))
        for k in range(0, len(ps), group):
            yield from below(d + 1, b"".join(map(rows.__getitem__, states[k:k + group])),
                             ps[k:k + group], width)

    if n:
        yield from below(0, levels[0].rows[0][8 * branch:8 * branch + 8], [b""], 1)
    else:
        yield [b""], [b""]


def _unrank(rank: int, n: int, r: int) -> list:
    """The word of the input of size n whose leaf's ``rank`` is rank: its
    digits read off from value n's color up to value 1's placement, then the
    placements taken from the free times in value order."""
    digits = []
    for free in range(1, n + 1):
        rank, c = divmod(rank, r)
        rank, k = divmod(rank, free)
        digits.append((k, c + 1))
    times = list(range(1, n + 1))
    return [(times.pop(k), c) for k, c in reversed(digits)]


def pair_records(table: _Table, n: int, branch: int) -> tuple[int, list]:
    """A reader for ``_sweep_branches``: the branch's number of inputs and
    their (P, Q) records in rank order, each the steps of P (the north edge)
    by value, then of Q (the east column, its boxes and descending colors)
    by time, read level by level (``_leaf_halves``)."""
    records = []
    for ps, qs in _leaf_halves(table, n, branch):
        records += map(add, ps, qs)
    return len(records), records


def nodes_records(table: _Table, n: int, branch: int) -> tuple[int, list]:
    """A reader for ``_sweep_branches``: the branch's number of inputs and,
    in rank order, every node of each one's growth, without colors, read
    twice: the steps of each column 1..n from south to north (its boxes),
    then of each row 1..n from west to east (each column's hboxes at that
    height).  Each input's columns are grown again from its word over the
    table's moves."""
    moves, r = table.moves, table.moves.r
    count = factorial(n - 1) * r ** (n - 1) if n else 1
    records = []
    for rank in range(branch * count, (branch + 1) * count):
        column, columns = border_column(moves, n), []
        for i, (time, color) in enumerate(_unrank(rank, n, r), start=1):
            column = grow_column(moves, i, column, time, color)
            columns.append(column)
        lines = chain((c[3][1:] for c in columns), zip(*(c[4][1:] for c in columns)))
        records.append(b"".join(map(table.steps.__getitem__,
                                    zip(chain.from_iterable(lines), repeat(None)))))
    return count, records


def _pair_text(record: bytes) -> str:
    """The (P, Q) pair of a record, each tableau's rows joined by "/"; a
    color other than 1 follows its value as "^c"."""
    half = len(record) // 2
    texts = []
    for h in (record[:half], record[half:]):
        rows: dict[int, list] = {}
        for v, (row, col, color) in enumerate(zip(h[0::3], h[1::3], h[2::3]), start=1):
            if row:
                mark = "" if color == 1 else f"^{color}"
                rows.setdefault(row, []).append((col, f"{v}{mark}"))
        texts.append("/".join(" ".join(e for _, e in sorted(rows[r])) for r in sorted(rows))
                     or "(empty)")
    return "P={} Q={}".format(*texts)


def _pair_order(record: bytes):
    """A record's place in the order of shape chains: P's step rows, then
    its colors, then Q's.  A lower box makes a larger shape, so rows compare
    descending, and a step that adds no box (row 0) comes first."""
    half = len(record) // 2
    return [(bytes(-x % 256 for x in h[0::3]), h[2::3]) for h in (record[:half], record[half:])]


@dataclass(frozen=True)
class BijectionReport:
    algorithm: str
    n: int
    gp_count: int
    image_count: int
    expected_count: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        head = (f"{'PASS' if self.ok else 'FAIL'} bijection algorithm={self.algorithm} "
                f"n={self.n} inputs={self.gp_count} image={self.image_count} "
                f"expected={self.expected_count}")
        return "\n".join([head] + [f"  {f}" for f in self.failures])


def bijection_inputs(alg, n: int) -> int:
    """n! * r^n, the inputs ``check_bijection(alg, n)`` sweeps; ValueError
    from ``NO_PAIR`` on, decided as the product of sizes 1..n passes it, so
    no number larger than that is built."""
    count = 1
    for size in range(1, n + 1):
        count *= size * alg.instantiation.r
        if count >= NO_PAIR:    # before size n, a lower bound: each later factor is >= 2
            over = "" if size == n else "over "
            raise ValueError(f"n={n} is too large for {alg.name}: its {over}{count} inputs "
                             f"would take {over}{4 * count} bytes of slots, which number "
                             f"at most {NO_PAIR - 1}")
    return count


def check_bijection(alg, n: int, workers: int = 1) -> BijectionReport:
    """Grow every full gp and compare the image with all same-shape pairs of
    standard colored tableaux (set equality, not just counts).  Failures
    name witnesses: the first two inputs that collide, and the smallest
    missing and extra pair.  A size with more inputs or pairs than 4-byte
    slots number below ``NO_PAIR`` raises ValueError before any work.

    No set of pairs is built.  ``tableau_records(w)(λ)`` lists each
    standard colored tableau of shape λ once, so shape λ's pairs take the
    indices base(λ) + rank(P) * f2(λ) + rank(Q), one to one, base(λ) being
    the number of pairs of the shapes before λ.  A P half codes base(λ) +
    rank(P) * f2(λ) + λ's number * 2^34, a Q half rank(Q) - λ's number *
    2^34, and a half that is no tableau ``_FAR``: a record is an expected
    pair exactly when the sum of its halves' codes is in 0 .. NO_PAIR - 1,
    and then it is the pair's index.  Each input's slot, at its rank, holds
    it, or ``NO_PAIR`` (``_leaf_halves``).  So one pass over the slots in
    rank order decides: inputs collide when they give one index or one
    record, the records are the extra pairs and the indices in no slot the
    missing ones; a witness pair is rebuilt from its index, a witness input
    from its rank."""
    from array import array     # imported here: a run or an inversion never loads it
    inst, count = alg.instantiation, bijection_inputs(alg, n)
    inputs = count // (n * inst.r or 1)     # of each branch
    p_records, q_records = tableau_records(inst.w1), tableau_records(inst.w2)
    p_codes, q_codes = {}, {}   # each tableau half -> its code
    blocks = []     # each shape's (base, P halves, Q halves)
    base = 0        # at the end, the expected count sum f1 * f2
    for number, shape in enumerate(shapes_of_size(inst.geometry, n)):
        ps, qs = p_records(shape), q_records(shape)
        p_codes.update((p, base + k * len(qs) + (number << 34)) for k, p in enumerate(ps))
        q_codes.update((q, k - (number << 34)) for k, q in enumerate(qs))
        blocks.append((base, ps, qs))
        base += len(ps) * len(qs)
        if base >= NO_PAIR:
            raise ValueError(f"n={n} is too large for {alg.name}: over {NO_PAIR - 1} pairs")

    def pair(i):
        for start, ps, qs in blocks:
            if i < start + len(ps) * len(qs):
                p, q = divmod(i - start, len(qs))
                return ps[p] + qs[q]

    # Shared with the forked children, each writing only its branches' slots.
    with mmap.mmap(-1, 4 * count) as shared, memoryview(shared).cast("I") as slots:
        def read(table, size, branch):
            first, records = branch * inputs, []
            for ps, qs in _leaf_halves(table, size, branch):
                codes = array("I", map(min, map(abs, map(
                    add, map(p_codes.get, ps, repeat(_FAR)), map(q_codes.get, qs, repeat(_FAR)))),
                    repeat(NO_PAIR)))
                slots[first:first + len(codes)] = codes
                first += len(codes)
                records += map(b"".join, compress(zip(ps, qs), map(NO_PAIR.__eq__, codes)))
            return inputs, records

        records = iter(_sweep_branches(alg, [n], read, workers)[1])
        seen = bytearray(base)
        extra: dict = {}    # record -> the rank of its first input
        collision = None
        for k, i in enumerate(slots):
            if i == NO_PAIR:
                record = next(records)
                first = extra.setdefault(record, k)
                if first != k and collision is None:
                    collision = first, k, record
            else:
                if seen[i] and collision is None:
                    collision = next(j for j, x in enumerate(slots) if x == i), k, pair(i)
                seen[i] = 1
    witness = lambda k: _gp_text(n, _unrank(k, n, inst.r))
    failures = []
    if collision is not None:
        first, second, key = collision
        failures.append(
            f"two inputs map to the same (P, Q) pair: "
            f"{witness(first)} and {witness(second)} both give {_pair_text(key)}")
    if base != count:
        failures.append(f"counting identity fails: sum f1*f2 = {base}, n!*r^n = {count}")
    reached = seen.count(1)
    if reached < base:
        missing = (pair(i) for i, hit in enumerate(seen) if not hit)
        failures.append(f"{base - reached} same-shape pairs are not reached, e.g. "
                        f"{_pair_text(min(missing, key=_pair_order))}")
    if extra:
        key = min(extra, key=_pair_order)
        failures.append(f"{len(extra)} outputs are not valid same-shape pairs, e.g. "
                        f"{_pair_text(key)} from {witness(extra[key])}")
    return BijectionReport(alg.name, n, count, reached + len(extra), base, tuple(failures))
