"""Exhaustive small-n verification: bijectivity onto same-shape standard
colored tableau pairs, and the counting identity sum f1*f2 = n! * r^n.

The checks run on ``sweep``, which grows every full colored permutation of a
size depth-first by value.  Columns 0..i of a growth depend only on where
values 1..i sit (restriction coherence), so inputs that agree on values
1..i share those columns, and each node of the search tree grows just one
new column and adds one step to P's half of the record.  Records are
compact bytes, three per step, and every step is read off the boxes the
columns carry (``growth.grow_column``), none worked out from two shapes.

A sweep of size n meets only the shapes of size <= n, a finite part of the
lattice.  Each ``sweep`` call numbers the shapes and boxes it meets in one
table (``_Table``), and the column walk runs on those numbers: its joins
and moves are looked up by ints, each worked out once per sweep from
``lattice.join`` and ``AlgorithmSpec.follow``, and each step's bytes come
from a (box, color) table.  A leaf maps its numbers back to shapes only
when asked for its growth.

``check_bijection`` compares the image with the expected pairs without a
set of either.  ``tableau_records`` lists each shape's tableau halves, with
no tableau built on the way: it peels the largest value off each shape, at
each deletion point in each of its colors (the chain recurrence f(s) =
sum w(p) * f(s - p)), so a half's place in its list is its rank and the
list's length is f.  A (P, Q) pair's index is its shape's base plus
rank(P) * f2 + rank(Q); the check keeps one 4-byte slot per input, its
pair's index at its rank, and builds witness texts from the slots and the
records that are no pair, only on failure.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat
from math import factorial

from .growth import (
    GeneralizedPermutation, GrowthDiagram, Moves, border_column, grow_column,
)
from .insdiag import color_pair
from .lattice import (
    Point, Shape, deletion_points, empty_shape, join, remove_box, shapes_of_size,
)

NO_PAIR = 2 ** 32 - 1     # the slot of an input whose record is no pair


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


class _Table:
    """The part of the lattice one sweep meets, as numbers: what the sweep's
    column walk is passed (``moves``, a growth.Moves), and the steps of its
    records.  A sweep of size n meets few shapes (45 quadrant shapes up to
    size 7), so each is numbered on first sight, ``shapes`` maps a number
    back to the Shape it was first seen as, and a box is ``_box`` of its
    point.  The walk's joins and moves are memoized by their numbers, a move
    filled on its first lookup from ``AlgorithmSpec.follow`` and a join from
    ``lattice.join``; no lookup hashes a Shape, Point or ColorPair.  This is
    the only memo of moves and joins: one table serves one ``sweep`` call,
    the children it forks fill their own copies, and it goes with the sweep."""

    __slots__ = ("moves", "shapes", "steps")

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

        self.shapes, self.steps = shapes, _Steps()
        self.moves = Moves(
            alg.instantiation.r, number(empty_shape(alg.geometry)),
            cache(move),
            cache(lambda x, box, g1, g2: move(
                x, (Point(box >> 8, box & 255), color_pair(g1, g2)))),
            cache(lambda x, y: number(join(shapes[x], shapes[y]))))


class SweepLeaf:
    """One full input of a sweep, on the n x n grid, with its growth.

    ``word[i - 1]`` is the (time, color) of value i, ``columns[i]`` is
    column i of the growth over the numbers of the sweep's ``table``, as
    growth.grow_column returns it (``growth()`` maps them back to shapes),
    and ``p`` is P's half of the leaf's record.  Each tree node pushes its
    value onto all three and pops it on leaving, so P's steps are built
    once per node, not once per leaf.  ``rank`` is the input's index among
    the inputs of its size in sweep order.  The sweep reuses this object
    from leaf to leaf, so read them during the visit only; the columns
    themselves may be kept.
    """

    __slots__ = ("n", "table", "word", "columns", "p", "rank")

    def __init__(self, table: _Table, n: int):
        self.n, self.table, self.word, self.p = n, table, [], bytearray()
        self.columns = [border_column(table.moves, n)]

    def push(self, time: int, color: int) -> None:
        """Place the next value at (time, color): grow its column, and add
        the box it adds to the north edge, with that edge's color, to P."""
        self.word.append((time, color))
        column = grow_column(self.table.moves, len(self.word), self.columns[-1], time, color)
        self.columns.append(column)
        self.p += self.table.steps[column[4][-1], column[1][-1]]

    def pop(self) -> None:
        self.word.pop()
        self.columns.pop()
        del self.p[-3:]

    def gp(self) -> GeneralizedPermutation:
        return _word_gp(self.n, self.word)

    def growth(self) -> GrowthDiagram:
        shape = self.table.shapes.__getitem__
        nodes = tuple(tuple(map(shape, column[0])) for column in self.columns)
        _, hcols, vcols, _, _ = zip(*self.columns)
        return GrowthDiagram(self.n, self.n, nodes, hcols, vcols, self.gp())


def _sweep_branch(table: _Table, size: int, branch: int, visit) -> tuple[int, list]:
    """Visit the inputs of one size whose value 1 takes the branch-th
    (time, color) placement: their number, and the visits' non-None results
    in sweep order.  They are the contiguous ranks from the branch's first,
    branch * (size - 1)! * r^(size - 1), as a rank is a mixed-radix number
    whose digit for value i is (free times before its time) * r + color - 1,
    so each leaf's rank is the first plus the leaves visited before it."""
    r = table.moves.r
    colors = range(1, r + 1)
    leaf = SweepLeaf(table, size)
    leaf.rank = first = branch * factorial(size - 1) * r ** (size - 1) if size else 0
    if size == 0:
        got = visit(leaf)
        return 1, [] if got is None else [got]
    results = []

    def place(time, color, free):
        # one tree node: value len(leaf.word) + 1 goes to (time, color)
        leaf.push(time, color)
        if free:
            for k, t in enumerate(free):
                rest = free[:k] + free[k + 1:]
                for c in colors:
                    place(t, c, rest)
        else:
            got = visit(leaf)
            if got is not None:
                results.append(got)
            leaf.rank += 1
        leaf.pop()

    time, color = divmod(branch, r)
    place(time + 1, color + 1, [t for t in range(1, size + 1) if t != time + 1])
    return leaf.rank - first, results


_fork = getattr(os, "fork", None)   # None where the platform cannot fork


def sweep(alg, sizes, visit, workers: int = 1) -> tuple[int, list]:
    """Grow every full input of each size in ``sizes`` (n! * r^n of size n)
    and call ``visit`` on each as a SweepLeaf.

    Inputs come by size, then depth-first by value: value 1's time and
    color, then value 2's, and so on, each tree node growing one column.
    Returns the number of inputs and the visits' non-None results in that
    order.  The columns are grown over one table of numbered shapes and
    boxes (``_Table``), built here for this call.  With workers > 1 the
    (size, value-1 placement) branches are dealt round-robin to that many
    shards: this process sweeps shard 0, a forked child each other one over
    its own copy of the table.  The results are merged back in order, so
    they do not depend on the worker count; without fork, all run here.
    """
    branches = [(size, b) for size in sizes
                for b in range(size * alg.instantiation.r or 1)]
    stride = max(1, min(workers, len(branches))) if _fork else 1
    table = _Table(alg)

    def shard(k):
        # A forked child inherits this frame, so nothing in it needs to
        # pickle (visits are closures, specs and tables hold closures).
        return [_sweep_branch(table, size, b, visit) for size, b in branches[k::stride]]

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


def pair_record(leaf: SweepLeaf) -> bytes:
    """The leaf's (P, Q) pair: the steps of P (the north edge) by value,
    then of Q (the east column, its boxes and descending colors) by time."""
    _, _, colors, boxes, _ = leaf.columns[-1]
    return b"".join([leaf.p, *map(leaf.table.steps.__getitem__, zip(boxes[1:], colors[1:]))])


def nodes_record(leaf: SweepLeaf) -> bytes:
    """Every node of the leaf's growth, without colors, read twice: the
    steps of each column 1..n from south to north (its boxes), then of each
    row 1..n from west to east (each column's hboxes at that height)."""
    columns = leaf.columns[1:]
    lines = chain((c[3][1:] for c in columns), zip(*(c[4][1:] for c in columns)))
    return b"".join(map(leaf.table.steps.__getitem__,
                        zip(chain.from_iterable(lines), repeat(None))))


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


def check_bijection(alg, n: int, workers: int = 1) -> BijectionReport:
    """Grow every full gp and compare the image with all same-shape pairs of
    standard colored tableaux (set equality, not just counts).  Failures
    name witnesses: the first two inputs that collide, and the smallest
    missing and extra pair.  A size with more inputs or pairs than 4-byte
    slots number below ``NO_PAIR`` raises ValueError before any work.

    No set of pairs is built.  Each expected pair has an index: a tableau
    half's rank is its place in ``tableau_records``, and shape λ's pairs
    take base(λ) + rank(P) * f2(λ) + rank(Q), base(λ) being the number of
    pairs of the shapes before λ.  Each input's visit finds its pair's
    index and writes it into the input's slot, at its rank; a record that
    is no expected pair writes ``NO_PAIR`` and is returned.  This is the set
    comparison:

    - ``tableau_records(w)(λ)`` lists each standard colored tableau of
      shape λ once, in the chain recurrence's order (no duplicate, the
      enumerated tableaux), so f1 and f2 are its lists' lengths and the
      indices number the expected pairs one to one by 0 .. sum f1 * f2 - 1;
    - a record is an expected pair exactly when its P half is a w1 tableau
      of some shape λ and its Q half a w2 tableau of λ, which is when the
      visit finds both halves' ranks.

    So one pass over the slots in rank order decides: inputs collide when
    they give one index or one record, the records are the extra pairs and
    the indices in no slot the missing ones; a witness pair is rebuilt
    from its index, a witness input from its rank."""
    inst = alg.instantiation
    count = factorial(n) * inst.r ** n
    if count >= NO_PAIR:
        raise ValueError(f"n={n} is too large for {alg.name}: its {count} inputs would take "
                         f"{4 * count} bytes of slots, which number at most {NO_PAIR - 1}")
    p_records, q_records = tableau_records(inst.w1), tableau_records(inst.w2)
    ranks = {}      # P half -> (the index of its first pair, the Q ranks of its shape)
    blocks = []     # each shape's (base, P halves, Q halves)
    base = 0        # at the end, the expected count sum f1 * f2
    for shape in shapes_of_size(inst.geometry, n):
        ps, qs = p_records(shape), q_records(shape)
        q_ranks = {q: k for k, q in enumerate(qs)}
        for k, p in enumerate(ps):
            ranks[p] = base + k * len(qs), q_ranks
        blocks.append((base, ps, qs))
        base += len(ps) * len(qs)
        if base >= NO_PAIR:
            raise ValueError(f"n={n} is too large for {alg.name}: over {NO_PAIR - 1} pairs")
    half, unranked = 3 * n, (NO_PAIR, {})     # unranked: a P half that is no tableau

    def pair(i):
        for start, ps, qs in blocks:
            if i < start + len(ps) * len(qs):
                p, q = divmod(i - start, len(qs))
                return ps[p] + qs[q]

    # Shared with the forked children, each writing only its ranks' slots.
    with mmap.mmap(-1, 4 * count) as shared, memoryview(shared).cast("I") as slots:
        def visit(leaf):
            record = pair_record(leaf)
            first, q_ranks = ranks.get(record[:half], unranked)
            rank = q_ranks.get(record[half:])
            slots[leaf.rank] = NO_PAIR if rank is None else first + rank
            return record if rank is None else None

        records = iter(sweep(alg, [n], visit, workers)[1])
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
