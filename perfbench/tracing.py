"""Tracing for the benchmark's traced run, attached from outside the program.

Two sources, both kept in memory until the run ends:

* ``Spans``: one span around every call the benchmark makes into a public
  growthkit function, and one around each whole operation.  A span records
  its name, start, end, parent span and operation id.
* ``ThreadProfiles``: the stdlib profiler on the main thread and on every
  thread started while it is active, so the sweeps' worker threads are
  covered too.

``aggregate`` folds the profiler entries of all threads into self time per
layer (one layer per module of ``growthkit``, plus ``bench`` for the
benchmark's own files and ``other`` for the stdlib and builtins) and into
calls, inclusive and self time per named function.
"""

from __future__ import annotations

import cProfile
import dataclasses
import inspect
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


def no_span(name: str):
    """The span hook of an untraced run."""
    return _NULL


class Spans:
    """In-memory spans of one thread, written out when the run ends."""

    def __init__(self):
        self.records: list[list] = []   # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover.
        Spans of one thread nest, so children never overlap."""
        out = [end - start for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                out[parent] -= end - start
        return out

    def summary(self) -> dict[str, dict]:
        """Count, total and self seconds per span name."""
        out: dict[str, dict] = {}
        for (name, start, end, _, _), self_s in zip(self.records, self.self_times()):
            row = out.setdefault(name, {"count": 0, "s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["s"] += end - start
            row["self_s"] += self_s
        return out

    def root_self_s(self) -> float:
        """Self time of the operation spans: the benchmark's own work
        between its calls into the program."""
        return sum(s for rec, s in zip(self.records, self.self_times())
                   if rec[3] is None)

    def write(self, path: Path) -> None:
        t0 = self.records[0][1] if self.records else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.records):
                fh.write(json.dumps({"id": idx, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op}) + "\n")


class ThreadProfiles:
    """cProfile on the entering thread and on each thread started inside
    the ``with`` block.  A thread's profiler starts from the threading
    module's profile hook, which runs before the thread's target."""

    def __init__(self):
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main = cProfile.Profile()

    def _start_thread(self, frame, event, arg):
        profile = cProfile.Profile()
        profile.enable()
        with self._lock:
            self._profiles.append(profile)

    def __enter__(self):
        threading.setprofile(self._start_thread)
        self._main.enable()
        return self

    def __exit__(self, *exc):
        self._main.disable()
        threading.setprofile(None)

    @property
    def thread_count(self) -> int:
        return 1 + len(self._profiles)

    def entries(self):
        """Raw profiler entries of every thread.  The worker threads have
        ended, so reading them needs no disable."""
        yield from self._main.getstats()
        with self._lock:
            profiles = list(self._profiles)
        for profile in profiles:
            yield from profile.getstats()


class CodeIndex:
    """Maps a profiled code object to (layer, qualified name).

    Methods that ``dataclasses`` generates are compiled from a string and
    carry no file, so they are found by walking each module's dataclasses;
    the classes keep those code objects, and so their ids, alive.
    """

    def __init__(self, package_dir: Path, modules, bench_dir: Path):
        self._package = str(package_dir.resolve())
        self._bench = str(bench_dir.resolve())
        self._generated: dict[int, tuple[str, str]] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                        and cls.__module__ == module.__name__):
                    continue
                for name, fn in vars(cls).items():
                    code = getattr(fn, "__code__", None)
                    if code is not None and code.co_filename == "<string>":
                        self._generated[id(code)] = (layer, f"{cls.__name__}.{name}")

    def locate(self, code) -> tuple[str, str]:
        if isinstance(code, str):
            return "other", code
        hit = self._generated.get(id(code))
        if hit is not None:
            return hit
        path = str(Path(code.co_filename).resolve()) if code.co_filename else ""
        if path.startswith(self._package):
            return Path(path).stem, code.co_qualname
        if path.startswith(self._bench):
            return "bench", code.co_qualname
        return "other", code.co_qualname


@dataclasses.dataclass
class FnStats:
    calls: int = 0
    cum_s: float = 0.0
    self_s: float = 0.0


def aggregate(entries, index: CodeIndex):
    """Self time per layer, and stats per (layer, qualified name)."""
    by_layer: dict[str, float] = {}
    by_fn: dict[tuple[str, str], FnStats] = {}
    for entry in entries:
        key = index.locate(entry.code)
        by_layer[key[0]] = by_layer.get(key[0], 0.0) + entry.inlinetime
        fn = by_fn.setdefault(key, FnStats())
        fn.calls += entry.callcount
        fn.cum_s += entry.totaltime
        fn.self_s += entry.inlinetime
    return by_layer, by_fn
