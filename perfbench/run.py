"""The growthkit benchmark.

    python3 perfbench/run.py --workload roundtrip-n200 --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports growthkit from the ``src/`` directory next
to this one and from nowhere else, and exits 2 if that source is missing.

``--trace 0`` measures the end-to-end metrics.  It times set-up in fresh
interpreters, then runs whole cycles of the workload in this process with
tracing off.  The number of cycles follows from ``--seconds`` and the
workload's nominal cycle time, so every commit does the same work; only a
run that would overrun ``--seconds`` by a fifth stops early.

``--trace 1`` measures the per-layer metrics of the first cycle of the same
seed.  It runs that cycle in a fresh untraced process and in a fresh traced
one, whose spans and per-thread profiles give the layer numbers and whose
wall time over the untraced one is the tracing overhead.  On the serial
workloads a second traced process must give exactly the same counts.
``--seconds`` does not apply: the traced work is one cycle.

Every line before the last is for people.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, whose names and units are those declared in BENCHMARK.json.
The full record of a run, with its environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracing import CodeIndex, FnStats, Spans, ThreadProfiles, aggregate, no_span

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "growthkit"
OUT = BENCH_DIR / "out"

SETUP_FIRST = 3         # fresh interpreters timed before the first cycle
SETUP_PER_CYCLE = 2     # and after each cycle; setup_s is the median of all
SETUP_TIMEOUT_S = 60.0
OVERRUN = 1.3           # no cycle starts that would end past OVERRUN * --seconds
RUN_LIMIT_S = 170.0     # a traced run's children must all end within this

# What a one-shot CLI call pays before its first growth: a fresh interpreter,
# the CLI's imports and resolving the algorithms by name.  The diagram cache
# starts cold, as it does for a user.
SETUP_CODE = """
import sys
import growthkit.cli
from growthkit import catalog
for name in sys.argv[1:]:
    catalog.get_algorithm(name)
"""

MODULE_LAYERS = ("lattice", "wdgg", "insdiag", "catalog", "growth", "oracle",
                 "duality", "render")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import growthkit from this checkout's source tree only."""
    if not (PACKAGE / "__init__.py").is_file():
        fail(f"no growthkit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import growthkit
    if Path(growthkit.__file__).resolve().parent != PACKAGE.resolve():
        fail(f"imported growthkit from {growthkit.__file__}, not from {PACKAGE}")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """Identifies the measured code where there is no git commit."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: int, workers: int) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "workers": workers, "nproc": nproc(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit(),
            "src_sha256": source_digest()}


@dataclass
class Outcome:
    label: str
    wall: float
    ok: bool
    inputs: int     # inputs of an operation whose outputs all checked out
    error: Optional[str]


def run_cycle(ops, span, spans=None, collect=False) -> list[Outcome]:
    """Run operations one after another; a failure is recorded, not retried.
    With ``collect`` a full collection runs, untimed, before each operation,
    so that no operation pays for the garbage of the one before it."""
    outcomes = []
    for k, op in enumerate(ops):
        if spans is not None:
            spans.op = k
        if collect:
            gc.collect()
        t0 = time.perf_counter()
        try:
            with span("operation"):
                op.run(span)
        except Exception as exc:  # any raise is a failed operation; the run goes on
            outcomes.append(Outcome(op.label, time.perf_counter() - t0, False, 0,
                                    f"{op.label}: {type(exc).__name__}: {exc}"))
            continue
        outcomes.append(Outcome(op.label, time.perf_counter() - t0, True, op.inputs, None))
    return outcomes


def report_failures(errors: list[str]) -> None:
    for error in errors[:5]:
        print(f"FAILED {error}", file=sys.stderr)


def time_setup(algorithms) -> float:
    # A wait with a timeout polls in steps of up to 50 ms, so wait without
    # one and let a timer kill a child that hangs.
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, *algorithms],
                            env=child_env(), stdout=subprocess.DEVNULL)
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        returncode = proc.wait()
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    if returncode != 0:
        fail(f"set-up exited {returncode}")
    return wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finish(env: dict, correct: bool, attempted: int, failed: int, metrics: dict,
           units: dict[str, str], extra: dict) -> None:
    """Write the full record, then print the result as the last line."""
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    path.write_text(json.dumps({"env": env, **extra, **result}, indent=1) + "\n")
    for name in units:
        print(f"{name:32s} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps(result))


def measure(workload, seed: int, seconds: int, workers: int, env: dict,
            units: dict[str, str]) -> None:
    """End-to-end metrics, tracing off."""
    time_setup(workload.algorithms)   # compiles bytecode; not timed
    # Set-up is timed a few times up front and twice after every cycle, so
    # that its median samples the whole run and not one moment of it.
    setup = [time_setup(workload.algorithms) for _ in range(SETUP_FIRST)]

    rng = random.Random(seed)
    outcomes: list[Outcome] = []
    cycles, start, cycle_s = 0, time.perf_counter(), 0.0
    # The work is fixed, but a machine slowed down by its neighbours stops
    # early rather than overrun the time the run was given.
    while cycles < workload.cycles_for(seconds) and (
            time.perf_counter() - start + cycle_s <= OVERRUN * seconds):
        t0 = time.perf_counter()
        outcomes += run_cycle(workload.cycle(rng, workers), no_span, collect=True)
        cycle_s = time.perf_counter() - t0
        cycles += 1
        if cycles == 1:
            rss = peak_rss_mb()   # the first cycle is the same work in every run
        setup += [time_setup(workload.algorithms) for _ in range(SETUP_PER_CYCLE)]

    errors = [o.error for o in outcomes if not o.ok]
    failed = len(errors)
    report_failures(errors)
    kinds: dict[str, list[float]] = {}
    for o in outcomes:
        kinds.setdefault(o.label, []).append(o.wall)
    # A cycle mixes operations of very different sizes, so a median over all
    # of them jumps between kinds; take each kind's median and average those.
    metrics = {"inputs_per_s": sum(o.inputs for o in outcomes) / sum(o.wall for o in outcomes),
               "op_p50_s": statistics.mean(statistics.median(w) for w in kinds.values()),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss}
    print("env " + json.dumps(env))
    print(f"samples: {cycles} cycles, {len(outcomes)} operations of {len(kinds)} kinds, "
          f"{len(setup)} set-ups")
    print(f"{'failed_frac':32s} {failed / len(outcomes):>14.6g} ratio "
          f"({failed} of {len(outcomes)} operations)")
    finish(env, failed == 0, len(outcomes), failed, metrics, units,
           {"failed_frac": failed / len(outcomes), "cycles": cycles,
            "op_walls": kinds,
            "setup_walls": setup, "errors": errors})


def layer_metrics(by_layer, by_fn, generators, cells: int, wall: float,
                  span_self_s: float) -> dict[str, float]:
    def fn(layer, qualname):
        return by_fn.get((layer, qualname), FnStats())

    def calls(layer, *qualnames):
        return sum(fn(layer, q).calls for q in qualnames)

    def cum(layer, *qualnames):
        return sum(fn(layer, q).cum_s for q in qualnames)

    diagram = fn("catalog", "AlgorithmSpec.diagram")
    generated = calls("catalog", *generators)
    run_growth_s = cum("growth", "run_growth")
    metrics = {f"{layer}.self_s": by_layer.get(layer, 0.0)
               for layer in MODULE_LAYERS + ("other", "bench")}
    metrics.update({
        "growth.alpha.self_s": fn("growth", "GeneralizedPermutation.alpha").self_s,
        "growth.us_per_cell": run_growth_s / cells * 1e6,
        "growth.run_growth.s": run_growth_s,
        "growth.cell_forward.calls": calls("growth", "cell_forward"),
        "growth.cell_inverse.calls": calls("growth", "cell_inverse"),
        "growth.invert_growth.s": cum("growth", "invert_growth"),
        "growth.extract.s": cum("growth", "extract_P", "extract_Q"),
        "lattice.shape_new.calls": calls("lattice", "Shape.__init__"),
        "insdiag.psi.calls": calls("insdiag", "psi_insert", "psi_bump", "psi_inverse"),
        "catalog.diagram.calls": diagram.calls,
        "catalog.generated": generated,
        "catalog.diagram_hit_ratio": 1 - generated / diagram.calls if diagram.calls else 0.0,
        "catalog.diagram.wait_s": diagram.cum_s - cum("catalog", *generators),
        "oracle.enumerate_gps.s": cum("oracle", "enumerate_gps"),
        "oracle.enumerate_sct.s": cum("oracle", "enumerate_sct"),
        "oracle.check_bijection.s": cum("oracle", "check_bijection"),
        "duality.check.s": cum("duality", "check_inversion_duality", "check_transpose_duality"),
        "render.parse_gp.s": cum("render", "parse_gp"),
        "render.render_tableau.s": cum("render", "render_tableau"),
        "render.parse_tableau.s": cum("render", "parse_tableau"),
        "bench.span_self_s": span_self_s,
        "trace.module_self_share": sum(by_layer.get(l, 0.0) for l in MODULE_LAYERS) / wall,
    })
    for name in ("insertion_points", "add_box", "added_box", "join", "meet"):
        metrics[f"lattice.{name}.calls"] = calls("lattice", name)
    return metrics


def child(kind: str, workload, seed: int, workers: int) -> None:
    """One cycle in this fresh process, untraced ("plain") or traced.
    Prints one JSON line for the parent."""
    ops = workload.cycle(random.Random(seed), workers)
    if kind == "plain":
        t0 = time.perf_counter()
        outcomes = run_cycle(ops, no_span)
        wall = time.perf_counter() - t0
        metrics, threads, span_summary = {}, 1, {}
    else:
        from growthkit import catalog, duality, growth, insdiag, lattice, oracle, render, wdgg
        index = CodeIndex(PACKAGE, (lattice, wdgg, insdiag, catalog, growth, oracle,
                                    duality, render), BENCH_DIR)
        generators = {spec.generator.__qualname__
                      for spec in catalog.list_algorithms().values()}
        spans, profiles = Spans(), ThreadProfiles()
        t0 = time.perf_counter()
        with profiles:
            outcomes = run_cycle(ops, spans.span, spans)
        wall = time.perf_counter() - t0
        by_layer, by_fn = aggregate(profiles.entries(), index)
        metrics = layer_metrics(by_layer, by_fn, generators, sum(op.cells for op in ops),
                                wall, spans.root_self_s())
        threads, span_summary = profiles.thread_count, spans.summary()
        spans.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    print(json.dumps({"wall": wall, "attempted": len(outcomes),
                      "failed": sum(not o.ok for o in outcomes),
                      "errors": [o.error for o in outcomes if not o.ok],
                      "threads": threads, "spans": span_summary, "metrics": metrics}))


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name == "catalog.generated"


def traced(workload, seed: int, workers: int, env: dict, units: dict[str, str]) -> None:
    """Per-layer metrics from fresh untraced and traced children."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    kinds = ["plain", "traced"] + ([] if workload.threaded else ["traced"])
    reports = []
    for kind in kinds:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
               "--seed", str(seed), "--trace", "1", "--child", kind]
        try:
            out = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                 timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            fail(f"{kind} child did not finish within {RUN_LIMIT_S:.0f} s")
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            fail(f"{kind} child exited {out.returncode}")
        reports.append(json.loads(out.stdout.strip().splitlines()[-1]))

    plain, first = reports[0], reports[1]
    metrics = dict(first["metrics"])
    metrics["trace.overhead_ratio"] = first["wall"] / plain["wall"]
    repeat = {"checked": len(reports) > 2, "equal": True, "differences": {}}
    if repeat["checked"]:
        second = reports[2]["metrics"]
        repeat["differences"] = {k: [v, second[k]] for k, v in metrics.items()
                                 if is_count(k) and second[k] != v}
        repeat["equal"] = not repeat["differences"]
    errors = [e for r in reports for e in r["errors"]]
    if not repeat["equal"]:
        errors.append(f"counts differ between two traced runs: {repeat['differences']}")
    report_failures(errors)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print("env " + json.dumps(env))
    print(f"traced one cycle: {first['attempted']} operations, "
          f"{first['threads']} threads profiled, wall {first['wall']:.3f} s traced "
          f"vs {plain['wall']:.3f} s untraced; counts repeat: "
          f"{repeat['equal'] if repeat['checked'] else 'not checked (threaded)'}")
    finish(env, not errors, attempted, failed, metrics, units,
           {"walls": {"untraced": plain["wall"], "traced": first["wall"]},
            "count_repeat": repeat, "spans": first["spans"], "errors": errors})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    workers = workload.workers(nproc())
    if args.child:
        child(args.child, workload, args.seed, workers)
        return
    end_to_end, per_layer = declared_metrics()
    env = environment(workload.name, args.seed, args.seconds, args.trace, workers)
    if args.trace:
        traced(workload, args.seed, workers, env, per_layer)
    else:
        measure(workload, args.seed, args.seconds, workers, env, end_to_end)


if __name__ == "__main__":
    main()
