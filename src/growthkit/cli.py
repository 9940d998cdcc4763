"""Command-line front end.

Commands: run, invert, verify (weights | diagram | bijection | duality),
list, render.  Exit status is 0 on success or a passing check, 1 on a failing
check, 2 on bad input.  When the reader of standard output goes away (as
``head`` does), the command stops quietly with status 1, as Python's own
handling of a broken pipe does.  Every ``verify`` subcommand that runs its
check ends with one sorted-key JSON summary line.  GROWTHKIT_THREADS sets how
many processes run the exhaustive sweeps, this one and the children it forks
(an integer >= 1, default 1; this one alone where fork is unavailable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, duality, insdiag, oracle, render, wdgg
from .growth import extract_P, extract_Q, invert_growth, run_growth
from .lattice import parse_shape, shapes_up_to


def _workers() -> int:
    text = os.environ.get("GROWTHKIT_THREADS", "1")
    if text.strip().isdecimal() and int(text) >= 1:
        return int(text)
    raise ValueError(f"GROWTHKIT_THREADS must be an integer >= 1, got {text!r}")


def _size(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be >= 0")
    return value


def cmd_run(args) -> int:
    alg = catalog.get_algorithm(args.algorithm)
    gp = render.parse_gp(args.perm, alg.r)
    g = run_growth(alg, gp)
    P, Q = extract_P(g), extract_Q(g)
    fmt = args.format
    # rendered first, so that a grid too large to build fails with no output
    diagram = render.render_growth(g, fmt, alg) if args.diagram else None
    if fmt == "records":
        print(render.render_tableau(P, "records", alg.p_suffixes, "P"))
        print(render.render_tableau(Q, "records", alg.q_suffixes, "Q"))
        if args.diagram:
            print(diagram)
        return 0
    print(f"algorithm: {alg.name}")
    print(f"permutation: {render.format_gp(gp, alg.r)}")
    print(f"shape: {g.final_shape}")
    print("P:")
    print(render.render_tableau(P, fmt, alg.p_suffixes, "P"))
    print("Q:")
    print(render.render_tableau(Q, fmt, alg.q_suffixes, "Q"))
    if args.diagram:
        print("diagram:")
        print(diagram)
    return 0


def _read_tableau(path: str, alg, channel: str):
    """The channel's tableau ("P" or "Q") in the text grammar with its own
    marks, or as records (a file whose first non-blank character is "{")."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return render.parse_tableau_records(text, channel)
    return render.parse_tableau(text, alg.geometry, render.tableau_suffixes(alg.r, channel))


def cmd_invert(args) -> int:
    alg = catalog.get_algorithm(args.algorithm)
    P = _read_tableau(args.p, alg, "P")
    Q = _read_tableau(args.q, alg, "Q")
    gp = invert_growth(alg, P, Q)
    print(f"permutation: {render.format_gp(gp, alg.r)}")
    return 0


def cmd_list(args) -> int:
    for name, alg in catalog.list_algorithms().items():
        inst = alg.instantiation
        print(f"{name:22s} r={inst.r} geometry={inst.geometry} "
              f"instantiation={inst.name:20s} {alg.description}")
    return 0


def cmd_render(args) -> int:
    alg = catalog.get_algorithm(args.algorithm)
    gp = render.parse_gp(args.perm, alg.r)
    g = run_growth(alg, gp)
    if args.what == "growth":
        print(render.render_growth(g, args.format, alg))
    elif args.what == "p":
        print(render.render_tableau(extract_P(g), args.format, alg.p_suffixes, "P"))
    else:
        print(render.render_tableau(extract_Q(g), args.format, alg.q_suffixes, "Q"))
    return 0


def cmd_verify_weights(args) -> int:
    _size(args.max_size, "--max-size")
    names = [args.instantiation] if args.instantiation else list(wdgg.BUILTIN_INSTANTIATIONS)
    checked, failures = 0, []
    for name in names:
        inst = wdgg.BUILTIN_INSTANTIATIONS.get(name)
        if inst is None:
            raise ValueError(f"unknown instantiation {name!r}")
        report = wdgg.verify_instantiation(inst, args.max_size)
        print(report)
        checked += report.checked
        failures += [f"instantiation={name} {f}" for f in report.failures]
    _summary(check="weights", instantiations=names, max_size=args.max_size,
             checked=checked, ok=not failures, failures=failures)
    return 1 if failures else 0


def cmd_verify_diagram(args) -> int:
    """One diagram file, or an algorithm's diagrams up to --max-size; a flag
    of the other mode is refused, not ignored."""
    max_size = 10 if args.max_size is None else _size(args.max_size, "--max-size")
    if args.file:
        for flag, value in (("--algorithm", args.algorithm), ("--max-size", args.max_size)):
            if value is not None:
                raise ValueError(f"--file checks one diagram and takes no {flag}")
        if not (args.shape and args.instantiation):
            raise ValueError("--file needs --shape and --instantiation")
        inst = wdgg.BUILTIN_INSTANTIATIONS.get(args.instantiation)
        if inst is None:
            raise ValueError(f"unknown instantiation {args.instantiation!r}")
        shape = parse_shape(args.shape, inst.geometry)
        with open(args.file) as fh:
            d = insdiag.parse_diagram(fh.read(), shape)
        report = insdiag.validate(inst, d)
        print(report)
        _summary(check="diagram", instantiation=inst.name, shape=str(shape), checked=1,
                 ok=report.ok, failures=list(report.failures))
        return 0 if report.ok else 1
    if not args.algorithm:
        raise ValueError("need --algorithm or --file")
    for flag, value in (("--shape", args.shape), ("--instantiation", args.instantiation)):
        if value is not None:
            raise ValueError(f"{flag} applies only to --file")
    alg = catalog.get_algorithm(args.algorithm)
    bad = 0
    checked = 0
    failures = []
    for shape in shapes_up_to(alg.geometry, max_size):
        checked += 1
        report = insdiag.validate(alg.instantiation, alg.diagram(shape))
        if not report.ok:
            bad += 1
            print(report)
            failures += [f"shape={shape} {f}" for f in report.failures]
    print(f"{'PASS' if not bad else 'FAIL'} diagrams algorithm={alg.name} "
          f"shapes<= {max_size} checked={checked} failures={bad}")
    _summary(check="diagram", algorithm=alg.name, max_size=max_size,
             checked=checked, ok=not bad, failures=failures)
    return 0 if not bad else 1


def _summary(**fields) -> None:
    """The one JSON summary line of a verify subcommand.  It holds no
    timings, so the output is the same on every run."""
    print(json.dumps(fields, sort_keys=True))


def cmd_verify_bijection(args) -> int:
    alg = catalog.get_algorithm(args.algorithm)
    workers = _workers()
    inputs = oracle.bijection_inputs(alg, _size(args.n, "--n"))
    print(f"running algorithm={alg.name} n={args.n} inputs={inputs} workers={workers}")
    report = oracle.check_bijection(alg, args.n, workers=workers)
    print(report)
    _summary(check="bijection", algorithm=alg.name, n=args.n, inputs=report.gp_count,
             image=report.image_count, expected=report.expected_count, ok=report.ok,
             failures=list(report.failures), workers=workers)
    return 0 if report.ok else 1


_ALPHA_MAPS = {
    "identity": duality.identity,
    "swap-uc": duality.swap_uc,
    "swap-circles": duality._swap_components,
}


def cmd_verify_duality(args) -> int:
    if args.kind == "inversion" and (args.alpha_map or args.edge_map):
        raise ValueError("--alpha-map and --edge-map apply only to --kind transpose")
    a, b = catalog.get_algorithm(args.a), catalog.get_algorithm(args.b or args.a)
    n = _size(args.n, "--n") if args.n is not None else (3 if a.r == 4 else 4)
    workers = _workers()
    if args.kind == "inversion":
        report = duality.check_inversion_duality(a, b, n, workers=workers)
    else:
        f = _ALPHA_MAPS[args.alpha_map or "identity"]
        g = _ALPHA_MAPS[args.edge_map or "identity"]
        report = duality.check_transpose_duality(a, b, f, g, n, workers=workers)
    print(report)
    _summary(check="duality", kind=report.kind, a=report.a, b=report.b, n=report.n,
             checked=report.checked, ok=report.ok,
             counterexamples=list(report.counterexamples[:10]), workers=workers)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthkit",
        description="Execute, invert, and verify tableau insertion algorithms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="insert a permutation and print P and Q")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--perm", required=True, help='e.g. "2 3 4 1" or "6o 4o 7 5 2 3 1o"')
    p.add_argument("--format", choices=render.FORMATS, default="text")
    p.add_argument("--diagram", action="store_true", help="also print the growth diagram")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("invert", help="recover the permutation from P and Q files")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--p", required=True, metavar="FILE")
    p.add_argument("--q", required=True, metavar="FILE")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("list", help="list the built-in algorithms")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("render", help="render one artifact of a run")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--what", choices=["growth", "p", "q"], default="growth")
    p.add_argument("--format", choices=render.FORMATS, default="text")
    p.set_defaults(func=cmd_render)

    v = sub.add_parser("verify", help="exhaustive checks")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("weights", help="weight equation over all small shapes")
    p.add_argument("--instantiation", help="default: all built-ins")
    p.add_argument("--max-size", type=int, default=10)
    p.set_defaults(func=cmd_verify_weights)

    p = vsub.add_parser("diagram", help="validate insertion diagrams")
    p.add_argument("--algorithm")
    p.add_argument("--max-size", type=int, default=None, help="with --algorithm; default 10")
    p.add_argument("--file", help="validate a user diagram file instead")
    p.add_argument("--shape", help="shape for --file, e.g. 3,1")
    p.add_argument("--instantiation", help="instantiation for --file")
    p.set_defaults(func=cmd_verify_diagram)

    p = vsub.add_parser("bijection", help="image equals all same-shape tableau pairs")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify_bijection)

    p = vsub.add_parser("duality", help="inversion/transpose duality sweeps")
    p.add_argument("--kind", choices=["inversion", "transpose"], required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b")
    p.add_argument("--n", type=int, default=None,
                   help="bound on permutation size (default 4, or 3 when r=4)")
    p.add_argument("--alpha-map", choices=sorted(_ALPHA_MAPS),
                   help="transpose only (default identity)")
    p.add_argument("--edge-map", choices=sorted(_ALPHA_MAPS),
                   help="transpose only (default identity)")
    p.set_defaults(func=cmd_verify_duality)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Python's documented recipe: send what is left to devnull, so that
        # the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
