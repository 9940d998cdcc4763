import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from growthkit import catalog, oracle
from growthkit.catalog import SW, _11, AlgorithmSpec, get_algorithm
from growthkit.cli import main
from growthkit.growth import extract_P, extract_Q, run_growth
from growthkit.insdiag import TableRule
from growthkit.render import parse_gp, render_growth, render_tableau
from figures import FIGURES
from growth_reference import fold_growth

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    old = {}
    if env:
        for k, v in env.items():
            old[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, out.getvalue(), err.getvalue()


class TestRunGoldens:
    @pytest.mark.parametrize("case", FIGURES, ids=[c[0] for c in FIGURES])
    def test_byte_exact(self, case):
        name, alg, perm, _, _ = case
        rc, out, _ = run_cli("run", "--algorithm", alg, "--perm", perm)
        assert rc == 0
        assert out == (GOLDEN / f"{name}.txt").read_text()


GROWTH_GOLDENS = [("growth-left-right", "left-right", "6o 4o 7 5 2 3 1o"),
                  ("growth-double-circle", "double-circle", "6o 4ob 7 5b 2 3b 1o"),
                  ("growth-rs-row-gaps", "rs-row", "2 _ 5 1"),
                  ("growth-rs-col", "rs-col", "2 3 4 1"),
                  ("growth-mclarnan-fairy", "mclarnan-fairy", "4 2 6 5 1 7 3"),
                  ("growth-jitter", "jitter", "1 2 3 4"),
                  ("growth-sagan1", "sagan1", "1 2 5 4 3"),
                  ("growth-worley-sagan", "worley-sagan", "1 2 5 4 3"),
                  ("growth-mixed", "mixed", "7o 5 6 2o 4 1o 3"),
                  ("growth-shifted-mixed", "shifted-mixed", "1 2 5 4 3"),
                  ("growth-shifted-column", "shifted-column", "1 3 4 2"),
                  ("growth-dual-shifted-column", "dual-shifted-column", "1 3 4 2")]


class TestRenderGrowthGoldens:
    @pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("records", "jsonl"),
                                         ("latex", "tex")])
    @pytest.mark.parametrize("case", GROWTH_GOLDENS, ids=[c[0] for c in GROWTH_GOLDENS])
    def test_byte_exact(self, case, fmt, ext):
        name, alg, perm = case
        rc, out, _ = run_cli("render", "--algorithm", alg, "--perm", perm,
                             "--what", "growth", "--format", fmt)
        assert rc == 0
        assert out == (GOLDEN / f"{name}.{ext}").read_text()


class TestRunAndRender:
    def test_run_with_diagram(self):
        rc, out, _ = run_cli("run", "--algorithm", "rs-row", "--perm", "2 3 4 1",
                             "--diagram")
        assert rc == 0 and "diagram:" in out and "0 --- 0" in out

    def test_records_format(self):
        rc, out, _ = run_cli("run", "--algorithm", "left-right",
                             "--perm", "6o 4o 7 5 2 3 1o", "--format", "records")
        assert rc == 0
        kinds = [json.loads(line)["kind"] for line in out.splitlines() if line]
        assert kinds.count("tableau") == 2 and "cell" in kinds

    def test_latex_format(self):
        rc, out, _ = run_cli("run", "--algorithm", "rs-row", "--perm", "2 3 4 1",
                             "--format", "latex")
        assert rc == 0 and "\\begin{ytableau}" in out

    def test_render_growth_records_round_trip(self):
        from growthkit.render import parse_growth_records
        rc, out, _ = run_cli("render", "--algorithm", "sagan1",
                             "--perm", "1 2 5 4 3", "--format", "records")
        assert rc == 0
        parse_growth_records(out).check()

    @pytest.mark.parametrize("edit", [
        lambda recs: [{k: v for k, v in recs[0].items() if k != "m"}] + recs[1:],
        lambda recs: recs[:3] + [{**recs[3], "shape": 21}] + recs[4:],
        lambda recs: [{**r, "color": "1"} if r["kind"] == "hedge" else r for r in recs],
        lambda recs: recs + [[1, 2]],
        lambda recs: recs + [{"i": 1, "j": 1}],
        lambda recs: [{**recs[0], "n": -1}] + recs[1:],
    ], ids=["missing-m", "shape-not-string", "color-not-integer", "not-an-object",
            "no-kind", "negative-n"])
    def test_render_growth_records_reader_rejects_bad_fields(self, edit):
        from growthkit.render import ParseError, parse_growth_records
        rc, out, _ = run_cli("render", "--algorithm", "rs-row",
                             "--perm", "2 3 1", "--format", "records")
        assert rc == 0
        recs = edit([json.loads(line) for line in out.splitlines()])
        with pytest.raises(ParseError):
            parse_growth_records("\n".join(json.dumps(r) for r in recs))

    @pytest.mark.parametrize("fmt", ["text", "records"])
    @pytest.mark.parametrize("what", ["p", "q"])
    @pytest.mark.parametrize("name, perm", [("left-right", "6o 4o 7 5 2 3 1o"),
                                            ("worley-sagan", "1 2 5 4 3")],
                             ids=["quadrant", "octant"])
    def test_render_a_tableau(self, name, perm, what, fmt):
        alg = get_algorithm(name)
        g = run_growth(alg, parse_gp(perm, alg.r))
        tableau, suffixes = ((extract_P(g), alg.p_suffixes) if what == "p"
                             else (extract_Q(g), alg.q_suffixes))
        want = render_tableau(tableau, fmt, suffixes, what.upper())
        rc, out, err = run_cli("render", "--algorithm", name, "--perm", perm,
                               "--what", what, "--format", fmt)
        assert (rc, out, err) == (0, want + "\n", "")

    def test_bad_permutation_is_reported(self):
        rc, _, err = run_cli("run", "--algorithm", "rs-row", "--perm", "1 1")
        assert rc == 2 and "error:" in err

    def test_unknown_algorithm(self):
        rc, _, err = run_cli("run", "--algorithm", "nope", "--perm", "1")
        assert rc == 2 and "unknown algorithm" in err


class TestInvert:
    @pytest.mark.parametrize("case", FIGURES, ids=[c[0] for c in FIGURES])
    def test_round_trip_through_files(self, case, tmp_path):
        name, alg, perm, p_text, q_text = case
        p_file, q_file = tmp_path / "p.txt", tmp_path / "q.txt"
        p_file.write_text(p_text)
        q_file.write_text(q_text)
        rc, out, _ = run_cli("invert", "--algorithm", alg,
                             "--p", str(p_file), "--q", str(q_file))
        assert rc == 0
        assert out.strip() == f"permutation: {perm}"

    @staticmethod
    def _record_files(tmp_path, algorithm, perm):
        """P and Q files cut from the records output of run."""
        rc, out, _ = run_cli("run", "--algorithm", algorithm, "--perm", perm,
                             "--format", "records")
        assert rc == 0
        lines = out.splitlines()
        q_start = max(k for k, line in enumerate(lines) if '"tableau"' in line)
        p_file, q_file = tmp_path / "p.jsonl", tmp_path / "q.jsonl"
        p_file.write_text("\n".join(lines[:q_start]) + "\n")
        q_file.write_text("\n".join(lines[q_start:]) + "\n")
        return p_file, q_file

    def test_round_trip_through_record_files(self, tmp_path):
        p_file, q_file = self._record_files(tmp_path, "left-right", "6o 4o 7 5 2 3 1o")
        rc, out, _ = run_cli("invert", "--algorithm", "left-right",
                             "--p", str(p_file), "--q", str(q_file))
        assert rc == 0 and out.strip() == "permutation: 6o 4o 7 5 2 3 1o"

    @pytest.mark.parametrize("bad", [
        '{"kind": "cell", "row": 1, "col": 1, "value": 1}',
        '{"kind": "cell", "row": "1", "col": 1, "value": 1, "color": 1}',
        '{"kind": "tableau", "geometry": "quadrant"}',
        '{"kind": "tableau", "geometry": "plane", "shape": "1"}',
        '{"row": 1}',
        '[1, 2]',
        '{"kind": ',
    ], ids=["missing-color", "row-not-integer", "missing-shape", "unknown-geometry",
            "no-kind", "not-an-object", "not-json"])
    def test_malformed_record_file_exits_2(self, tmp_path, bad):
        p_file, q_file = self._record_files(tmp_path, "rs-row", "2 3 1")
        p_file.write_text(p_file.read_text() + bad + "\n")
        rc, out, err = run_cli("invert", "--algorithm", "rs-row",
                               "--p", str(p_file), "--q", str(q_file))
        assert rc == 2 and out == ""
        assert err.startswith("error: line 5: ")

    @pytest.mark.parametrize("perm", ["2 3 1", "1"])
    def test_tableaux_of_another_geometry_exit_2(self, tmp_path, perm):
        p_file, q_file = self._record_files(tmp_path, "shifted-column", perm)
        rc, out, err = run_cli("invert", "--algorithm", "rs-row",
                               "--p", str(p_file), "--q", str(q_file))
        assert rc == 2 and out == ""
        assert err == ("error: rs-row runs on the quadrant, but P is on the octant "
                       "and Q on the octant\n")

    @pytest.mark.parametrize("algorithm,p_text,q_text,token", [
        ("double-circle", "1b 4b 7\n2 5\n3 6b", "1 3 6b\n2b 5\n4b 7", "1b"),
        ("double-circle", "1o 4o 7\n2 5\n3 6o", "1 3 6o\n2o 5\n4o 7", "6o"),
        ("left-right", "1 2 3 7\n4 5\n6", "1b 2b 3 7b\n4 6\n5", "1b"),
    ], ids=["q-mark-in-p", "p-mark-in-q", "b-when-r-is-2"])
    def test_a_mark_of_the_other_tableau_exits_2(self, tmp_path, algorithm, p_text,
                                                   q_text, token):
        p_file, q_file = tmp_path / "p.txt", tmp_path / "q.txt"
        p_file.write_text(p_text)
        q_file.write_text(q_text)
        rc, out, err = run_cli("invert", "--algorithm", algorithm,
                               "--p", str(p_file), "--q", str(q_file))
        assert rc == 2 and out == ""
        assert err == (f"error: tableau entry {token!r}: {token[-1]!r} marks no color "
                       f"of this tableau\n")

    def test_record_files_of_the_other_tableau_exit_2(self, tmp_path):
        p_file, q_file = self._record_files(tmp_path, "rs-row", "2 3 4 1")
        rc, out, err = run_cli("invert", "--algorithm", "rs-row",
                               "--p", str(q_file), "--q", str(p_file))
        assert rc == 2 and out == ""
        assert err == "error: line 1: the header names tableau 'Q', not 'P'\n"

    def test_a_huge_shape_record_exits_2_at_once(self, tmp_path):
        """Memory is bounded by the input, not by the shape a header names.
        The child runs under a 1 GiB address-space limit, so a build that
        lists the boxes of the shape fails fast instead of filling memory."""
        resource = pytest.importorskip("resource")
        p_file, q_file = tmp_path / "p.jsonl", tmp_path / "q.txt"
        p_file.write_text('{"kind": "tableau", "geometry": "quadrant", '
                          '"shape": "99999999999999999999"}\n')
        q_file.write_text("1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "growthkit.cli", "invert", "--algorithm", "rs-row",
             "--p", str(p_file), "--q", str(q_file)],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: tableau entries must fill the shape exactly\n"
        assert time.perf_counter() - start < 5

    def test_shape_mismatch_rejected(self, tmp_path):
        (tmp_path / "p.txt").write_text("1 2")
        (tmp_path / "q.txt").write_text("1\n2")
        rc, _, err = run_cli("invert", "--algorithm", "rs-row",
                             "--p", str(tmp_path / "p.txt"),
                             "--q", str(tmp_path / "q.txt"))
        assert rc == 2 and "error:" in err


class TestList:
    def test_lists_all_twelve(self):
        rc, out, _ = run_cli("list")
        assert rc == 0 and len(out.strip().splitlines()) == 12
        assert "dual-shifted-column" in out


class TestVerify:
    def test_weights_all(self):
        rc, out, _ = run_cli("verify", "weights", "--max-size", "6")
        assert rc == 0 and out.count("PASS") == 8

    def test_weights_single(self):
        rc, out, _ = run_cli("verify", "weights", "--instantiation", "shifted-1",
                             "--max-size", "8")
        assert rc == 0 and "PASS" in out

    def test_weights_unknown(self):
        rc, _, err = run_cli("verify", "weights", "--instantiation", "bogus")
        assert rc == 2

    def test_diagram_algorithm(self):
        rc, out, _ = run_cli("verify", "diagram", "--algorithm", "worley-sagan",
                             "--max-size", "6")
        assert rc == 0 and "PASS" in out

    def test_diagram_algorithm_that_fails(self, monkeypatch):
        """A table with no alpha arrow fails at every shape: each shape's
        failures, then the tally and the summary."""
        broken = AlgorithmSpec("broken", get_algorithm("rs-row").instantiation,
                               TableRule({_11: (SW, _11)}), "no alpha arrow")
        monkeypatch.setitem(catalog._REGISTRY, "broken", broken)
        rc, out, _ = run_cli("verify", "diagram", "--algorithm", "broken", "--max-size", "1")
        lines = out.splitlines()
        assert rc == 1 and len(lines) == 8
        assert (lines[0], lines[3]) == ("FAIL shape=0", "FAIL shape=1")
        assert all(line.startswith("  ") for line in lines[1:3] + lines[4:6])
        assert lines[6] == "FAIL diagrams algorithm=broken shapes<= 1 checked=2 failures=2"
        summary = json.loads(lines[7])
        assert summary["ok"] is False and len(summary["failures"]) == 4

    def test_diagram_user_file_point_at_row_0(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("bump (0,1) <1,1> -> (2,1) <1,1>\n")
        rc, out, err = run_cli("verify", "diagram", "--file", str(f),
                               "--shape", "1", "--instantiation", "unshifted-1")
        assert (rc, out, err) == (2, "", "error: point coordinates must be >= 1, got (0,1)\n")

    def test_diagram_user_file_ok(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("alpha 1 -> (1,2) <1,1>\nbump (1,1) <1,1> -> (2,1) <1,1>\n")
        rc, out, _ = run_cli("verify", "diagram", "--file", str(f),
                             "--shape", "1", "--instantiation", "unshifted-1")
        assert rc == 0 and "ok" in out

    def test_diagram_user_file_invalid(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("alpha 1 -> (1,2) <1,1>\n")
        rc, out, _ = run_cli("verify", "diagram", "--file", str(f),
                             "--shape", "1", "--instantiation", "unshifted-1")
        assert rc == 1 and "FAIL" in out

    def test_diagram_user_file_failures_follow_format_diagram(self, tmp_path):
        # neither the file's order nor the arrow set's iteration order; the
        # two arrows of alpha key 1 go by target
        f = tmp_path / "psi.txt"
        f.write_text("bump (3,3) <1,1> -> (2,2) <1,1>\nalpha 1 -> (3,1) <1,1>\n"
                     "bump (2,2) <1,1> -> (3,3) <1,1>\nalpha 1 -> (2,3) <1,1>\n")
        rc, out, _ = run_cli("verify", "diagram", "--file", str(f),
                             "--shape", "1", "--instantiation", "unshifted-1")
        assert rc == 1 and json.loads(out.splitlines()[-1])["failures"] == [
            "alpha arrows must cover colors 1..1 exactly once, got [1, 1]",
            "bump source (2,2) is not a deletion point",
            "bump source (3,3) is not a deletion point",
            "deletion point (1,1) must emit one bump per pair in [1]x[1], got []",
            "arrow target (2,3) is not an insertion point",
            "arrow target (3,1) is not an insertion point",
            "arrow target (3,3) is not an insertion point",
            "arrow target (2,2) is not an insertion point",
            "insertion point (1,2) must receive one arrow per pair in [1]x[1], got []",
            "insertion point (2,1) must receive one arrow per pair in [1]x[1], got []"]

    def test_bijection(self):
        rc, out, _ = run_cli("verify", "bijection", "--algorithm", "rs-row", "--n", "3")
        assert rc == 0 and "PASS" in out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bijection_past_the_size_guard_exits_2(self, monkeypatch, workers):
        monkeypatch.setattr(oracle, "_sweep_branches", None)
        rc, out, err = run_cli("verify", "bijection", "--algorithm", "rs-row", "--n", "13",
                               env={"GROWTHKIT_THREADS": workers})
        assert rc == 2 and "Traceback" not in err and out == ""
        assert err == ("error: n=13 is too large for rs-row: its 6227020800 inputs would "
                       "take 24908083200 bytes of slots, which number at most 4294967294\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_duality_past_the_size_guard_exits_2(self, monkeypatch, workers):
        """A mapped rank takes 4 bytes: n = 13 at r = 1 is refused before
        any sweep, with the bijection check's threshold and message."""
        monkeypatch.setattr(oracle, "_sweep_branches", None)
        rc, out, err = run_cli("verify", "duality", "--kind", "inversion", "--a", "rs-row",
                               "--n", "13", env={"GROWTHKIT_THREADS": workers})
        assert rc == 2 and "Traceback" not in err and out == ""
        assert err == ("error: n=13 is too large for rs-row: its 6227020800 inputs would "
                       "take 24908083200 bytes of slots, which number at most 4294967294\n")

    @pytest.mark.parametrize("check", [
        ["bijection", "--algorithm", "rs-row", "--n", "2000"],
        ["duality", "--kind", "transpose", "--a", "rs-row", "--b", "rs-col", "--n", "20000"],
    ], ids=["bijection", "transpose"])
    def test_a_huge_size_is_refused_at_once(self, check):
        """The guard stops multiplying once the inputs pass the slots, so
        it prints no number past that and builds no rank weights."""
        start = time.monotonic()
        rc, out, err = run_cli("verify", *check)
        assert time.monotonic() - start < 2
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert re.fullmatch(r"error: n=\d+ is too large for rs-(row|col): its over \d+ inputs "
                            r"would take over \d+ bytes of slots, which number at most "
                            r"4294967294\n", err), err

    def test_threads_env_must_be_an_integer(self):
        rc, out, err = run_cli("verify", "bijection", "--algorithm", "rs-row",
                               "--n", "3", env={"GROWTHKIT_THREADS": "abc"})
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "GROWTHKIT_THREADS" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("check", [
        ["bijection", "--algorithm", "rs-row", "--n", "3"],
        ["duality", "--kind", "inversion", "--a", "rs-row", "--n", "3"],
    ], ids=["bijection", "duality"])
    def test_threads_env_must_be_at_least_1(self, threads, check):
        rc, out, err = run_cli("verify", *check, env={"GROWTHKIT_THREADS": threads})
        assert rc == 2 and out == ""
        assert err == f"error: GROWTHKIT_THREADS must be an integer >= 1, got {threads!r}\n"

    def test_bijection_with_threads_env(self):
        rc, out, _ = run_cli("verify", "bijection", "--algorithm", "left-right",
                             "--n", "3", env={"GROWTHKIT_THREADS": "4"})
        assert rc == 0 and "PASS" in out

    def test_bijection_summary_names_workers(self):
        rc, out, _ = run_cli("verify", "bijection", "--algorithm", "rs-row",
                             "--n", "3", env={"GROWTHKIT_THREADS": "2"})
        summary = json.loads(out.splitlines()[-1])
        assert rc == 0 and summary["workers"] == 2 and summary["ok"] is True

    def test_duality_summary_line(self):
        outs = []
        for threads in ("1", "3"):
            rc, out, _ = run_cli("verify", "duality", "--kind", "transpose",
                                 "--a", "rs-row", "--b", "rs-row", "--n", "4",
                                 env={"GROWTHKIT_THREADS": threads})
            assert rc == 1
            outs.append(out.splitlines())
        line = outs[0][-1]
        summary = json.loads(line)
        assert line == json.dumps(summary, sort_keys=True)
        assert sorted(summary) == ["a", "b", "check", "checked", "counterexamples",
                                   "kind", "n", "ok", "workers"]
        assert summary["check"] == "duality" and summary["kind"] == "transpose"
        assert summary["checked"] == 33 and summary["ok"] is False
        assert summary["counterexamples"] == [c.strip() for c in outs[0][1:11]]
        # the report does not depend on the worker count
        assert outs[1][:-1] == outs[0][:-1]
        assert json.loads(outs[1][-1]) == {**summary, "workers": 3}

    def test_duality_inversion(self):
        rc, out, _ = run_cli("verify", "duality", "--kind", "inversion",
                             "--a", "rs-row", "--n", "3")
        assert rc == 0 and "PASS" in out

    def test_duality_transpose_with_maps(self):
        rc, out, _ = run_cli("verify", "duality", "--kind", "transpose",
                             "--a", "left-right", "--b", "left-right",
                             "--alpha-map", "swap-uc", "--edge-map", "swap-uc",
                             "--n", "3")
        assert rc == 0 and "PASS" in out

    @pytest.mark.parametrize("argv, flag", [
        (["bijection", "--algorithm", "rs-row", "--n", "-1"], "--n"),
        (["duality", "--kind", "inversion", "--a", "rs-row", "--n", "-2"], "--n"),
        (["diagram", "--algorithm", "rs-row", "--max-size", "-3"], "--max-size"),
        (["weights", "--max-size", "-1"], "--max-size"),
    ], ids=["bijection", "duality", "diagram", "weights"])
    def test_negative_size_exits_2(self, argv, flag):
        rc, out, err = run_cli("verify", *argv)
        assert (rc, out, err) == (2, "", f"error: {flag} must be >= 0\n")

    def test_duality_failure_exit_code(self):
        rc, out, _ = run_cli("verify", "duality", "--kind", "transpose",
                             "--a", "rs-row", "--b", "rs-row", "--n", "3")
        assert rc == 1 and "FAIL" in out

    @pytest.mark.parametrize("argv, message", [
        (["--a", "double-circle", "--alpha-map", "swap-uc"],
         "the alpha map is not defined on color 3"),
        (["--a", "rs-row", "--b", "rs-col", "--alpha-map", "swap-uc"],
         "the alpha map sends color 1 to 2, outside 1..1"),
        (["--a", "sagan1"], "sagan1 runs on the octant"),
        (["--a", "rs-row", "--b", "worley-sagan"], "worley-sagan runs on the octant"),
        (["--a", "double-circle", "--edge-map", "swap-circles"],
         "the edge map sends color 2 to 3, outside 1..2"),
    ], ids=["map-raises", "map-out-of-range", "a-octant", "b-octant", "edge-map-out-of-range"])
    def test_duality_argument_errors_exit_2(self, argv, message):
        rc, out, err = run_cli("verify", "duality", "--kind", "transpose", *argv, "--n", "2")
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_weights_summary_line(self):
        rc, out, _ = run_cli("verify", "weights", "--instantiation", "shifted-1",
                             "--max-size", "3")
        line = out.splitlines()[-1]
        assert rc == 0 and line == json.dumps(
            {"check": "weights", "checked": 5, "failures": [],
             "instantiations": ["shifted-1"], "max_size": 3, "ok": True}, sort_keys=True)

    def test_diagram_summary_lines(self, tmp_path):
        rc, out, _ = run_cli("verify", "diagram", "--algorithm", "rs-row", "--max-size", "3")
        assert rc == 0 and json.loads(out.splitlines()[-1]) == {
            "algorithm": "rs-row", "check": "diagram", "checked": 7, "failures": [],
            "max_size": 3, "ok": True}
        f = tmp_path / "psi.txt"
        f.write_text("alpha 1 -> (1,2) <1,1>\n")
        rc, out, _ = run_cli("verify", "diagram", "--file", str(f),
                             "--shape", "1", "--instantiation", "unshifted-1")
        lines = out.splitlines()
        summary = json.loads(lines[-1])
        assert rc == 1 and lines[-1] == json.dumps(summary, sort_keys=True)
        assert summary["ok"] is False and summary["shape"] == "1"
        assert summary["failures"] == [l.strip() for l in lines[1:-1]]

    @pytest.mark.parametrize("flag", ["--alpha-map", "--edge-map"])
    @pytest.mark.parametrize("value", ["swap-uc", "identity"])
    def test_duality_maps_are_refused_under_inversion(self, flag, value):
        # swap-uc is not defined on rs-row's one color: ignoring it would pass
        rc, out, err = run_cli("verify", "duality", "--kind", "inversion",
                               "--a", "rs-row", flag, value, "--n", "2")
        assert (rc, out) == (2, "")
        assert err == "error: --alpha-map and --edge-map apply only to --kind transpose\n"

    def test_diagram_file_refuses_an_algorithm(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("alpha 1 -> (1,2) <1,1>\nbump (1,1) <1,1> -> (2,1) <1,1>\n")
        rc, out, err = run_cli("verify", "diagram", "--file", str(f), "--algorithm", "rs-row",
                               "--shape", "1", "--instantiation", "unshifted-1")
        assert (rc, out) == (2, "")
        assert err == "error: --file checks one diagram and takes no --algorithm\n"

    @pytest.mark.parametrize("argv, flag", [
        (["--max-size", "2", "--shape", "3", "--instantiation", "shifted-1"], "--shape"),
        (["--shape", "3"], "--shape"),
        (["--instantiation", "shifted-1"], "--instantiation"),
    ], ids=["both", "shape", "instantiation"])
    def test_diagram_algorithm_refuses_file_flags(self, argv, flag):
        rc, out, err = run_cli("verify", "diagram", "--algorithm", "rs-row", *argv)
        assert (rc, out, err) == (2, "", f"error: {flag} applies only to --file\n")

    @pytest.mark.parametrize("size", ["3", "10"])
    def test_diagram_file_refuses_a_max_size(self, tmp_path, size):
        f = tmp_path / "psi.txt"
        f.write_text("alpha 1 -> (1,2) <1,1>\n")
        rc, out, err = run_cli("verify", "diagram", "--file", str(f), "--shape", "1",
                               "--instantiation", "unshifted-1", "--max-size", size)
        assert (rc, out) == (2, "")
        assert err == "error: --file checks one diagram and takes no --max-size\n"

    @pytest.mark.parametrize("argv, message", [
        (["--file", "psi.txt"], "--file needs --shape and --instantiation"),
        (["--file", "psi.txt", "--shape", "1", "--instantiation", "bogus"],
         "unknown instantiation 'bogus'"),
        ([], "need --algorithm or --file"),
    ], ids=["file-alone", "unknown-instantiation", "no-mode"])
    def test_diagram_argument_errors_exit_2(self, tmp_path, argv, message):
        f = tmp_path / "psi.txt"
        f.write_text("alpha 1 -> (1,2) <1,1>\n")
        argv = [str(f) if a == "psi.txt" else a for a in argv]
        rc, out, err = run_cli("verify", "diagram", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_diagram_max_size_defaults_to_10(self):
        rc, out, _ = run_cli("verify", "diagram", "--algorithm", "rs-row")
        lines = out.splitlines()
        assert rc == 0 and lines[-2].endswith("shapes<= 10 checked=139 failures=0")
        assert json.loads(lines[-1])["max_size"] == 10

    def test_duality_default_bound_shrinks_for_four_colors(self):
        rc, out, _ = run_cli("verify", "duality", "--kind", "inversion",
                             "--a", "double-circle")
        assert rc == 0 and "n<=3" in out


LAZY_GRID_CASES = [("rs-row", "9 _ 1"), ("sagan1", "1 2 5 4 3"),
                   ("double-circle", "6o 4ob 7 5b 2 3b 1o"), ("jitter", "3o _ 1 _ 5")]


class TestGrowthGridWhenRead:
    """run_growth builds its grid only when read; what the CLI prints of it
    is the grid of the cell-by-cell fold."""

    @pytest.mark.parametrize("fmt", ["text", "records", "latex"])
    @pytest.mark.parametrize("case", LAZY_GRID_CASES, ids=[c[0] for c in LAZY_GRID_CASES])
    def test_render_growth_prints_the_fold(self, case, fmt):
        name, perm = case
        alg = get_algorithm(name)
        want = render_growth(fold_growth(alg, parse_gp(perm, alg.r)), fmt, alg)
        rc, out, _ = run_cli("render", "--algorithm", name, "--perm", perm,
                             "--what", "growth", "--format", fmt)
        assert rc == 0 and out == want + "\n"
        rc, out, _ = run_cli("run", "--algorithm", name, "--perm", perm,
                             "--format", fmt, "--diagram")
        assert rc == 0 and out.endswith("\n" + want + "\n")

    @pytest.mark.parametrize("fmt", ["text", "records", "latex"])
    @pytest.mark.parametrize("command", [("render", "--what", "growth"), ("run", "--diagram")],
                             ids=["render", "run"])
    def test_a_huge_value_refuses_the_grid(self, command, fmt):
        """The grid's size follows the largest value, so a growth picture
        past GRID_CELLS is refused before anything is allocated.  The child
        runs under a 1 GiB address-space limit, so a build fails fast
        instead of filling memory."""
        resource = pytest.importorskip("resource")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "growthkit.cli", *command, "--algorithm", "rs-row",
             "--perm", "99999999999999999999", "--format", fmt],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: a 100000000000000000000 x 2 growth grid has more "
                               "than 1000000 cells\n")
        assert time.perf_counter() - start < 5

    def test_the_budget_bounds_the_cells(self, monkeypatch):
        from growthkit import growth
        monkeypatch.setattr(growth, "GRID_CELLS", 2000)
        rs_row = get_algorithm("rs-row")
        assert len(growth.run_growth(rs_row, parse_gp("999", 1)).nodes) == 1000
        with pytest.raises(growth.GrowthError, match=r"^a 1001 x 2 growth grid has more "
                           r"than 2000 cells$"):
            growth.run_growth(rs_row, parse_gp("1000", 1)).nodes


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self):
        values = list(range(1, 151))
        random.Random(3).shuffle(values)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        # the growth text of n = 150 is far larger than a pipe's buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "growthkit.cli", "render", "--algorithm", "rs-row",
             "--perm", " ".join(map(str, values)), "--what", "growth"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"0 --- 1")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""
