import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from growthkit.cli import main
from figures import FIGURES

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

    def test_bijection(self):
        rc, out, _ = run_cli("verify", "bijection", "--algorithm", "rs-row", "--n", "3")
        assert rc == 0 and "PASS" in out

    def test_threads_env_must_be_an_integer(self):
        rc, out, err = run_cli("verify", "bijection", "--algorithm", "rs-row",
                               "--n", "3", env={"GROWTHKIT_THREADS": "abc"})
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "GROWTHKIT_THREADS" in err

    def test_bijection_with_threads_env(self):
        rc, out, _ = run_cli("verify", "bijection", "--algorithm", "left-right",
                             "--n", "3", env={"GROWTHKIT_THREADS": "4"})
        assert rc == 0 and "PASS" in out

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

    def test_duality_failure_exit_code(self):
        rc, out, _ = run_cli("verify", "duality", "--kind", "transpose",
                             "--a", "rs-row", "--b", "rs-row", "--n", "3")
        assert rc == 1 and "FAIL" in out

    def test_duality_default_bound_shrinks_for_four_colors(self):
        rc, out, _ = run_cli("verify", "duality", "--kind", "inversion",
                             "--a", "double-circle")
        assert rc == 0 and "n<=3" in out
