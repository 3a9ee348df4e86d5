import argparse
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from gapcert import cli, spectral
from gapcert.cli import CSV_HEADER, build_parser, cs_witnesses, main
from gapcert.criteria import threshold_main
from gapcert.models import aklt, heisenberg_ferro, random_projection, save_model
from gapcert.operators import NNInteraction
from gapcert.spectral import EigenSolveConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGap:
    def test_ferro_open_frozen(self, capsys):
        rc, out, _ = run(capsys, "gap", "--model", "heisenberg-ferro", "--D", "1", "--n", "6")
        assert rc == 0
        assert "geometry: D=1, n=6, side 7, open, 128 states" in out
        assert "kernel_dim: 8" in out
        assert "frustration_free: true" in out
        assert "gap: 0.0990311320976" in out
        assert "method: dense" in out

    def test_aklt_periodic_frozen(self, capsys):
        rc, out, _ = run(
            capsys, "gap", "--model", "aklt", "--n", "4", "--boundary", "periodic"
        )
        assert rc == 0
        assert "243 states" in out
        assert "kernel_dim: 1" in out
        assert "gap: 0.453956598769" in out

    def test_dense_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GAPCERT_DENSE_LIMIT", "1")
        rc, out, _ = run(capsys, "gap", "--model", "heisenberg-ferro", "--D", "1", "--n", "6")
        assert rc == 0
        assert "method: iterative" in out
        assert "gap: 0.0990311320976" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GAPCERT_DENSE_LIMIT", "1")
        rc, out, _ = run(
            capsys, "gap", "--model", "heisenberg-ferro", "--D", "1", "--n", "6",
            "--dense-limit", "4096",
        )
        assert rc == 0
        assert "method: dense" in out

    def test_iterative_start_k_capped_below_dimension(self, capsys):
        # 8 states: ARPACK takes at most k = 6, so the default k = 8 is capped
        rc, out, err = run(
            capsys, "gap", "--model", "heisenberg-ferro", "--n", "2", "--dense-limit", "1"
        )
        assert rc == 0, err
        assert "gap: 0.5\n" in out
        assert "method: iterative" in out

    def test_arpack_refusal_falls_back_to_dense(self, capsys, tmp_path, monkeypatch):
        # 81 states with a 31-fold kernel: ARPACK stops with error 3 (no
        # shifts could be applied), so the block is solved by dense eigh
        save_model(random_projection(3, 2, 5), tmp_path / "rp.model")
        argv = ["gap", "--model", str(tmp_path / "rp.model"), "--n", "3", "--dense-limit", "1"]
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err
        assert "kernel_dim: 31\n" in out
        assert "gap: 0.136158539934\n" in out
        # above the fallback's size the same refusal stays a solver failure
        monkeypatch.setattr(spectral, "DEFAULT_DENSE_LIMIT", 80)
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert "ARPACK could not iterate at dim 81: ARPACK error 3" in err
        assert out == ""

    def test_one_default_dense_limit(self, monkeypatch):
        monkeypatch.delenv("GAPCERT_DENSE_LIMIT", raising=False)
        cfg = build_parser().parse_args(["gap", "--model", "aklt", "--n", "1"])
        assert EigenSolveConfig().dense_limit == cli._dense_limit(cfg)

    def test_bad_env_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GAPCERT_DENSE_LIMIT", "lots")
        rc, _, err = run(capsys, "gap", "--model", "heisenberg-ferro", "--n", "4")
        assert rc == 3
        assert "GAPCERT_DENSE_LIMIT" in err

    def test_negative_dense_limit_is_config_error(self, capsys, monkeypatch):
        monkeypatch.delenv("GAPCERT_DENSE_LIMIT", raising=False)
        for argv in (
            ["gap", "--model", "heisenberg-ferro", "--n", "4", "--dense-limit", "-5"],
            ["verify", "per-box", "--model", "aklt", "--n", "1", "--dense-limit", "-1"],
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (3, ""), argv
            assert "--dense-limit must be >= 0, got" in err
        monkeypatch.setenv("GAPCERT_DENSE_LIMIT", "-3")
        rc, out, err = run(capsys, "gap", "--model", "heisenberg-ferro", "--n", "4")
        assert (rc, out) == (3, "")
        assert "GAPCERT_DENSE_LIMIT must be >= 0, got -3" in err
        # 0 stays valid: every solve takes the iterative path
        monkeypatch.setenv("GAPCERT_DENSE_LIMIT", "0")
        rc, out, err = run(capsys, "gap", "--model", "heisenberg-ferro", "--n", "6")
        assert rc == 0, err
        assert "method: iterative" in out
        assert "gap: 0.0990311320976" in out


class TestCertify:
    def test_gm_aklt_frozen(self, capsys):
        rc, out, _ = run(capsys, "certify", "--theorem", "gm", "--model", "aklt", "--n", "6")
        assert rc == 0
        for line in [
            "theorem: gm",
            "local_gap: 0.39845123178",
            "threshold: 0.142857142857",
            "margin: 0.255594088923",
            "prefactor: 1.09375",
            "implied_bound: 0.27955603476",
            "certified: true",
            "rigorous: true",
        ]:
            assert line in out

    def test_lm_prints_gap_table(self, capsys):
        rc, out, _ = run(
            capsys, "certify", "--theorem", "lm", "--model", "heisenberg-ferro", "--n", "4"
        )
        assert rc == 0
        assert "gaps: l=2:1 l=3:0.5 l=4:0.292893218813" in out
        assert "certified: false" in out

    def test_main_needs_override_below_d3(self, capsys):
        rc, _, err = run(
            capsys, "certify", "--theorem", "main", "--model", "heisenberg-ferro", "--n", "3"
        )
        assert rc == 3
        assert "D >= 3" in err
        rc2, out, _ = run(
            capsys, "certify", "--theorem", "main", "--model", "heisenberg-ferro",
            "--n", "3", "--override-low-d",
        )
        assert rc2 == 0
        assert "rigorous: false" in out


class TestExitCodes:
    def test_unknown_model(self, capsys):
        rc, _, err = run(capsys, "gap", "--model", "no-such-model", "--n", "4")
        assert rc == 3
        assert "unknown model" in err

    def test_missing_model_file(self, capsys):
        rc, _, err = run(capsys, "gap", "--model", "missing.model", "--n", "4")
        assert rc == 3

    def test_domain_error(self, capsys):
        rc, _, err = run(
            capsys, "certify", "--theorem", "main", "--model", "aklt", "--n", "1"
        )
        assert rc == 3
        assert "n >= 3" in err

    def test_parser_error(self, capsys):
        # argparse errors leave through SystemExit, remapped to code 3
        for argv in (["gap", "--model", "aklt", "--bogus-flag"], [], ["verify", "no-such-check"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 3
        capsys.readouterr()

    def test_negative_seed(self, capsys):
        for argv in (
            ["gap", "--model", "heisenberg-ferro", "--n", "2", "--dense-limit", "1"],
            ["gap", "--model", "heisenberg-ferro", "--n", "5", "--dense-limit", "1"],
            ["verify", "prop-key", "--model", "heisenberg-ferro", "--n", "1", "--N", "1",
             "--dense-limit", "1"],
            ["verify", "counting", "--D", "1", "--n", "1", "--N", "2"],
        ):
            rc, out, err = run(capsys, *argv, "--seed", "-2")
            assert rc == 3, argv
            assert "--seed" in err
            assert out == ""

    def test_model_naming_a_directory(self, capsys, tmp_path):
        rc, out, err = run(capsys, "gap", "--model", str(tmp_path), "--n", "3")
        assert rc == 3
        assert err.startswith("error:")
        assert out == ""

    def test_unwritable_sweep_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        rc, out, err = run(
            capsys, "sweep", "--model", "heisenberg-ferro", "--n-from", "2", "--n-to", "3",
            "--out", str(path),
        )
        assert rc == 3
        assert err.startswith("error:")
        assert str(path) in err
        assert not path.exists()

    def test_unwritable_sweep_out_refused_before_any_solve(self, capsys, monkeypatch, tmp_path):
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep solved before opening --out")

        monkeypatch.setattr(cli, "subsystem_gap", no_solve)
        path = tmp_path / "missing" / "x.csv"
        rc, out, err = run(
            capsys, "sweep", "--model", "heisenberg-ferro", "--n-from", "2", "--n-to", "12",
            "--out", str(path),
        )
        assert rc == 3
        assert err.startswith("error:")
        assert str(path) in err
        assert out == ""

    @pytest.mark.parametrize("geometry", [
        ["--n-from", "1", "--n-to", "3", "--boundary", "periodic"],
        ["--D", "0", "--n-from", "2", "--n-to", "3"],
    ])
    def test_sweep_geometry_error_keeps_existing_out(self, capsys, tmp_path, geometry):
        path = tmp_path / "prev.csv"
        path.write_text("old,rows\n")
        rc, out, err = run(capsys, "sweep", "--model", "aklt", *geometry, "--out", str(path))
        assert rc == 3
        assert err.startswith("error:")
        assert out == ""
        assert path.read_text() == "old,rows\n"

    def test_malformed_model_file(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("d=2\n1.0 0,0 0,0 0,0\n")
        rc, _, err = run(capsys, "gap", "--model", str(path), "--n", "3")
        assert rc == 3
        assert "expected 're,im'" in err

    def test_unconverged_lanczos_is_numerical_failure(self, capsys, monkeypatch):
        # one ARPACK iteration converges at most a few Ritz pairs of the 8-site
        # chain; that is a solver failure (exit 2), never a partial spectrum
        solver_config = cli._solver_config
        monkeypatch.setattr(
            cli, "_solver_config", lambda cfg: replace(solver_config(cfg), max_iter=1)
        )
        rc, out, err = run(
            capsys, "gap", "--model", "heisenberg-ferro", "--D", "1", "--n", "7",
            "--dense-limit", "1",
        )
        assert rc == 2
        assert "numerical failure:" in err
        assert "gap:" not in out

    @pytest.mark.parametrize(
        "exc", [MemoryError("Unable to allocate 1.00 GiB for an array"), MemoryError()]
    )
    def test_out_of_memory_is_config_error(self, capsys, monkeypatch, exc):
        # exit 1 means "verification failed"; an allocation failure is not that
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "verify_proposition_key", fail)
        rc, out, err = run(
            capsys, "verify", "prop-key", "--model", "heisenberg-ferro", "--D", "3",
            "--n", "2", "--N", "1",
        )
        assert rc == 3
        assert out == ""
        assert err.startswith("error: out of memory: ")
        assert err.count("\n") == 1


class TestVerify:
    def test_counting_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "counting", "--D", "3", "--n", "2", "--N", "5")
        assert rc == 0
        assert out.strip().endswith("PASS")

    def test_counting_fail(self, capsys):
        rc, out, _ = run(capsys, "verify", "counting", "--D", "2", "--n", "3", "--N", "2")
        assert rc == 1
        assert "disjoint pair" in out
        assert "not guaranteed" in out
        assert out.strip().splitlines()[-1] == "FAIL (6 discrepancies)"

    def test_square_identity(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "square-identity", "--model", "heisenberg-ferro",
            "--D", "1", "--side", "6",
        )
        assert rc == 0
        assert out.strip().endswith("PASS")

    def test_square_identity_random_needs_rank(self, capsys):
        rc, _, err = run(
            capsys, "verify", "square-identity", "--model", "random", "--D", "2", "--side", "2"
        )
        assert rc == 3
        assert "--rank" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_square_identity_needs_a_trial(self, capsys, trials):
        rc, out, err = run(
            capsys, "verify", "square-identity", "--model", "heisenberg-ferro", "--D", "1",
            "--side", "4", "--trials", trials,
        )
        assert rc == 3
        assert "--trials" in err
        assert "PASS" not in out

    def test_cauchy_schwarz(self, capsys):
        rc, out, _ = run(capsys, "verify", "cauchy-schwarz", "--d", "2", "--samples", "10")
        assert rc == 0
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize("d", ["1", "0"])
    def test_cauchy_schwarz_needs_d_two(self, capsys, d):
        rc, out, err = run(capsys, "verify", "cauchy-schwarz", "--d", d, "--samples", "3")
        assert rc == 3
        assert "--d" in err
        assert out == ""

    def test_per_box(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "per-box", "--model", "heisenberg-ferro", "--D", "2", "--n", "2"
        )
        assert rc == 0
        assert "box side 3" in out
        assert out.strip().endswith("PASS")

    def test_per_box_dense_limit(self, capsys):
        rc, out, err = run(
            capsys, "verify", "per-box", "--model", "heisenberg-ferro", "--D", "2", "--n", "2",
            "--dense-limit", "16",
        )
        assert rc == 3
        assert "dense limit" in err
        assert "PASS" not in out

    def test_dense_limit_below_one_site(self, capsys, monkeypatch):
        # d=3: a limit under 3 holds no site, so no site count may be named
        monkeypatch.delenv("GAPCERT_DENSE_LIMIT", raising=False)
        for limit in ("2", "0"):
            rc, out, err = run(
                capsys, "verify", "per-box", "--model", "aklt", "--D", "1", "--n", "1",
                "--dense-limit", limit,
            )
            assert (rc, out) == (3, ""), limit
            assert f"exceeds dense limit {limit}; at d=3 not even one site fits" in err
            assert "at most 0 sites" not in err

    def test_cauchy_schwarz_dense_limit(self, capsys):
        rc, out, err = run(capsys, "verify", "cauchy-schwarz", "--d", "3", "--dense-limit", "8")
        assert rc == 3
        assert "dense limit" in err
        assert "PASS" not in out

    def test_coarse_grain_identity(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "coarse-grain-identity", "--model", "heisenberg-ferro-fr",
            "--R", "1",
        )
        assert rc == 0
        assert out.strip().endswith("PASS")

    def test_cs_witnesses_deterministic(self):
        w1 = cs_witnesses(2, 10, 7)
        w2 = cs_witnesses(2, 10, 7)
        assert w1 == w2
        assert all(w >= -1e-10 for w in w1)


class TestSweep:
    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--model", "heisenberg-ferro", "--n-from", "4", "--n-to", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len([l for l in lines if not l.startswith("#")]) == 6
        assert any(l.startswith("# fit:") for l in lines)

    def test_frozen_row_and_fit(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--model", "heisenberg-ferro", "--n-from", "4", "--n-to", "10"
        )
        assert rc == 0
        assert "heisenberg-ferro,1,4,open,0.292893218813,5,0.375,0.3,1.22474487139,,0" in out
        assert "alpha=1.95427813066" in out

    def test_gm_margin_turns_positive(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--model", "aklt", "--theorem", "gm",
            "--n-from", "3", "--n-to", "5",
        )
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if l.startswith("aklt")]
        margins = {int(r[2]): float(r[9]) for r in rows}
        assert abs(margins[3]) < 1e-12
        assert margins[4] > 0.14
        # n = 3 is an exact tie, inside the error budget whatever its sign
        rc, out, _ = run(capsys, "certify", "--model", "aklt", "--theorem", "gm", "--n", "3")
        assert rc == 0
        assert "certified: false\n" in out

    def test_main_margin_selected(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--model", "heisenberg-ferro", "--theorem", "main",
            "--n-from", "2", "--n-to", "5",
        )
        assert rc == 0
        rows = {
            int(r[2]): r
            for r in (line.split(",") for line in out.splitlines())
            if r[0] == "heisenberg-ferro"
        }
        assert rows[2][6] == rows[2][9] == ""
        for n in (3, 4, 5):
            gap, margin = float(rows[n][4]), float(rows[n][9])
            assert margin == pytest.approx(gap - threshold_main(n), abs=1e-11)
        assert rows[3][9] == "-0.0555555555556"
        assert rows[4][9] == "-0.0821067811865"

    def test_empty_range(self, capsys):
        rc, _, err = run(
            capsys, "sweep", "--model", "aklt", "--n-from", "5", "--n-to", "3"
        )
        assert rc == 3
        assert "empty sweep range" in err

    def test_error_rows(self, capsys, tmp_path):
        path = tmp_path / "zero.model"
        save_model(NNInteraction(d=2, P=np.zeros((4, 4))), path)
        rc, out, _ = run(
            capsys, "sweep", "--model", str(path), "--n-from", "4", "--n-to", "6"
        )
        assert rc == 2
        assert f"{path},1,4,open,error,,,,,,0" in out
        assert "# error at n=4:" in out
        assert "# fit: skipped" in out


# Exit code, stderr and stdout of `certify`, byte for byte, covering each
# theorem's note lines and the main criterion below D=3 with and without
# --override-low-d.
CERTIFY_GOLDEN = {
    ("gm", "heisenberg-ferro", "1", "5", False): (
        0,
        "",
        "theorem: gm\n"
        "model: heisenberg-ferro (d=2)\n"
        "D: 1\n"
        "n: 5\n"
        "local_gap: 0.190983005625\n"
        "threshold: 0.2\n"
        "margin: -0.00901699437495\n"
        "prefactor: 1.19047619048\n"
        "implied_bound: -0.010734517113\n"
        "certified: false\n"
        "rigorous: true\n"
        "note: open 5-site chain, kernel dim 6\n"
    ),
    ("gm", "aklt", "1", "4", False): (
        0,
        "",
        "theorem: gm\n"
        "model: aklt (d=3)\n"
        "D: 1\n"
        "n: 4\n"
        "local_gap: 0.448955865859\n"
        "threshold: 0.3\n"
        "margin: 0.148955865859\n"
        "prefactor: 1.38888888889\n"
        "implied_bound: 0.206883147027\n"
        "certified: true\n"
        "rigorous: true\n"
        "note: open 4-site chain, kernel dim 4\n"
    ),
    ("lm", "heisenberg-ferro", "1", "4", False): (
        0,
        "",
        "theorem: lm\n"
        "model: heisenberg-ferro (d=2)\n"
        "D: 1\n"
        "n: 4\n"
        "gaps: l=2:1 l=3:0.5 l=4:0.292893218813\n"
        "local_gap: 0.292893218813\n"
        "threshold: 1.22474487139\n"
        "margin: -0.931851652578\n"
        "prefactor: 0.000199339985578\n"
        "implied_bound: -0.000185755294986\n"
        "certified: false\n"
        "rigorous: true\n"
        "note: open chains l = 2..4, min gap at l = 4\n"
    ),
    ("main", "heisenberg-ferro", "1", "3", True): (
        0,
        "",
        "theorem: main\n"
        "model: heisenberg-ferro (d=2)\n"
        "D: 1\n"
        "n: 3\n"
        "local_gap: 0.292893218813\n"
        "threshold: 0.555555555556\n"
        "margin: -0.262662336742\n"
        "prefactor: 1\n"
        "implied_bound: -0.262662336742\n"
        "certified: false\n"
        "rigorous: false\n"
        "note: non-rigorous: main criterion is stated for D >= 3, ran at D=1\n"
        "note: open box {0..3}^1 = side 4, kernel dim 5\n"
    ),
    ("main", "heisenberg-ferro", "2", "3", False): (
        3,
        "error: main criterion is stated for D >= 3; pass allow_nonrigorous_main=True "
        "to explore D=2\n",
        "",
    ),
}


@pytest.mark.parametrize("theorem,model,D,n,override", sorted(CERTIFY_GOLDEN))
def test_certify_output_golden(capsys, theorem, model, D, n, override):
    argv = ["certify", "--theorem", theorem, "--model", model, "--D", D, "--n", n]
    rc, out, err = run(capsys, *argv, *(["--override-low-d"] if override else []))
    want_rc, want_err, want_out = CERTIFY_GOLDEN[(theorem, model, D, n, override)]
    assert rc == want_rc
    assert err == want_err
    assert out == want_out


# Full stdout of `verify counting`, byte for byte, on cases that fail: a
# disjoint-bound failure, doubled side-2 slots, and more than ten
# discrepancies (the "... and K more" line).
COUNTING_GOLDEN = {
    ('2', '3', '2'): (
        'counting check: D=2, n=3, N=2 (torus side 4)\n'
        'edges: expected 12, observed {12: 32}\n'
        'aligned pairs: expected 8, observed {8: 32}\n'
        'bent pairs: expected 9, observed {9: 64}\n'
        'disjoint pairs: bound 9, observed {8: 20, 9: 24, 12: 6}\n'
        'note: N=2 < 2n+1=7: closed forms are not guaranteed in this regime\n'
        'discrepancy: disjoint pair tails (0, 0)/(0, -1) axes 0/0: count 12 > bound 9\n'
        'discrepancy: disjoint pair tails (0, 0)/(0, 1) axes 0/0: count 12 > bound 9\n'
        'discrepancy: disjoint pair tails (0, 0)/(0, 2) axes 0/0: count 12 > bound 9\n'
        'discrepancy: disjoint pair tails (0, 0)/(-1, 0) axes 1/1: count 12 > bound 9\n'
        'discrepancy: disjoint pair tails (0, 0)/(1, 0) axes 1/1: count 12 > bound 9\n'
        'discrepancy: disjoint pair tails (0, 0)/(2, 0) axes 1/1: count 12 > bound 9\n'
        'FAIL (6 discrepancies)\n'
    ),
    ('2', '2', '1'): (
        'counting check: D=2, n=2, N=1 (torus side 2)\n'
        'edges: expected 6, observed {4: 8}\n'
        'aligned pairs: expected 3, observed {}\n'
        'bent pairs: expected 4, observed {4: 16}\n'
        'disjoint pairs: bound 4, observed {4: 4}\n'
        'note: N=1 < 2n+1=5: closed forms are not guaranteed in this regime\n'
        'note: doubled slot pair at site index 0 skipped (side-2 wrap)\n'
        'note: doubled slot pair at site index 0 skipped (side-2 wrap)\n'
        'note: doubled slot pair at site index 1 skipped (side-2 wrap)\n'
        'note: doubled slot pair at site index 2 skipped (side-2 wrap)\n'
        'discrepancy: edge tail=(0, 0) axis=0: count 4 != 6\n'
        'discrepancy: edge tail=(0, 1) axis=0: count 4 != 6\n'
        'discrepancy: edge tail=(1, 0) axis=0: count 4 != 6\n'
        'discrepancy: edge tail=(1, 1) axis=0: count 4 != 6\n'
        'discrepancy: edge tail=(0, 0) axis=1: count 4 != 6\n'
        'discrepancy: edge tail=(0, 1) axis=1: count 4 != 6\n'
        'discrepancy: edge tail=(1, 0) axis=1: count 4 != 6\n'
        'discrepancy: edge tail=(1, 1) axis=1: count 4 != 6\n'
        'FAIL (8 discrepancies)\n'
    ),
    ('2', '3', '1'): (
        'counting check: D=2, n=3, N=1 (torus side 2)\n'
        'edges: expected 12, observed {4: 8}\n'
        'aligned pairs: expected 8, observed {}\n'
        'bent pairs: expected 9, observed {4: 16}\n'
        'disjoint pairs: bound 9, observed {4: 4}\n'
        'note: N=1 < 2n+1=7: closed forms are not guaranteed in this regime\n'
        'note: doubled slot pair at site index 0 skipped (side-2 wrap)\n'
        'note: doubled slot pair at site index 0 skipped (side-2 wrap)\n'
        'note: doubled slot pair at site index 1 skipped (side-2 wrap)\n'
        'note: doubled slot pair at site index 2 skipped (side-2 wrap)\n'
        'discrepancy: edge tail=(0, 0) axis=0: count 4 != 12\n'
        'discrepancy: edge tail=(0, 1) axis=0: count 4 != 12\n'
        'discrepancy: edge tail=(1, 0) axis=0: count 4 != 12\n'
        'discrepancy: edge tail=(1, 1) axis=0: count 4 != 12\n'
        'discrepancy: edge tail=(0, 0) axis=1: count 4 != 12\n'
        'discrepancy: edge tail=(0, 1) axis=1: count 4 != 12\n'
        'discrepancy: edge tail=(1, 0) axis=1: count 4 != 12\n'
        'discrepancy: edge tail=(1, 1) axis=1: count 4 != 12\n'
        'discrepancy: bent pair tails (0, 0)/(0, 0) axes 0/1: count 4 != 9\n'
        'discrepancy: bent pair tails (0, 0)/(0, 1) axes 0/1: count 4 != 9\n'
        '... and 14 more\n'
        'FAIL (24 discrepancies)\n'
    ),
}


@pytest.mark.parametrize("D,n,N", sorted(COUNTING_GOLDEN))
def test_counting_output_golden(capsys, D, n, N):
    rc, out, err = run(capsys, "verify", "counting", "--D", D, "--n", n, "--N", N)
    assert rc == 1
    assert out == COUNTING_GOLDEN[(D, n, N)]
    assert err == ""


# Exit code and stdout of the verifiers that end with an optional tolerance
# line and a PASS/FAIL line.  An expected line that ends in a space is
# matched up to a roundoff-sized value.
VERIFY_GOLDEN = {
    "square-identity --model heisenberg-ferro --D 2 --side 4 --trials 2": (0, [
        "square identity: model heisenberg-ferro, D=2, torus side 4",
        "pairs: 96 touching, 400 disjoint",
        "max residual over 2 random vectors: ",
        "tolerance: 1e-10",
        "PASS",
    ]),
    "square-identity --model random --d 2 --rank 1 --side 4": (0, [
        "square identity: model random-d2-r1-s7, D=1, torus side 4",
        "pairs: 4 touching, 2 disjoint",
        "max residual over 20 random vectors: ",
        "tolerance: 1e-10",
        "PASS",
    ]),
    "cauchy-schwarz": (0, [
        "cauchy-schwarz: d=2, 100 random projection pairs, seed 7",
        "min witness: ",
        "tolerance: -1e-10",
        "PASS",
    ]),
    "cauchy-schwarz --d 3 --samples 10 --seed 2": (0, [
        "cauchy-schwarz: d=3, 10 random projection pairs, seed 2",
        "min witness: ",
        "tolerance: -1e-10",
        "PASS",
    ]),
    "per-box --model heisenberg-ferro --D 1 --n 3": (0, [
        "per-box bound: model heisenberg-ferro, D=1, box side 4",
        "box gap: 0.292893218813",
        "min eig of H_B^2 - gap*H_B: ",
        "tolerance: -1e-9",
        "PASS",
    ]),
    "per-box --model aklt --D 1 --n 3": (0, [
        "per-box bound: model aklt, D=1, box side 4",
        "box gap: 0.448955865859",
        "min eig of H_B^2 - gap*H_B: ",
        "tolerance: -1e-9",
        "PASS",
    ]),
    "prop-key --model heisenberg-ferro --D 2 --n 1 --N 1": (0, [
        "box-sum inequalities: model heisenberg-ferro, D=2, n=1, N=1",
        "box gap: 1",
        "witness upper (rhs - A): ",
        "witness lower (A - c*gap*H): ",
        "in_regime: false",
        "note: out-of-regime: criterion hypotheses are D >= 3, n >= 3, N >= 2n+1; "
        "ran at D=2, n=1, N=1",
        "note: sum identity: max |sum_l H_B v - 2 H v| = ",
        "PASS",
    ]),
    "prop-key --model heisenberg-ferro --D 2 --n 2 --N 1": (1, [
        "box-sum inequalities: model heisenberg-ferro, D=2, n=2, N=1",
        "box gap: 0.5",
        "witness upper (rhs - A): -156",
        "witness lower (A - c*gap*H): ",
        "in_regime: false",
        "note: out-of-regime: criterion hypotheses are D >= 3, n >= 3, N >= 2n+1; "
        "ran at D=2, n=2, N=1",
        "note: sum identity: max |sum_l H_B v - 6 H v| = ",
        "FAIL",
    ]),
    "aligned --model heisenberg-ferro --side 5": (0, [
        "aligned-pair aggregate: model heisenberg-ferro, ring m=5",
        "min eig of 2H + Q: ",
        "tolerance: -1e-9",
        "PASS",
    ]),
    "aligned --model aklt --side 4": (0, [
        "aligned-pair aggregate: model aklt, ring m=4",
        "min eig of 2H + Q: ",
        "tolerance: -1e-9",
        "PASS",
    ]),
    "coarse-grain-identity --model heisenberg-ferro-fr": (0, [
        "coarse-grain: model heisenberg-ferro-fr, d=2, R=1",
        "cell terms: 3 (3 shapes x 1 placements; conserved)",
        "class Face: axes [0], 2 cube(s), 1 term(s), block dim 4, projection ok",
        "class Face: axes [1], 2 cube(s), 1 term(s), block dim 4, projection ok",
        "class Face: axes [2], 2 cube(s), 1 term(s), block dim 4, projection ok",
        "R=1 identity (matrices equal entrywise): true",
        "ground-space preservation on a 2-cube region: true",
        "PASS",
    ]),
    "coarse-grain-identity --model heisenberg-ferro-fr --R 3": (0, [
        "coarse-grain: model heisenberg-ferro-fr, d=2, R=3",
        "cell terms: 81 (3 shapes x 27 placements; conserved)",
        "class OnSite: axes [], 1 cube(s), 54 term(s), block dim 134217728, "
        "matrix skipped (exceeds dense limit)",
        *(
            f"class Face: axes [{axis}], 2 cube(s), 9 term(s), block dim 18014398509481984, "
            "matrix skipped (exceeds dense limit)"
            for axis in range(3)
        ),
        "note: 4 class matrices not materialized; structural checks "
        "(assignment, term conservation) only",
        "PASS (structure only: no numerical check ran)",
    ]),
}


@pytest.mark.parametrize("case", sorted(VERIFY_GOLDEN))
def test_verify_output_golden(capsys, case):
    rc, out, err = run(capsys, "verify", *case.split())
    want_rc, want_lines = VERIFY_GOLDEN[case]
    assert rc == want_rc
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == len(want_lines)
    for got, want in zip(lines, want_lines):
        if want.endswith(" "):
            assert got.startswith(want)
            assert abs(float(got[len(want):].split()[0])) < 1e-12
        else:
            assert got == want


# Full stdout of `gap` on each solve path: built-in models (central S^z
# block, weighed by multiplet size), model files (no S+, so every charge
# block), and a random projection saved to a file (no charges, one block),
# each dense and on the iterative path.  Model files are named by their
# stem.  In `eigenvalues:` and `residuals:` a "~" is a roundoff-sized entry
# (|value| < 1e-12), matched by size; every other token is matched exactly.
GAP_GOLDEN = {
    "heisenberg-ferro --n 6": [
        "model: heisenberg-ferro (d=2)",
        "geometry: D=1, n=6, side 7, open, 128 states",
        "eigenvalues: ~ ~ ~ ~ ~ ~ ~ ~ 0.0990311320976",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 8",
        "frustration_free: true",
        "gap: 0.0990311320976",
        "method: dense (k=9)",
    ],
    "heisenberg-ferro --n 6 --dense-limit 1": [
        "model: heisenberg-ferro (d=2)",
        "geometry: D=1, n=6, side 7, open, 128 states",
        "eigenvalues: ~ ~ ~ ~ ~ ~ ~ ~ 0.0990311320976",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 8",
        "frustration_free: true",
        "gap: 0.0990311320976",
        "method: iterative (k=9)",
    ],
    "aklt --n 5": [
        "model: aklt (d=3)",
        "geometry: D=1, n=5, side 6, open, 729 states",
        "eigenvalues: ~ ~ ~ ~ 0.39845123178 0.39845123178 0.39845123178 0.39845123178",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 4",
        "frustration_free: true",
        "gap: 0.39845123178",
        "method: dense (k=8)",
    ],
    "aklt --n 5 --dense-limit 1": [
        "model: aklt (d=3)",
        "geometry: D=1, n=5, side 6, open, 729 states",
        "eigenvalues: ~ ~ ~ ~ 0.39845123178 0.39845123178 0.39845123178 0.39845123178",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 4",
        "frustration_free: true",
        "gap: 0.39845123178",
        "method: iterative (k=8)",
    ],
    "ferro.model --n 6": [
        "model: ferro (d=2)",
        "geometry: D=1, n=6, side 7, open, 128 states",
        "eigenvalues: ~ ~ ~ ~ ~ ~ ~ ~ 0.0990311320976",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 8",
        "frustration_free: true",
        "gap: 0.0990311320976",
        "method: dense (k=9)",
    ],
    "ferro.model --n 6 --dense-limit 1": [
        "model: ferro (d=2)",
        "geometry: D=1, n=6, side 7, open, 128 states",
        "eigenvalues: ~ ~ ~ ~ ~ ~ ~ ~ 0.0990311320976",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 8",
        "frustration_free: true",
        "gap: 0.0990311320976",
        "method: iterative (k=9)",
    ],
    "aklt.model --n 4": [
        "model: aklt (d=3)",
        "geometry: D=1, n=4, side 5, open, 243 states",
        "eigenvalues: ~ ~ ~ ~ 0.413239805949 0.413239805949 0.413239805949 0.413239805949",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 4",
        "frustration_free: true",
        "gap: 0.413239805949",
        "method: dense (k=8)",
    ],
    "aklt.model --n 4 --dense-limit 1": [
        "model: aklt (d=3)",
        "geometry: D=1, n=4, side 5, open, 243 states",
        "eigenvalues: ~ ~ ~ ~ 0.413239805949 0.413239805949 0.413239805949 0.413239805949",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 4",
        "frustration_free: true",
        "gap: 0.413239805949",
        "method: iterative (k=8)",
    ],
    "random.model --n 4": [
        "model: random (d=2)",
        "geometry: D=1, n=4, side 5, open, 32 states",
        "eigenvalues: ~ ~ ~ ~ ~ ~ 0.164853248182 0.187413306487",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 6",
        "frustration_free: true",
        "gap: 0.164853248182",
        "method: dense (k=8)",
    ],
    "random.model --n 4 --dense-limit 1": [
        "model: random (d=2)",
        "geometry: D=1, n=4, side 5, open, 32 states",
        "eigenvalues: ~ ~ ~ ~ ~ ~ 0.164853248182 0.187413306487",
        "residuals: ~ ~ ~ ~ ~ ~ ~ ~",
        "kernel_dim: 6",
        "frustration_free: true",
        "gap: 0.164853248182",
        "method: iterative (k=8)",
    ],
}


@pytest.mark.parametrize("case", sorted(GAP_GOLDEN))
def test_gap_output_golden(capsys, tmp_path, case):
    save_model(heisenberg_ferro(), tmp_path / "ferro.model")
    save_model(aklt(), tmp_path / "aklt.model")
    save_model(random_projection(2, 1, 7), tmp_path / "random.model")
    model, *rest = case.split()
    if model.endswith(".model"):
        model = str(tmp_path / model)
    rc, out, err = run(capsys, "gap", "--model", model, *rest)
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == len(GAP_GOLDEN[case])
    for got, want in zip(lines, GAP_GOLDEN[case]):
        if want.startswith(("eigenvalues: ", "residuals: ")):
            got_key, got_vals = got.split(": ")
            want_key, want_vals = want.split(": ")
            assert got_key == want_key
            assert len(got_vals.split()) == len(want_vals.split())
            for g, w in zip(got_vals.split(), want_vals.split()):
                assert abs(float(g)) < 1e-12 if w == "~" else g == w
        else:
            assert got == want


# The CLI sets OPENBLAS_THREAD_TIMEOUT before numpy loads OpenBLAS unless the
# caller set it, and no result depends on the timeout or the BLAS thread count.
THREAD_PROBE = (
    "import gapcert.cli, os, sys; print(os.environ['OPENBLAS_THREAD_TIMEOUT']); "
    "sys.exit(gapcert.cli.main(['gap', '--model', 'aklt', '--n', '7']))"
)


def _thread_probe(**env):
    """stdout lines of THREAD_PROBE in a fresh interpreter with `env` added."""
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    base["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE],
        capture_output=True, text=True, env={**base, **env}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _roundoff_masked(line):
    """`line` with each roundoff-sized (< 1e-12) eigenvalue or residual as "~"."""
    if not line.startswith(("eigenvalues: ", "residuals: ")):
        return line
    key, vals = line.split(": ")
    return key + ": " + " ".join("~" if abs(float(v)) < 1e-12 else v for v in vals.split())


def test_blas_thread_policy():
    default = _thread_probe()
    assert default[0] == "4"
    assert "gap: 0.37934913307" in default
    assert _thread_probe(OPENBLAS_THREAD_TIMEOUT="28") == ["28", *default[1:]]
    one_thread = _thread_probe(OPENBLAS_NUM_THREADS="1")
    assert [_roundoff_masked(x) for x in one_thread] == [_roundoff_masked(x) for x in default]


# A dense run never builds a CSR, so it should not load scipy.sparse; the
# test process has it loaded already (pytest's SparseEfficiencyWarning
# filter), so the probe runs in a fresh interpreter.
SPARSE_PROBE = """
import contextlib, io, sys
from gapcert.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
    print(any(m == "scipy.sparse" or m.startswith("scipy.sparse.") for m in sys.modules))

run("certify", "--model", "aklt", "--theorem", "gm", "--n", "4")
run("verify", "square-identity", "--model", "aklt", "--D", "1", "--side", "4")
run("verify", "per-box", "--model", "aklt", "--D", "1", "--n", "3")
run("gap", "--model", "aklt", "--n", "5", "--dense-limit", "1")
"""


def test_only_the_iterative_path_loads_scipy_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SPARSE_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True"]


def _leaf_commands(parser, path=()):
    """(argv prefix, parser) of every leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [
        leaf
        for name, child in subs[0].choices.items()
        for leaf in _leaf_commands(child, path + (name,))
    ]


LEAF_COMMANDS = _leaf_commands(build_parser())


def test_leaf_commands():
    assert sorted(" ".join(path) for path, _ in LEAF_COMMANDS) == [
        "certify", "gap", "sweep",
        "verify aligned", "verify cauchy-schwarz", "verify coarse-grain-identity",
        "verify counting", "verify per-box", "verify prop-key", "verify square-identity",
    ]


@pytest.mark.parametrize(
    "path,parser", LEAF_COMMANDS, ids=[" ".join(path) for path, _ in LEAF_COMMANDS]
)
def test_each_leaf_names_its_handler(capsys, path, parser):
    assert callable(parser.get_default("run"))
    with pytest.raises(SystemExit) as exc:
        main([*path, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gapcert {' '.join(path)}")
