from dataclasses import replace

import numpy as np
import pytest

from gapcert.cli import CSV_HEADER, RunConfig, cs_witnesses, main
from gapcert.models import save_model
from gapcert.operators import NNInteraction
from gapcert.spectral import EigenSolveConfig


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

    def test_one_default_dense_limit(self, monkeypatch):
        monkeypatch.delenv("GAPCERT_DENSE_LIMIT", raising=False)
        assert EigenSolveConfig().dense_limit == RunConfig(command="gap").resolved_dense_limit

    def test_bad_env_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GAPCERT_DENSE_LIMIT", "lots")
        rc, _, err = run(capsys, "gap", "--model", "heisenberg-ferro", "--n", "4")
        assert rc == 3
        assert "GAPCERT_DENSE_LIMIT" in err


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

    def test_malformed_model_file(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("d=2\n1.0 0,0 0,0 0,0\n")
        rc, _, err = run(capsys, "gap", "--model", str(path), "--n", "3")
        assert rc == 3
        assert "expected 're,im'" in err

    def test_unconverged_lanczos_is_numerical_failure(self, capsys, monkeypatch):
        # one ARPACK iteration converges at most a few Ritz pairs of the 8-site
        # chain; that is a solver failure (exit 2), never a partial spectrum
        solver_config = RunConfig.solver_config.fget
        monkeypatch.setattr(
            RunConfig,
            "solver_config",
            property(lambda cfg: replace(solver_config(cfg), max_iter=1)),
        )
        rc, out, err = run(
            capsys, "gap", "--model", "heisenberg-ferro", "--D", "1", "--n", "7",
            "--dense-limit", "1",
        )
        assert rc == 2
        assert "numerical failure:" in err
        assert "gap:" not in out


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

    def test_cauchy_schwarz(self, capsys):
        rc, out, _ = run(capsys, "verify", "cauchy-schwarz", "--d", "2", "--samples", "10")
        assert rc == 0
        assert out.strip().endswith("PASS")

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
        assert margins[3] < 0 and abs(margins[3]) < 1e-12
        assert margins[4] > 0.14

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
