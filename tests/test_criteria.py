import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapcert import criteria
from gapcert.cli import main
from gapcert.criteria import (
    aligned_pair_witness,
    bound_gm,
    bound_lm,
    certify,
    fit_power_law,
    gap_scaling_fit,
    implied_bound_main,
    per_box_bound_witness,
    prefactor_gm,
    prefactor_lm,
    subsystem_gap,
    threshold_gm,
    threshold_lm,
    threshold_main,
    verify_proposition_key,
)
from gapcert.lattice import (
    BoxRegion,
    LatticeGeometry,
    box_edges,
    grid_edges,
    grid_sites,
    periodic_edges,
    sites,
)
from gapcert.models import aklt, heisenberg_ferro, random_projection
from gapcert.operators import (
    DimensionLimitError,
    ManyBodyOperator,
    NNInteraction,
    build_QR,
    build_hamiltonian,
    dense_matrix,
)
from gapcert.spectral import EigenSolveConfig, GapReport

FERRO = heisenberg_ferro()


class TestThresholds:
    def test_frozen_values(self):
        assert_allclose(threshold_main(3), 5.0 / 9.0, rtol=1e-12)
        assert_allclose(threshold_gm(5), 0.2, rtol=1e-12)
        assert_allclose(threshold_lm(4), math.sqrt(6.0) / 2.0, rtol=1e-12)
        assert_allclose(threshold_lm(16), math.sqrt(6.0) / 16.0, rtol=1e-12)
        assert_allclose(threshold_gm(6), 1.0 / 7.0, rtol=1e-12)

    def test_main_below_three_over_n(self):
        for n in (3, 4, 10, 100, 999):
            assert threshold_main(n) <= 3.0 / n

    def test_monotone_decreasing(self):
        for thr, start in ((threshold_gm, 3), (threshold_lm, 4), (threshold_main, 3)):
            vals = [thr(n) for n in range(start, start + 20)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            threshold_gm(2)
        with pytest.raises(ValueError):
            threshold_lm(3)
        with pytest.raises(ValueError):
            threshold_main(2)
        with pytest.raises(ValueError):
            prefactor_gm(2)
        with pytest.raises(ValueError):
            prefactor_lm(3)


class TestBounds:
    def test_prefactors(self):
        assert_allclose(prefactor_gm(6), 1.09375, rtol=1e-12)
        assert_allclose(prefactor_gm(3), 2.0, rtol=1e-12)
        assert_allclose(prefactor_lm(4), 1.0 / (2**9 * math.sqrt(6.0) * 4), rtol=1e-12)

    def test_bound_values(self):
        assert_allclose(bound_gm(1.0, 5), 20.0 / 21.0, rtol=1e-12)
        assert_allclose(implied_bound_main(0.5, 4), 0.5 - 0.25 - 0.125, rtol=1e-12)
        # bounds vanish exactly at threshold
        assert abs(bound_gm(threshold_gm(7), 7)) < 1e-15
        assert abs(bound_lm(threshold_lm(5), 5)) < 1e-15


class TestSubsystemGap:
    def test_open_chain(self):
        rep = subsystem_gap(FERRO, 1, 5)
        assert_allclose(rep.gap, 0.19098300562505255, atol=1e-10)
        assert rep.kernel_dim == 6

    def test_periodic_chain(self):
        rep = subsystem_gap(FERRO, 1, 5, periodic=True)
        assert_allclose(rep.gap, 0.6909830056250522, atol=1e-10)

    def test_aklt_chain(self):
        rep = subsystem_gap(aklt(), 1, 3)
        assert_allclose(rep.gap, 0.4999999999999995, atol=1e-10)
        assert rep.kernel_dim == 4


class TestCertify:
    def test_gm_ferro_below_threshold(self):
        res = certify(FERRO, 1, 5, theorem="gm")
        assert res.theorem_id == "gm"
        assert not res.certified
        assert res.rigorous
        assert_allclose(res.local_gap, 0.19098300562505255, atol=1e-10)
        assert_allclose(res.threshold, 0.2, rtol=1e-12)
        assert_allclose(res.margin, 0.19098300562505255 - 0.2, atol=1e-10)
        assert set(res.gaps) == {5}

    def test_gm_aklt_boundary(self):
        # n=3 sits exactly on the threshold (margin at roundoff), n=4 clears it
        res3 = certify(aklt(), 1, 3, theorem="gm")
        assert not res3.certified
        assert abs(res3.margin) < 1e-12
        res4 = certify(aklt(), 1, 4, theorem="gm")
        assert res4.certified
        assert_allclose(res4.margin, 0.14895586585936255, atol=1e-10)
        assert_allclose(
            res4.implied_lower_bound, prefactor_gm(4) * res4.margin, rtol=1e-12
        )
        assert res4.implied_lower_bound > 0

    @pytest.mark.parametrize(
        "excess,residual,want",
        [(1e-15, 0.0, "false"), (1e-6, 0.0, "true"), (1e-6, 2e-6, "false")],
    )
    def test_error_budget_decides(self, monkeypatch, capsys, excess, residual, want):
        # a margin inside the error budget (roundoff, or the gap's own
        # residual) is not certified, whatever its sign
        gap = threshold_gm(3) + excess
        report = GapReport(
            eigenvalues=[0.0, gap], residuals=[0.0, residual], kernel_dim=1,
            gap=gap, method="dense", k_used=2,
        )
        monkeypatch.setattr(criteria, "subsystem_gap", lambda *args, **kwargs: report)
        assert main(["certify", "--model", "aklt", "--theorem", "gm", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert f"local_gap: {gap:.12g}\n" in out
        assert f"certified: {want}\n" in out

    def test_lm_ferro(self):
        res = certify(FERRO, 1, 4, theorem="lm")
        assert set(res.gaps) == {2, 3, 4}
        assert_allclose(res.local_gap, 0.2928932188134525, atol=1e-10)
        assert res.local_gap == min(res.gaps.values())
        assert_allclose(res.threshold, math.sqrt(6.0) / 2.0, rtol=1e-12)
        assert not res.certified
        assert any("min gap at l = 4" in note for note in res.notes)

    def test_main_low_d_override(self):
        with pytest.raises(ValueError, match="allow_nonrigorous_main"):
            certify(FERRO, 1, 3, theorem="main")
        res = certify(FERRO, 1, 3, theorem="main", allow_nonrigorous_main=True)
        assert not res.rigorous
        assert any("non-rigorous" in note for note in res.notes)
        # open box of side n+1 = 4, keyed by the box parameter n
        assert set(res.gaps) == {3}
        assert_allclose(res.local_gap, 0.2928932188134525, atol=1e-10)
        assert_allclose(res.threshold, 5.0 / 9.0, rtol=1e-12)
        assert not res.certified

    def test_guards(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            certify(FERRO, 1, 5, theorem="xx")
        with pytest.raises(ValueError, match="chains"):
            certify(FERRO, 2, 5, theorem="gm")
        with pytest.raises(ValueError, match="chains"):
            certify(FERRO, 2, 5, theorem="lm")
        with pytest.raises(ValueError, match="n > 3"):
            certify(FERRO, 1, 3, theorem="lm")
        with pytest.raises(ValueError, match="n >= 3"):
            certify(FERRO, 1, 2, theorem="main")

    def test_frustrated_model_refused(self):
        with pytest.raises(ValueError, match="frustrated"):
            certify(random_projection(2, 3, seed=0), 1, 3, theorem="gm")


class TestScalingFit:
    def test_exact_power_law(self):
        ns = list(range(4, 13))
        fit = fit_power_law(ns, [7.0 * n**-2.0 for n in ns])
        assert_allclose(fit.exponent, 2.0, atol=1e-9)
        assert_allclose(fit.prefactor, 7.0, rtol=1e-9)
        assert fit.r_squared > 1 - 1e-12

    def test_constant_gaps(self):
        fit = fit_power_law([4, 5, 6, 7], [0.3, 0.3, 0.3, 0.3])
        assert_allclose(fit.exponent, 0.0, atol=1e-12)
        assert fit.r_squared == 1.0

    def test_guards(self):
        with pytest.raises(ValueError, match=">= 4 points"):
            fit_power_law([4, 5, 6], [1, 1, 1])
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([4, 5, 6, 7], [1, 1, 0, 1])
        with pytest.raises(ValueError, match="equal length"):
            fit_power_law([4, 5, 6, 7], [1, 1, 1])

    def test_ferro_chain_scaling(self):
        fit = gap_scaling_fit(FERRO, 1, [9, 4, 5, 6, 7, 8, 5])
        assert fit.ns == [4, 5, 6, 7, 8, 9]  # sorted, deduplicated
        assert 1.8 <= fit.exponent <= 2.2
        assert fit.r_squared > 0.999
        assert_allclose(fit.gaps[0], 0.2928932188134525, atol=1e-10)


class TestPerBoxWitness:
    def test_ferro_small_boxes(self):
        w, gamma = per_box_bound_witness(FERRO, 2, 2)
        assert_allclose(gamma, 0.5, atol=1e-10)
        assert w >= -1e-9
        w3, gamma3 = per_box_bound_witness(FERRO, 3, 1)
        assert_allclose(gamma3, 1.0, atol=1e-10)
        assert w3 >= -1e-9

    def test_gapless_box_refused(self):
        with pytest.raises(ValueError, match="no eigenvalue above"):
            per_box_bound_witness(NNInteraction(d=2, P=np.zeros((4, 4))), 2, 1)

    def test_oversized_box_refused(self):
        # needs the full spectrum, so it must refuse -- not materialize
        # 3^9 x 3^9 -- once the box passes the dense cap
        with pytest.raises(DimensionLimitError, match="dense limit"):
            per_box_bound_witness(aklt(), 2, 2)

    def test_box_past_config_dense_limit_refused(self):
        # the 3x3 ferro box has 512 states; the caller's limit governs
        with pytest.raises(DimensionLimitError, match="dense limit"):
            per_box_bound_witness(FERRO, 2, 2, config=EigenSolveConfig(dense_limit=256))


class TestAlignedPair:
    def test_ferro_ring(self):
        w = aligned_pair_witness(FERRO, 6)
        assert w >= -1e-9
        assert abs(w) < 1e-12  # ferro saturates the bound on the kernel

    def test_random_ring(self):
        w = aligned_pair_witness(random_projection(2, 2, seed=1), 4)
        assert w >= -1e-10

    def test_small_ring_rejected(self):
        with pytest.raises(ValueError):
            aligned_pair_witness(FERRO, 2)

    @pytest.mark.parametrize("model, m", [(aklt(), 5), (aklt(), 6), (FERRO, 5)])
    def test_central_block_holds_the_minimum(self, model, m):
        # the witness solves the central S^z block only; the charge-free
        # 2H + Q, diagonalized whole, has the same lowest eigenvalue
        dec = build_QR(model, grid_edges(1, m, periodic=True), grid_sites(1, m))
        terms = [(sites_of_term, 2.0 * M) for sites_of_term, M in dec.H.terms] + dec.Q.terms
        whole = ManyBodyOperator(dec.H.site_list, model.d, terms)
        want = np.linalg.eigvalsh(dense_matrix(whole))[0]
        assert abs(aligned_pair_witness(model, m) - want) <= 1e-12


class TestPropositionKey:
    def test_small_torus_witnesses(self):
        rep = verify_proposition_key(FERRO, 2, 1, 1)
        assert rep.passed
        assert not rep.in_regime
        w1, w2 = rep
        assert w1 >= -1e-9 and w2 >= -1e-9
        assert_allclose(rep.gamma_box, 1.0, atol=1e-10)
        assert any("out-of-regime" in note for note in rep.notes)
        assert any("sum identity" in note for note in rep.notes)

    def test_d3_witnesses(self):
        rep = verify_proposition_key(FERRO, 3, 1, 1)
        assert rep.passed
        assert rep.witness1 >= -1e-9 and rep.witness2 >= -1e-9

    @pytest.mark.parametrize("D, n, N", [(2, 1, 1), (3, 1, 1), (2, 2, 1)])
    def test_witnesses_match_dense_box_squares(self, D, n, N):
        # the literal A = sum_l (H_{B_l})^2, each box squared as a dense matrix
        geom = LatticeGeometry(D=D, N=N)
        torus = sites(geom)
        dec = build_QR(FERRO, periodic_edges(geom), torus)
        H, Q, R = (dense_matrix(op) for op in (dec.H, dec.Q, dec.R))
        A = sum(
            B @ B
            for B in (
                dense_matrix(build_hamiltonian(FERRO, box_edges(BoxRegion(base, n), geom), torus))
                for base in torus
            )
        )
        c_edge = n * (n + 1) ** (D - 1)
        rhs = (c_edge + 2.0 * (n + 1) ** (D - 2)) * H + n**2 * (n + 1) ** (D - 2) * (Q + R)
        rep = verify_proposition_key(FERRO, D, n, N)
        assert abs(rep.witness1 - np.linalg.eigvalsh(rhs - A)[0]) <= 1e-10
        lower = A - c_edge * rep.gamma_box * H
        assert abs(rep.witness2 - np.linalg.eigvalsh(lower)[0]) <= 1e-10

    def test_refusal_with_feasible_envelope(self):
        with pytest.raises(DimensionLimitError, match="feasible"):
            verify_proposition_key(FERRO, 2, 2, 5)

    def test_guards(self):
        with pytest.raises(ValueError, match="D >= 2"):
            verify_proposition_key(FERRO, 1, 2, 5)
        with pytest.raises(ValueError):
            verify_proposition_key(FERRO, 2, 0, 1)
