import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import aklt, heisenberg_ferro
from gapcert.operators import CompositeOperator, ManyBodyOperator, build_hamiltonian, dense_matrix
from gapcert.spectral import (
    EigenSolveConfig,
    GapUndefinedError,
    SolverConvergenceError,
    check_operator_inequality,
    lowest_eigenvalues,
    spectral_gap,
)

FERRO = heisenberg_ferro()


def diag_op(values):
    """Diagonal operator on a single site of local dimension len(values)."""
    d = len(values)
    M = np.diag(np.asarray(values, dtype=complex))
    return ManyBodyOperator([(0,)], d, [(((0,),), M)])


def ferro_chain(m):
    return build_hamiltonian(FERRO, grid_edges(1, m), grid_sites(1, m))


class TestLowestEigenvalues:
    def test_dense_ascending_with_residuals(self):
        pairs = lowest_eigenvalues(ferro_chain(4))
        vals = [v for v, _ in pairs]
        assert vals == sorted(vals)
        assert len(pairs) == 8
        assert all(r <= 1e-10 for _, r in pairs)

    def test_k_capped_at_dimension(self):
        pairs = lowest_eigenvalues(diag_op([0.0, 1.0, 2.0]), EigenSolveConfig(k=8))
        assert_allclose([v for v, _ in pairs], [0.0, 1.0, 2.0], atol=1e-14)

    def test_iterative_matches_dense(self):
        # Lanczos may not resolve the full kernel multiplicity, so compare
        # spectrum membership rather than the sorted lists elementwise
        H = ferro_chain(8)
        dense = [v for v, _ in lowest_eigenvalues(H, EigenSolveConfig(k=24))]
        iterative = lowest_eigenvalues(H, EigenSolveConfig(k=12, dense_limit=1))
        for v, r in iterative:
            assert min(abs(v - w) for w in dense) <= 1e-8
            assert r <= 1e-6

    def test_iterative_deterministic(self):
        H = ferro_chain(6)
        cfg = EigenSolveConfig(k=4, dense_limit=1, seed=13)
        p1 = lowest_eigenvalues(H, cfg)
        p2 = lowest_eigenvalues(H, cfg)
        assert [v for v, _ in p1] == [v for v, _ in p2]

    def test_iterative_k_past_arpack_solves_dense(self):
        # ARPACK needs k <= dim - 2; past that the block goes to dense eigh
        pairs = lowest_eigenvalues(diag_op([0.0, 1.0]), EigenSolveConfig(k=2, dense_limit=1))
        assert [v for v, _ in pairs] == [0.0, 1.0]

    @pytest.mark.parametrize(
        "model, D, side",
        [(FERRO, 2, 3), (aklt(), 1, 6)],
        ids=["ferro_torus3x3", "aklt_ring6"],
    )
    def test_charge_blocks_match_uncharged(self, model, D, side):
        # the same terms without charges are one block; its dense solve is
        # the reference for the charged solve on both paths
        H = build_hamiltonian(model, grid_edges(D, side, periodic=True), grid_sites(D, side))
        plain = ManyBodyOperator(H.site_list, H.d, H.terms)
        assert H.charges is not None and plain.charges is None
        want = [v for v, _ in lowest_eigenvalues(plain, EigenSolveConfig(k=12))]
        assert len(want) == 12
        for dense_limit, atol in ((4096, 1e-12), (1, 1e-10)):
            pairs = lowest_eigenvalues(H, EigenSolveConfig(k=12, dense_limit=dense_limit))
            assert_allclose([v for v, _ in pairs], want, rtol=0, atol=atol)
            assert all(r <= 1e-10 for _, r in pairs)

    def test_no_convergence_raises(self):
        H = ferro_chain(8)
        with pytest.raises(SolverConvergenceError):
            lowest_eigenvalues(H, EigenSolveConfig(k=8, dense_limit=1, max_iter=1))

    def test_eigenvalues_are_floats(self):
        H = ferro_chain(6)
        for cfg in (EigenSolveConfig(k=4), EigenSolveConfig(k=4, dense_limit=1)):
            for v, r in lowest_eigenvalues(H, cfg):
                assert type(v) is float
                assert type(r) is float


class TestSpectralGap:
    def test_toy_kernel_tolerance(self):
        op = diag_op([0.0, 1e-10, 0.5])
        rep = spectral_gap(op)  # default kernel_tol 1e-8
        assert rep.kernel_dim == 2
        assert_allclose(rep.gap, 0.5, atol=1e-14)
        rep2 = spectral_gap(op, kernel_tol=1e-12)
        assert rep2.kernel_dim == 1
        assert_allclose(rep2.gap, 1e-10, atol=1e-24)

    def test_ferro_chain_frozen_gap(self):
        rep = spectral_gap(ferro_chain(8))
        assert rep.method == "dense"
        assert rep.kernel_dim == 9
        assert_allclose(rep.gap, 0.0761204674887113, atol=1e-10)
        # reported window is widened past the kernel
        assert rep.k_used == 10
        assert rep.eigenvalues == sorted(rep.eigenvalues)

    def test_iterative_gap_matches_dense(self):
        rep = spectral_gap(ferro_chain(8), config=EigenSolveConfig(dense_limit=1))
        assert rep.method == "iterative"
        assert_allclose(rep.gap, 0.0761204674887113, atol=1e-8)

    def test_iterative_escalation(self):
        # 17-fold kernel swallows k=8 and k=16, forcing two doublings
        op = diag_op([0.0] * 17 + [0.5, 0.5, 1.0])
        rep = spectral_gap(op, config=EigenSolveConfig(dense_limit=1))
        assert rep.method == "iterative"
        assert rep.k_used > 16
        assert_allclose(rep.gap, 0.5, atol=1e-8)

    def test_zero_operator_dense(self):
        with pytest.raises(GapUndefinedError):
            spectral_gap(diag_op([0.0, 0.0, 0.0]))

    def test_zero_operator_iterative(self):
        # the zero operator annihilates the start vector, so ARPACK cannot
        # build a Krylov space at all
        op = ManyBodyOperator([(0,), (1,), (2,)], 2, [])
        with pytest.raises(SolverConvergenceError):
            spectral_gap(op, config=EigenSolveConfig(k=2, dense_limit=1, max_k=4))

    def test_no_convergence_is_solver_error(self):
        # the pairs one ARPACK iteration converges are not the lowest, so they
        # must not become gap candidates
        with pytest.raises(SolverConvergenceError):
            spectral_gap(
                ferro_chain(8), config=EigenSolveConfig(k=8, dense_limit=1, max_iter=1)
            )


class TestDenseSubset:
    def test_kernel_wider_than_k(self):
        # the 11-fold kernel of the 10-site chain exceeds k = 8, so the report
        # widens to kernel_dim + 1 pairs, all from one subset solve
        H = ferro_chain(10)
        rep = spectral_gap(H, config=EigenSolveConfig(k=8))
        assert rep.method == "dense"
        assert rep.kernel_dim == 11
        assert rep.k_used == 12
        full = scipy.linalg.eigh(dense_matrix(H), eigvals_only=True)
        assert_allclose(rep.eigenvalues, full[:12], rtol=0, atol=1e-12)

    def test_full_spectrum_fallback(self):
        # the max_k = 4 lowest pairs all lie in the 8-fold kernel
        rep = spectral_gap(ferro_chain(7), config=EigenSolveConfig(max_k=4))
        assert rep.method == "dense"
        assert rep.kernel_dim == 8
        assert_allclose(rep.gap, 0.0990311320976, rtol=0, atol=1e-12)

    def test_all_kernel_after_fallback(self):
        with pytest.raises(GapUndefinedError):
            spectral_gap(diag_op([0.0] * 6), config=EigenSolveConfig(k=2, max_k=2))


class TestOperatorInequality:
    def test_psd_direction(self):
        H = ferro_chain(4)
        ok, witness = check_operator_inequality(H, 0.5 * CompositeOperator.from_operator(H))
        assert ok
        assert witness >= -1e-12

    def test_violated_direction(self):
        H = ferro_chain(4)
        ok, witness = check_operator_inequality(0.5 * CompositeOperator.from_operator(H), H)
        assert not ok
        # witness is -(1/2) * largest eigenvalue of H
        top = max(np.linalg.eigvalsh(
            np.array([[ (H.apply(e)).real[i] for e in np.eye(16)] for i in range(16)])
        ))
        assert_allclose(witness, -0.5 * top, atol=1e-10)


class TestConfig:
    def test_guards(self):
        with pytest.raises(ValueError):
            EigenSolveConfig(k=0)

    def test_negative_seed_refused(self):
        # numpy refuses a negative seed only where a start vector is drawn,
        # so the dense path alone would accept it
        with pytest.raises(ValueError, match="seed"):
            EigenSolveConfig(seed=-1)
