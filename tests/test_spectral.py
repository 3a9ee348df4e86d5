import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gapcert import spectral
from gapcert.criteria import per_box_bound_witness
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import aklt, heisenberg_ferro, random_projection
from gapcert.operators import ManyBodyOperator, build_hamiltonian, dense_matrix, weighted_sum
from gapcert.spectral import (
    EigenSolveConfig,
    GapUndefinedError,
    SolverConvergenceError,
    check_operator_inequality,
    lowest_eigenvalue,
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
    # the lowest k eigenvalues are the report of spectral_gap with no kernel
    def test_dense_ascending_with_residuals(self):
        rep = spectral_gap(ferro_chain(4), -np.inf)
        assert rep.eigenvalues == sorted(rep.eigenvalues)
        assert len(rep.eigenvalues) == 8
        assert max(rep.residuals) <= 1e-10

    def test_k_capped_at_dimension(self):
        rep = spectral_gap(diag_op([0.0, 1.0, 2.0]), -np.inf, EigenSolveConfig(k=8))
        assert_allclose(rep.eigenvalues, [0.0, 1.0, 2.0], atol=1e-14)

    def test_iterative_matches_dense(self):
        # Lanczos may not resolve the full kernel multiplicity, so compare
        # spectrum membership rather than the sorted lists elementwise
        H = ferro_chain(8)
        dense = spectral_gap(H, -np.inf, EigenSolveConfig(k=24)).eigenvalues
        iterative = spectral_gap(H, -np.inf, EigenSolveConfig(k=12, dense_limit=1))
        for v, r in zip(iterative.eigenvalues, iterative.residuals):
            assert min(abs(v - w) for w in dense) <= 1e-8
            assert r <= 1e-6

    def test_iterative_deterministic(self):
        H = ferro_chain(6)
        cfg = EigenSolveConfig(k=4, dense_limit=1, seed=13)
        runs = [spectral_gap(H, -np.inf, cfg).eigenvalues for _ in range(2)]
        assert runs[0] == runs[1]

    def test_iterative_k_past_arpack_solves_dense(self):
        # ARPACK needs k <= dim - 2; past that the block goes to dense eigh
        rep = spectral_gap(diag_op([0.0, 1.0]), -np.inf, EigenSolveConfig(k=2, dense_limit=1))
        assert rep.eigenvalues == [0.0, 1.0]

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
        want = spectral_gap(plain, -np.inf, EigenSolveConfig(k=12)).eigenvalues
        assert len(want) == 12
        for dense_limit, atol in ((4096, 1e-12), (1, 1e-10)):
            cfg = EigenSolveConfig(k=12, dense_limit=dense_limit)
            rep = spectral_gap(H, -np.inf, cfg)
            assert_allclose(rep.eigenvalues, want, rtol=0, atol=atol)
            assert max(rep.residuals) <= 1e-10
            for op in (H, plain):
                assert abs(lowest_eigenvalue(op, cfg) - want[0]) <= atol

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_ITER", 1)
        H = ferro_chain(8)
        cfg = EigenSolveConfig(k=8, dense_limit=1)
        with pytest.raises(SolverConvergenceError):
            spectral_gap(H, -np.inf, cfg)
        with pytest.raises(SolverConvergenceError):
            lowest_eigenvalue(H, cfg)

    def test_eigenvalues_are_floats(self):
        H = ferro_chain(6)
        for cfg in (EigenSolveConfig(k=4), EigenSolveConfig(k=4, dense_limit=1)):
            rep = spectral_gap(H, -np.inf, cfg)
            for v in rep.eigenvalues + rep.residuals + [lowest_eigenvalue(H, cfg)]:
                assert type(v) is float


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

    def test_zero_operator_iterative(self, monkeypatch):
        # ARPACK refuses the zero block (its start vector maps to zero), and a
        # refused block this small is solved densely: the dense path's outcome
        monkeypatch.setattr(spectral, "MAX_K", 4)
        op = ManyBodyOperator([(0,), (1,), (2,)], 2, [])
        with pytest.raises(GapUndefinedError):
            spectral_gap(op, config=EigenSolveConfig(k=2, dense_limit=1))

    def test_large_zero_operator_is_solver_error(self):
        # past DEFAULT_DENSE_LIMIT states a refused block has no dense fallback
        op = ManyBodyOperator(list(range(13)), 2, [])
        with pytest.raises(SolverConvergenceError, match="ARPACK could not iterate at dim 8192"):
            spectral_gap(op)

    def test_no_convergence_is_solver_error(self, monkeypatch):
        # the pairs one ARPACK iteration converges are not the lowest, so they
        # must not become gap candidates
        monkeypatch.setattr(spectral, "MAX_ITER", 1)
        with pytest.raises(SolverConvergenceError):
            spectral_gap(ferro_chain(8), config=EigenSolveConfig(k=8, dense_limit=1))


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

    def test_full_spectrum_fallback(self, monkeypatch):
        # the MAX_K = 4 lowest pairs all lie in the 8-fold kernel
        monkeypatch.setattr(spectral, "MAX_K", 4)
        rep = spectral_gap(ferro_chain(7))
        assert rep.method == "dense"
        assert rep.kernel_dim == 8
        assert_allclose(rep.gap, 0.0990311320976, rtol=0, atol=1e-12)

    def test_all_kernel_after_fallback(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_K", 2)
        with pytest.raises(GapUndefinedError):
            spectral_gap(diag_op([0.0] * 6), config=EigenSolveConfig(k=2))

    def test_one_dense_array_per_solve(self):
        # LAPACK overwrites a Fortran-ordered array in place; a C-ordered one
        # it would first copy, peaking near two n x n arrays instead of one
        chain = build_hamiltonian(random_projection(2, 1, 7), grid_edges(1, 9), grid_sites(1, 9))
        assert (chain.dimension, chain.dtype, chain.charges) == (512, np.complex128, None)
        solves = (
            # a 10-fold kernel: k doubles 8 -> 16, two dense attempts
            (lambda: spectral_gap(chain), 512, 16),
            # the open 6-site AKLT chain, 729 real states
            (lambda: per_box_bound_witness(aklt(), 1, 5), 729, 8),
            # S+: the 12-site ferro chain's central block, 924 of 4096 real
            # states, weighed with its dense S+ map to the next block up
            (lambda: spectral_gap(ferro_chain(12)), 924, 8),
        )
        for solve, n, itemsize in solves:
            solve()  # first call pays any lazy imports
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * n * n * itemsize, (n, peak / (n * n * itemsize))


class TestOperatorInequality:
    def test_psd_direction(self):
        H = ferro_chain(4)
        ok, witness = check_operator_inequality(H, weighted_sum([(0.5, H)]))
        assert ok
        assert witness >= -1e-12

    def test_violated_direction(self):
        H = ferro_chain(4)
        ok, witness = check_operator_inequality(weighted_sum([(0.5, H)]), H)
        assert not ok
        # witness is -(1/2) * largest eigenvalue of H
        top = max(np.linalg.eigvalsh(
            np.array([[ (H.apply(e)).real[i] for e in np.eye(16)] for i in range(16)])
        ))
        assert_allclose(witness, -0.5 * top, atol=1e-10)

    def test_sides_on_different_spaces(self):
        with pytest.raises(ValueError, match="different spaces"):
            check_operator_inequality(ferro_chain(3), ferro_chain(4))
        chain = build_hamiltonian(aklt(), grid_edges(1, 3), grid_sites(1, 3))
        with pytest.raises(ValueError, match="different spaces"):
            check_operator_inequality(chain, ferro_chain(3))


class TestConfig:
    def test_guards(self):
        with pytest.raises(ValueError):
            EigenSolveConfig(k=0)

    def test_negative_seed_refused(self):
        # numpy refuses a negative seed only where a start vector is drawn,
        # so the dense path alone would accept it
        with pytest.raises(ValueError, match="seed"):
            EigenSolveConfig(seed=-1)
