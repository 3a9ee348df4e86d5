"""Lowest eigenvalues, spectral gaps, and operator-inequality witnesses.

The gap of a positive-semidefinite operator is its smallest eigenvalue
strictly above the kernel tolerance; kernel multiplicity never enters.
Every solve works on the operator's CSR matrix (`op.sparse()`), real when
the model is real.  Dimensions up to `dense_limit` are densified and solved
by Hermitian `eigh` for only the lowest pairs asked for; larger ones use
ARPACK's implicitly restarted Lanczos (which='SA') on the CSR itself, with
a seeded start vector for determinism and a widened Krylov basis to
resolve the clustered near-zero spectra frustration-free Hamiltonians
produce.  Residuals come from the matrix-free `apply`, a path independent
of the CSR assembly.  In the iterative path the reported kernel dimension
is an estimate: Lanczos may not resolve the full multiplicity of a
degenerate kernel even when the gap itself is converged well past the
requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from gapcert.operators import DEFAULT_DENSE_LIMIT, CompositeOperator, dense_matrix

KERNEL_TOL = 1e-8
# Largest |Im| of a Ritz value, relative to the spectrum's scale, that is taken
# as roundoff of a Hermitian solve (Arnoldi roundoff is ~ ncv * eps * ||H||)
RITZ_IMAG_RTOL = 1e-10


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to converge.

    `partial` is always empty: pairs from a run that stopped early are not
    known to be the lowest, so none of them is ever handed back as a result.
    """

    def __init__(self, message):
        super().__init__(message)
        self.partial = []


class GapUndefinedError(RuntimeError):
    """All computed eigenvalues sit inside the kernel tolerance."""


@dataclass(frozen=True)
class EigenSolveConfig:
    """Eigensolver knobs; identical config + seed gives identical output.

    tol = 0 means machine precision for the iterative path.  dense_limit is
    the dimension at or below which the dense path is used, and the largest
    matrix a dense-only witness materializes.  max_k caps the adaptive
    escalation of k in spectral_gap.
    """

    k: int = 8
    tol: float = 0.0
    max_iter: int | None = None
    seed: int = 7
    dense_limit: int = DEFAULT_DENSE_LIMIT
    max_k: int = 64

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


DEFAULT_CONFIG = EigenSolveConfig()


@dataclass
class GapReport:
    """Lowest eigenvalues with residuals, kernel count, and the gap."""

    eigenvalues: list
    residuals: list
    kernel_dim: int
    gap: float
    kernel_tol: float
    method: str
    k_used: int


def _residuals(op, vals, vecs):
    out = []
    for lam, v in zip(vals, vecs.T):
        out.append(float(np.linalg.norm(op.apply(v) - lam * v)))
    return out


def _real_ritz(op, vals, v0):
    """Ritz values as a real array, refusing an imaginary part above roundoff.

    The scale is the larger of the largest |Ritz value| and ||op v0||, the RMS
    eigenvalue, so a kernel-only window is not judged against its own zeros.
    """
    if not np.iscomplexobj(vals):
        return vals
    scale = max(float(np.abs(vals).max()), float(np.linalg.norm(op.apply(v0))))
    worst = float(np.abs(vals.imag).max())
    if worst > RITZ_IMAG_RTOL * scale:
        raise SolverConvergenceError(
            f"Ritz values have imaginary parts up to {worst:.3g} at scale {scale:.3g}; "
            f"the operator is not Hermitian to roundoff"
        )
    return vals.real


def _eigensolve(op, config: EigenSolveConfig, k: int | None = None, vectors: bool = True):
    """Ascending eigenvalues of a Hermitian operator, with eigenvectors.

    Returns (vals, vecs, method).  Dimensions up to config.dense_limit, and
    every call with k=None (the whole spectrum), densify the CSR and run
    dense eigh for the k lowest pairs (all of them when k=None);
    DimensionLimitError past the limit.  Otherwise ARPACK returns the k
    lowest.  vectors=False skips the eigenvectors on the dense path (vecs is
    then None).
    """
    dim = op.dimension
    if k is None or dim <= config.dense_limit:
        A = dense_matrix(op, limit=config.dense_limit)
        subset = None if k is None or k >= dim else [0, k - 1]
        if not vectors:
            return scipy.linalg.eigvalsh(A, subset_by_index=subset), None, "dense"
        vals, vecs = scipy.linalg.eigh(A, subset_by_index=subset)
        return vals, vecs, "dense"

    if not 0 < k <= dim - 2:
        # ARPACK needs k < dim - 1 (eigs, which complex operators go through)
        raise ValueError(f"iterative path needs 1 <= k <= dimension-2, got k={k}, dim={dim}")
    A = op.sparse()
    rng = np.random.default_rng(config.seed)
    v0 = rng.standard_normal(dim)
    if np.iscomplexobj(A):
        v0 = v0 + 1j * rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    maxiter = config.max_iter or 20000
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            A,
            k=k,
            which="SA",
            v0=v0,
            ncv=min(dim, max(2 * k + 16, 52)),
            maxiter=maxiter,
            tol=config.tol,
        )
    except ArpackNoConvergence as exc:
        # ARPACK's nconv counts converged Ritz pairs, not the lowest ones
        found = np.sort(exc.eigenvalues.real).tolist()
        raise SolverConvergenceError(
            f"ARPACK converged {len(found)} of {k} eigenpairs at dim {dim} "
            f"within maxiter={maxiter}; converged Ritz values, not known to be "
            f"the lowest: {found}"
        ) from exc
    except ArpackError as exc:
        # e.g. error -9 when the operator annihilates the start vector
        raise SolverConvergenceError(
            f"ARPACK could not iterate at dim {dim}: {exc}"
        ) from exc
    vals = _real_ritz(op, vals, v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order], "iterative"


def lowest_eigenvalues(op, config: EigenSolveConfig | None = None):
    """The k smallest eigenvalues of a Hermitian operator, with residuals.

    Returns [(eigenvalue, residual)] ascending, every eigenvalue a real float.
    Dense path below config.dense_limit; ARPACK otherwise.  An ARPACK run
    that stops before all k pairs converge raises SolverConvergenceError:
    the pairs it did converge are not known to be the lowest, so they are
    never returned.
    """
    config = config or DEFAULT_CONFIG
    k = min(config.k, op.dimension)
    vals, vecs, _ = _eigensolve(op, config, k)
    vals, vecs = vals[:k], vecs[:, :k]
    return list(zip(vals.tolist(), _residuals(op, vals, vecs)))


def spectral_gap(op, kernel_tol: float = KERNEL_TOL, config: EigenSolveConfig | None = None) -> GapReport:
    """Smallest eigenvalue above kernel_tol, escalating k until one is found.

    A dense solve computes the lowest max(config.k, config.max_k) pairs at
    once (a subset eigh costs about the same for any such count), falls back
    to the whole spectrum only when all of them lie in the kernel, and
    reports max(config.k, kernel_dim + 1) eigenvalues.  On the iterative
    path k starts at config.k and doubles while every computed eigenvalue
    sits at or below kernel_tol, capped at config.max_k and at the
    dimension - 2.
    """
    config = config or DEFAULT_CONFIG
    dim = op.dimension
    if dim <= config.dense_limit:
        vals, vecs, method = _eigensolve(op, config, min(dim, max(config.k, config.max_k)))
        if vals[-1] <= kernel_tol and len(vals) < dim:
            vals, vecs, method = _eigensolve(op, config)
        kernel_dim = int(np.sum(vals <= kernel_tol))
        if kernel_dim == len(vals):
            raise GapUndefinedError(
                f"all {dim} eigenvalues lie within kernel tolerance {kernel_tol}"
            )
        k = max(config.k, kernel_dim + 1)
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        top = min(config.max_k, dim - 2)
        k = min(max(config.k, 2), top)
        while True:
            vals, vecs, method = _eigensolve(op, config, k)
            kernel_dim = int(np.sum(vals <= kernel_tol))
            if kernel_dim < len(vals):
                break
            if k >= top:
                raise GapUndefinedError(
                    f"all {k} computed eigenvalues lie within kernel tolerance "
                    f"{kernel_tol} after escalating k to {k}"
                )
            k = min(2 * k, top)
    return GapReport(
        eigenvalues=vals.tolist(),
        residuals=_residuals(op, vals, vecs),
        kernel_dim=kernel_dim,
        gap=float(vals[kernel_dim]),
        kernel_tol=kernel_tol,
        method=method,
        k_used=len(vals),
    )


def check_operator_inequality(
    lhs,
    rhs,
    tol: float = 1e-9,
    config: EigenSolveConfig | None = None,
):
    """Witness for lhs >= rhs: (min_eig(lhs - rhs) >= -tol, that eigenvalue)."""
    diff = CompositeOperator.from_operator(lhs) - CompositeOperator.from_operator(rhs)
    pairs = lowest_eigenvalues(diff, config)
    witness = pairs[0][0]
    return witness >= -tol, float(witness)
