"""Lowest eigenvalues, spectral gaps, and operator-inequality witnesses.

The gap of a positive-semidefinite operator is its smallest eigenvalue
strictly above the kernel tolerance; kernel multiplicity never enters.
Dimensions up to `dense_limit` go through a full Hermitian
eigendecomposition; larger ones use ARPACK's implicitly restarted Lanczos
(which='SA') on the matrix-free operator, with a seeded start vector for
determinism and a widened Krylov basis to resolve the clustered
near-zero spectra frustration-free Hamiltonians produce.  In the iterative
path the reported kernel dimension is an estimate: Lanczos may not resolve
the full multiplicity of a degenerate kernel even when the gap itself is
converged well past the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator

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
    every call with k=None (the whole spectrum), are materialized and solved
    by dense eigh: all eigenvalues, DimensionLimitError past the limit.
    Otherwise ARPACK returns the k lowest.  vectors=False skips the
    eigenvectors on the dense path (vecs is then None).
    """
    dim = op.dimension
    if k is None or dim <= config.dense_limit:
        A = dense_matrix(op, limit=config.dense_limit)
        if not vectors:
            return scipy.linalg.eigvalsh(A), None, "dense"
        vals, vecs = scipy.linalg.eigh(A)
        return vals, vecs, "dense"

    if not 0 < k <= dim - 2:
        # eigsh cannot take k >= dim-1 for a matrix-free operator
        raise ValueError(f"iterative path needs 1 <= k <= dimension-2, got k={k}, dim={dim}")
    rng = np.random.default_rng(config.seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    lin = LinearOperator(
        (dim, dim), matvec=op.apply, dtype=np.complex128
    )
    maxiter = config.max_iter or 20000
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            lin,
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

    Dense solves see the whole spectrum at once and report
    max(config.k, kernel_dim + 1) eigenvalues.  On the iterative path k
    starts at config.k and doubles while every computed eigenvalue sits at
    or below kernel_tol, capped at config.max_k and at the dimension - 2.
    """
    config = config or DEFAULT_CONFIG
    dim = op.dimension
    top = min(config.max_k, dim - 2)
    k = min(max(config.k, 2), top)
    while True:
        vals, vecs, method = _eigensolve(op, config, k)
        kernel_dim = int(np.sum(vals <= kernel_tol))
        if kernel_dim < len(vals):
            break
        if method == "dense":
            raise GapUndefinedError(
                f"all {dim} eigenvalues lie within kernel tolerance {kernel_tol}"
            )
        if k >= top:
            raise GapUndefinedError(
                f"all {k} computed eigenvalues lie within kernel tolerance "
                f"{kernel_tol} after escalating k to {k}"
            )
        k = min(2 * k, top)
    if method == "dense":
        k = min(max(config.k, kernel_dim + 1), dim)
        vals, vecs = vals[:k], vecs[:, :k]
    return GapReport(
        eigenvalues=vals.tolist(),
        residuals=_residuals(op, vals, vecs),
        kernel_dim=kernel_dim,
        gap=float(vals[kernel_dim]),
        kernel_tol=kernel_tol,
        method=method,
        k_used=len(vals),
    )


def is_frustration_free(op, tol: float = KERNEL_TOL, config: EigenSolveConfig | None = None) -> bool:
    """True iff the lowest eigenvalue is <= tol (the operator has a kernel)."""
    config = config or DEFAULT_CONFIG
    k = min(4, config.k)
    pairs = lowest_eigenvalues(op, replace(config, k=k))
    return pairs[0][0] <= tol


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
