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
of the CSR assembly.

There is one solve path, shared by `spectral_gap`, `lowest_eigenvalues`
and the inequality witness built on it.  An operator that declares
per-site charges (both built-in models conserve total Sz) is solved one
total-charge block at a time: the CSR is permuted once by charge label and
cut into its diagonal blocks; an operator without charges is one block.
The dense limit still compares the whole dimension, so it picks the path
for every block; on the iterative path a block too small for ARPACK to
reach past its kernel, or for the k asked of it, is solved by dense
`eigh`.  The lowest pairs are merged across blocks and their eigenvectors
embedded back into the full space.  gap = min over blocks and
kernel_dim = sum over blocks.  A degenerate kernel spread over sectors,
such as a total-spin multiplet, is then counted exactly on both paths.
The kernel dimension is an estimate only where ARPACK solves a
block, or an operator without charges, whose own kernel is degenerate:
Lanczos may not resolve that multiplicity even when the gap itself is
converged well past the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from gapcert.operators import DEFAULT_DENSE_LIMIT, CompositeOperator

KERNEL_TOL = 1e-8


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
    the dimension at or below which the dense path is used (the operator's
    whole dimension, also when it is solved by charge blocks), and the
    largest matrix a dense-only witness materializes.  max_k caps the
    adaptive escalation of an ARPACK solve's k in spectral_gap.
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _dense_lowest(A, k: int):
    """Lowest k pairs of a dense Hermitian array (all of them for k >= dim)."""
    subset = None if k >= A.shape[0] else [0, k - 1]
    return scipy.linalg.eigh(A, subset_by_index=subset)


def _arpack_lowest(A, config: EigenSolveConfig, k: int):
    """Lowest k pairs of a Hermitian CSR matrix by ARPACK (which='SA')."""
    dim = A.shape[0]
    if not 0 < k <= dim - 2:
        # ARPACK needs k < dim - 1 (eigs, which complex operators go through)
        raise ValueError(f"iterative path needs 1 <= k <= dimension-2, got k={k}, dim={dim}")
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
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _charge_blocks(op):
    """[(block CSR, basis indices of the block)] by total charge.

    Each basis index is labelled by a running sum of the per-site charges;
    the CSR is permuted once so that equal labels are contiguous, and each
    block is a diagonal slice of it.  One block (all indices) when the
    operator declares no charges.
    """
    A, dim = op.sparse(), op.dimension
    charges = getattr(op, "charges", None)
    if charges is None:
        return [(A, slice(None))]
    labels = np.zeros(1, dtype=np.int64)
    for _ in op.site_list:
        labels = (labels[:, None] + np.asarray(charges, dtype=np.int64)).ravel()
    order = np.argsort(labels, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), dim]
    A = A[order][:, order]
    blocks = [(A[lo:hi, lo:hi], order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    if sum(B.nnz for B, _ in blocks) != A.nnz:
        raise ValueError(f"operator couples different sectors of its charges {charges}")
    return blocks


def _block_lowest(B, config: EigenSolveConfig, kernel_tol: float, iterative: bool):
    """Lowest pairs of one charge block: at least min(dim, config.k) of them,
    widened by doubling until one lies above kernel_tol or the block is
    exhausted.

    On the iterative path ARPACK runs while its k fits under dim - 2 and
    config.max_k; a block too small for ARPACK to reach past its kernel is
    solved by dense eigh instead.
    """
    n = B.shape[0]
    arpack = iterative and max(config.k, 2) <= n - 2
    k = max(config.k, 2) if arpack else min(config.k, n)
    dense = None
    while True:
        if arpack:
            vals, vecs = _arpack_lowest(B, config, k)
        else:
            if dense is None:
                dense = B.toarray()
            vals, vecs = _dense_lowest(dense, k)
        if vals[-1] > kernel_tol or len(vals) == n:
            return vals, vecs
        if not arpack:
            k = min(2 * k, n)
        elif k < min(config.max_k, n - 2):
            k = min(2 * k, config.max_k, n - 2)
        elif n - 2 < config.max_k:
            arpack, k = False, n
        else:
            raise GapUndefinedError(
                f"all {k} computed eigenvalues of a {n}-state block lie within "
                f"kernel tolerance {kernel_tol} (k={k}, max_k={config.max_k})"
            )


def _solve_blocks(op, config: EigenSolveConfig, kernel_tol: float):
    """Lowest pairs of every charge block, as ([(vals, vecs, basis indices)], method).

    The path is one for all blocks: "dense" when the operator's whole
    dimension is at most config.dense_limit, else "iterative".
    """
    iterative = op.dimension > config.dense_limit
    solved = [
        (*_block_lowest(B, config, kernel_tol, iterative), idx)
        for B, idx in _charge_blocks(op)
    ]
    return solved, "iterative" if iterative else "dense"


def _merge_lowest(op, solved, count: int):
    """The lowest `count` eigenvalues over all solved blocks, ascending, and
    the residuals of their eigenvectors embedded back into the full space."""
    merged = [(v, b, c) for b, (vals, _, _) in enumerate(solved) for c, v in enumerate(vals)]
    merged.sort(key=lambda t: t[0])
    merged = merged[:count]
    dtype = np.result_type(*(vecs for _, vecs, _ in solved))
    vecs = np.zeros((op.dimension, len(merged)), dtype=dtype)
    for j, (_, b, c) in enumerate(merged):
        _, block_vecs, idx = solved[b]
        vecs[idx, j] = block_vecs[:, c]
    vals = np.array([v for v, _, _ in merged])
    return vals, _residuals(op, vals, vecs)


def lowest_eigenvalues(op, config: EigenSolveConfig | None = None):
    """The k smallest eigenvalues of a Hermitian operator, with residuals.

    Returns [(eigenvalue, residual)] ascending, every eigenvalue a real float,
    min(config.k, dimension) of them.  Solved charge block by block like
    `spectral_gap`, with no kernel to widen past: each block gives its
    lowest min(config.k, block dimension) pairs.  An ARPACK run that stops
    before all its pairs converge raises SolverConvergenceError: the pairs
    it did converge are not known to be the lowest, so they are never
    returned.
    """
    config = config or DEFAULT_CONFIG
    solved, _ = _solve_blocks(op, config, -np.inf)
    vals, residuals = _merge_lowest(op, solved, config.k)
    return list(zip(vals.tolist(), residuals))


def spectral_gap(op, kernel_tol: float = KERNEL_TOL, config: EigenSolveConfig | None = None) -> GapReport:
    """Smallest eigenvalue above kernel_tol, solved charge block by block.

    Each block gives its lowest pairs (`_block_lowest`): by dense subset eigh
    when the operator's whole dimension is at most config.dense_limit, else
    by ARPACK on the block's CSR.  gap = min over blocks, kernel_dim = sum
    over blocks, and the report holds the lowest max(config.k, kernel_dim + 1)
    eigenvalues merged across blocks, each block computing at least that
    many minus the other blocks' kernels, with residuals of the eigenvectors
    embedded back into the full space.
    """
    config = config or DEFAULT_CONFIG
    solved, method = _solve_blocks(op, config, kernel_tol)
    kernel_dim = sum(int(np.sum(vals <= kernel_tol)) for vals, _, _ in solved)
    if all(vals[-1] <= kernel_tol for vals, _, _ in solved):
        raise GapUndefinedError(
            f"all {op.dimension} eigenvalues lie within kernel tolerance {kernel_tol}"
        )
    vals, residuals = _merge_lowest(op, solved, max(config.k, kernel_dim + 1))
    return GapReport(
        eigenvalues=vals.tolist(),
        residuals=residuals,
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
