"""Lowest eigenvalues, spectral gaps, and operator-inequality witnesses.

The gap of a positive-semidefinite operator is its smallest eigenvalue
strictly above the kernel tolerance; kernel multiplicity never enters.
Every solve works on blocks, real when the model is real, each assembled
straight from one charge sector's sorted basis indices.  Dimensions up to
`dense_limit` take the dense path: each attempt places the block's terms
straight into one Fortran-ordered array (`dense_matrix`, no CSR) that
LAPACK overwrites in place (no second n x n copy), and Hermitian `eigh`
solves it for only the lowest pairs asked for.  Larger ones take the
iterative path: the block is assembled as a CSR (`op.block`) at its first
ARPACK run, and ARPACK's implicitly restarted Lanczos (which='SA') runs
on it, with a seeded start vector for determinism and a widened Krylov
basis to resolve the clustered near-zero spectra frustration-free
Hamiltonians produce.  Only that path loads scipy.sparse and ARPACK; its
dense fallbacks place their arrays as the dense path does.  Residuals
come from the matrix-free `apply`, a path independent of both assemblies.

There is one solve loop, shared by `spectral_gap`, `lowest_eigenvalue`
and the inequality witness built on it.  `_sectors` names the sectors
whose blocks it solves, and no others, and a weight for each eigenvalue:
- no charges: every charge is 0, so the single total 0 is one block, the
  whole basis, and each eigenvalue weighs 1;
- per-site charges (both built-ins conserve total S^z) but no S+: every
  total-charge block, built and solved one at a time, each eigenvalue
  weighs 1;
- charges and the single-site raising operator S+ of an SU(2) symmetry
  (both built-ins; model files carry no S+): only the central block,
  total S^z = M0 with M0 = 0, or 1/2 when 0 cannot occur.  Each multiplet
  of total spin S has one member there, so each central eigenvalue weighs
  2S+1, with S read off the Gram matrix of S+ (applied site by site,
  `raised`) on its cluster of (numerically) degenerate eigenvectors:
  |S+ v|^2 = S(S+1) - M0(M0+1).
  A cluster that k may have cut waits until k is widened past it, and a
  2S+1 that is not an integer is a SolverConvergenceError.
k widens until a block's weights reach max(k, kernel + 1) or the block is
exhausted.  The whole dimension against the dense limit picks the path of
every block; an iterative block too small for ARPACK to reach far enough,
or one of at most DEFAULT_DENSE_LIMIT states that ARPACK refuses, is
solved by dense `eigh`.  `spectral_gap` merges the lowest values over all
blocks, each repeated by its weight with the residual of its eigenvector
embedded back into the full space.  `lowest_eigenvalue` takes the least
first value over the blocks, which needs no weight: the central block
alone holds a member of every multiplet.

The kernel dimension is exact on the dense path, where every cluster is
whole.  On the iterative path it is exact when ARPACK resolves every
degenerate kernel vector of each block it solves: a ferro central block
has one (the fully polarized multiplet), an AKLT open chain's has two
(S = 0 and S = 1).  Where ARPACK misses one, the count is an estimate,
even when the gap itself is converged well past the requested tolerance.
On the central block the guard on 2S+1 refuses a cluster whose vectors
mix the members of degenerate multiplets, but not one that misses a whole
multiplet.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from gapcert.operators import DEFAULT_DENSE_LIMIT, Sector, dense_matrix, raised, weighted_sum

KERNEL_TOL = 1e-8
CLUSTER_TOL = 1e-8  # central eigenvalues this close belong to one cluster
MULTIPLICITY_TOL = 1e-6  # largest distance of a computed 2S+1 from an integer
RESIDUAL_BATCH = 4  # columns per matvec in _residuals
MAX_ITER = 20000  # ARPACK's maxiter
MAX_K = 64  # cap on the adaptive escalation of an ARPACK solve's k


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to converge.

    Pairs from a run that stopped early are not known to be the lowest, so
    none of them is ever handed back as a result.
    """


class GapUndefinedError(RuntimeError):
    """All computed eigenvalues sit inside the kernel tolerance."""


@dataclass(frozen=True)
class EigenSolveConfig:
    """Eigensolver knobs; identical config + seed gives identical output.

    dense_limit is the dimension at or below which the dense path is used
    (the operator's whole dimension, also when it is solved by blocks), and
    the largest matrix a dense-only witness materializes.  An ARPACK solve
    converges to machine precision (ARPACK tol = 0) within MAX_ITER
    iterations, and its k escalates up to MAX_K.
    """

    k: int = 8
    seed: int = 7
    dense_limit: int = DEFAULT_DENSE_LIMIT

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
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
    method: str
    k_used: int


def _residuals(op, vals, vecs):
    """||op v - lam v|| of each column v, RESIDUAL_BATCH columns per matvec
    (each term copies the rows it reads and writes, for every column)."""
    out = []
    for j in range(0, vecs.shape[1], RESIDUAL_BATCH):
        V, lam = vecs[:, j : j + RESIDUAL_BATCH], vals[j : j + RESIDUAL_BATCH]
        out += np.linalg.norm(op.apply(V) - V * lam, axis=0).tolist()
    return out


def _dense_lowest(A, k: int):
    """Lowest k pairs of a dense Hermitian array (all of them for k >= dim).
    A is consumed: LAPACK overwrites it, in place (no n x n copy) when A is
    Fortran-ordered."""
    subset = None if k >= A.shape[0] else [0, k - 1]
    return scipy.linalg.eigh(A, subset_by_index=subset, overwrite_a=True)


def _arpack_lowest(A, config: EigenSolveConfig, k: int):
    """Lowest k pairs of a Hermitian CSR matrix by ARPACK (which='SA'), or
    None when ARPACK refuses to iterate on a block of at most
    DEFAULT_DENSE_LIMIT states, which dense eigh can take instead."""
    import scipy.sparse.linalg

    dim = A.shape[0]
    if not 0 < k <= dim - 2:
        # ARPACK needs k < dim - 1 (eigs, which complex operators go through)
        raise ValueError(f"iterative path needs 1 <= k <= dimension-2, got k={k}, dim={dim}")
    rng = np.random.default_rng(config.seed)
    v0 = rng.standard_normal(dim)
    if np.iscomplexobj(A):
        v0 = v0 + 1j * rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            A,
            k=k,
            which="SA",
            v0=v0,
            ncv=min(dim, max(2 * k + 16, 52)),
            maxiter=MAX_ITER,
            tol=0,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        # ARPACK's nconv counts converged Ritz pairs, not the lowest ones
        found = np.sort(exc.eigenvalues.real).tolist()
        raise SolverConvergenceError(
            f"ARPACK converged {len(found)} of {k} eigenpairs at dim {dim} "
            f"within maxiter={MAX_ITER}; converged Ritz values, not known to be "
            f"the lowest: {found}"
        ) from exc
    except scipy.sparse.linalg.ArpackError as exc:
        # e.g. error 3 (no shifts could be applied) on a large kernel
        if dim > DEFAULT_DENSE_LIMIT:
            raise SolverConvergenceError(f"ARPACK could not iterate at dim {dim}: {exc}") from exc
        return None
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _multiplicities(raise_, m0: float, vals, vecs, exhausted: bool):
    """2S+1 of each central-block pair in the complete clusters of `vals`;
    raise_(V) is S+ V, from the central block to the next one up (`raised`).

    A cluster is a run of eigenvalues each within CLUSTER_TOL of the next.
    The top cluster may be cut by k, so it is left out unless the block is
    exhausted; the result covers vals[:len(result)].  On a cluster's
    eigenvectors V, the Gram matrix of S+ V has eigenvalues
    |S+ v|^2 = S(S+1) - M0(M0+1), one per spin S in the cluster, so
    2S+1 = sqrt(4g + (2 M0 + 1)^2).  They are paired with the cluster's
    eigenvalues in ascending order.
    """
    bounds = [0, *(np.flatnonzero(np.diff(vals) > CLUSTER_TOL) + 1).tolist(), len(vals)]
    if not exhausted:
        bounds.pop()
    W = raise_(vecs[:, : bounds[-1]])
    gram = W.conj().T @ W
    weights = []
    for lo, hi in zip(bounds, bounds[1:]):
        g = np.linalg.eigvalsh(gram[lo:hi, lo:hi])
        mult = np.sqrt(np.maximum(4 * g + (2 * m0 + 1) ** 2, 0.0))
        if np.abs(mult - np.round(mult)).max() > MULTIPLICITY_TOL:
            raise SolverConvergenceError(
                f"multiplet sizes 2S+1 = {mult.tolist()} of the eigenvalue cluster "
                f"at {vals[lo]:.12g} are not integers within {MULTIPLICITY_TOL:g}; "
                f"the cluster's eigenvectors do not span whole multiplets"
            )
        weights.extend(np.round(mult).astype(int).tolist())
    return np.array(weights, dtype=int)


def _unit_weights(vals, vecs, exhausted: bool):
    """Every pair of a block counts once."""
    return np.ones(len(vals), dtype=int)


def _sectors(op):
    """(sector, weigh) of each block to solve, in turn.

    Charges without S+: each total-charge block, ascending charge, on its
    own `Sector`, unit weights; an operator without charges has the single
    total 0, so its one block is the whole basis.  Charges with S+: the
    central block, the states of the smallest non-negative total charge
    `low`, weighed by `_multiplicities` with S+ applied (`raised`) into the
    sector of charge low + step, built on first use; M0 = low / step, with
    step the charge difference across any nonzero of S+.  No other sector
    is built.
    """
    m, d, Sp = len(op.site_list), op.d, op.raising
    charges = op.charges or (0,) * d
    totals = {0}
    for _ in op.site_list:
        totals = {t + q for t in totals for q in charges}
    if Sp is None:
        for t in sorted(totals):
            yield Sector(m, d, charges, t), _unit_weights
        return
    low = min(t for t in totals if t >= 0)
    a, b = (int(i[0]) for i in np.nonzero(Sp))
    step = charges[a] - charges[b]
    central = Sector(m, d, charges, low)
    image = functools.cache(lambda: Sector(m, d, charges, low + step))
    weigh = functools.partial(
        _multiplicities, lambda V: raised(Sp, central, image(), V), low / step
    )
    yield central, weigh


def _block_lowest(op, sector: Sector, config: EigenSolveConfig, kernel_tol: float, weigh):
    """(vals, vecs, weights) of the lowest pairs of the block of `op` on
    `sector`.

    `weigh(vals, vecs, exhausted)` gives the weights of vals[:len(weights)].
    Starting from min(dim, config.k) pairs, k doubles until the weighed
    pairs expand to max(config.k, kernel + 1) values, kernel being their
    weight at or below kernel_tol, or the block is exhausted.  The path is
    the iterative one when op's whole dimension passes config.dense_limit:
    ARPACK runs on the block's CSR, built at its first run, while its k
    fits under dim - 2 and MAX_K; a block too small for ARPACK to
    reach far enough, or one of at most DEFAULT_DENSE_LIMIT states that
    ARPACK refuses, is solved by dense eigh instead.  Each dense attempt
    places the block into a new array (`dense_matrix`), since
    `_dense_lowest` consumes it.
    """
    n = sector.size
    arpack = op.dimension > config.dense_limit and max(config.k, 2) <= n - 2
    k = max(config.k, 2) if arpack else min(config.k, n)
    csr = functools.cache(lambda: op.block(sector))
    while True:
        if arpack:
            found = _arpack_lowest(csr(), config, k)
            if found is None:
                arpack = False
                continue
            vals, vecs = found
        else:
            vals, vecs = _dense_lowest(dense_matrix(op, n, sector), k)
        exhausted = len(vals) == n
        w = weigh(vals, vecs, exhausted)
        kernel = w[vals[: len(w)] <= kernel_tol].sum()
        if w.sum() >= max(config.k, kernel + 1) or exhausted:
            return vals[: len(w)], vecs[:, : len(w)], w
        if not arpack:
            k = min(2 * k, n)
        elif k < min(MAX_K, n - 2):
            k = min(2 * k, MAX_K, n - 2)
        elif n - 2 < MAX_K:
            arpack, k = False, n
        else:
            raise GapUndefinedError(
                f"the lowest {k} eigenvalues of a {n}-state block do not reach "
                f"past its kernel (k={k}, max_k={MAX_K})"
            )


def _merge_lowest(op, solved, count: int):
    """The lowest `count` eigenvalues over all solved blocks, ascending, each
    repeated by its weight, and for each copy the residual of its
    eigenvector embedded back into the full space at its sector's indices."""
    merged = [
        (v, b, c) for b, (vals, _, _, _) in enumerate(solved) for c, v in enumerate(vals)
    ]
    merged.sort(key=lambda t: t[0])
    copies = [(v, b, c) for v, b, c in merged for _ in range(solved[b][2][c])][:count]
    pairs = list(dict.fromkeys((b, c) for _, b, c in copies))
    dtype = np.result_type(*(vecs for _, vecs, _, _ in solved))
    vecs = np.zeros((op.dimension, len(pairs)), dtype=dtype)
    for j, (b, c) in enumerate(pairs):
        _, block_vecs, _, sector = solved[b]
        vecs[sector.indices, j] = block_vecs[:, c]
    vals = np.array([solved[b][0][c] for b, c in pairs])
    residual = dict(zip(pairs, _residuals(op, vals, vecs)))
    return np.array([v for v, _, _ in copies]), [residual[b, c] for _, b, c in copies]


def lowest_eigenvalue(op, config: EigenSolveConfig | None = None) -> float:
    """The smallest eigenvalue of a Hermitian operator, as a float: the least
    first value of the blocks of `_sectors`, each solved with no kernel and
    unit weights, so S+ is never applied and no residual computed."""
    config = config or DEFAULT_CONFIG
    return min(
        float(_block_lowest(op, sector, config, -np.inf, _unit_weights)[0][0])
        for sector, _ in _sectors(op)
    )


def spectral_gap(op, kernel_tol: float = KERNEL_TOL, config: EigenSolveConfig | None = None) -> GapReport:
    """Smallest eigenvalue above kernel_tol, over the blocks of `_sectors`.

    Each block gives its lowest pairs (`_block_lowest`), all on one path:
    "dense", subset eigh on the block placed straight into a dense array,
    when the operator's whole dimension is at most config.dense_limit, else
    "iterative", ARPACK on the block's CSR.  kernel_dim = the summed weight
    (1 per pair, or 2S+1 per central pair) at or below kernel_tol, and the
    report holds the lowest max(config.k, kernel_dim + 1) eigenvalues, each
    repeated by its weight, with residuals of the eigenvectors embedded
    back into the full space (`_merge_lowest`).  gap = the first of them
    above the kernel.
    """
    config = config or DEFAULT_CONFIG
    solved = [
        (*_block_lowest(op, sector, config, kernel_tol, weigh), sector)
        for sector, weigh in _sectors(op)
    ]
    kernel_dim = sum(int(w[vals <= kernel_tol].sum()) for vals, _, w, _ in solved)
    if all(vals[-1] <= kernel_tol for vals, _, _, _ in solved):
        raise GapUndefinedError(
            f"all {op.dimension} eigenvalues lie within kernel tolerance {kernel_tol}"
        )
    vals, residuals = _merge_lowest(op, solved, max(config.k, kernel_dim + 1))
    return GapReport(
        eigenvalues=vals.tolist(),
        residuals=residuals,
        kernel_dim=kernel_dim,
        gap=float(vals[kernel_dim]),
        method="iterative" if op.dimension > config.dense_limit else "dense",
        k_used=len(vals),
    )


def check_operator_inequality(lhs, rhs, tol: float = 1e-9, config: EigenSolveConfig | None = None):
    """Witness for lhs >= rhs: (min_eig(lhs - rhs) >= -tol, that eigenvalue);
    lhs - rhs keeps the charges and S+ that both sides declare (`weighted_sum`)."""
    witness = lowest_eigenvalue(weighted_sum([(1.0, lhs), (-1.0, rhs)]), config)
    return witness >= -tol, witness
