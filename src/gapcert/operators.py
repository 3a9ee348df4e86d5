"""Many-body operators from local projections, and the H^2 = H + Q + R split.

A nearest-neighbor interaction is a projection P on C^d (x) C^d; embedding
it on an edge (j, k) of a site list gives h_{j,k} = P (x) Id_elsewhere.
An operator is a term list with one `dtype`: float64 when every term is
exactly real, complex128 otherwise.  Every solver works on one
representation, a scipy.sparse CSR matrix of that dtype assembled once per
operator by index arithmetic on the tensor basis.  The matrix-free matvec
(`apply`) stays as an independent path for residuals and for the
square-identity check; it computes in the common type of the vector and
the operator, so real models run real matvecs on real vectors.  Basis
convention: site order follows the site list, with the first site the
most significant tensor factor, i.e. basis index sum_i s_i * d^(m-1-i) --
the layout np.kron produces.  An interaction may declare per-site charges
whose pair sum P conserves, and the single-site S+ of an SU(2) symmetry
of P; `build_hamiltonian` hands both to the operator, and the spectral
solvers then split it into total-charge blocks, or solve only its central
block when S+ is declared.

Two size guards, each checked in one place: `ManyBodyOperator.__init__`
refuses a dimension past `MAX_DIMENSION`, before anything is allocated,
and `dense_matrix` refuses a dense array past the caller's dense limit.
Both name the number of sites that fit.

Squaring H = sum_e h_e with h_e^2 = h_e gives H^2 = H + Q + R, where Q
collects anticommutators {h_e, h_e'} of touching distinct edge pairs and R
those of disjoint (hence commuting) pairs; each R summand is a product of
commuting positive-semidefinite projections, so R >= 0.  Each pair is one
local term of Q or R, a dense matrix on its 3 (touching), 4 (disjoint) or
2 (doubled side-2 slot) sites; pairs that overlap alike share one matrix.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from gapcert.lattice import PairClass, classify_pairs, edge_arrays

MAX_DIMENSION = 2**28  # largest dimension of any operator
DEFAULT_DENSE_LIMIT = 4096  # largest dimension solved or materialized densely
PROJECTION_TOL = 1e-12


class DimensionLimitError(RuntimeError):
    """Raised when an operation would exceed a configured dimension limit."""


def _sites_within(d: int, limit: int) -> int:
    """Largest number of sites m with d^m <= limit."""
    m = 0
    while d ** (m + 1) <= limit:
        m += 1
    return m


def projection_defects(P) -> tuple[float, float]:
    """Spectral-norm defects (||P - P*||, ||P^2 - P||) of a square matrix."""
    P = np.asarray(P)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    herm = np.linalg.norm(P - P.conj().T, 2)
    idem = np.linalg.norm(P @ P - P, 2)
    return float(herm), float(idem)


def projection_check(P, tol: float = PROJECTION_TOL) -> bool:
    """True iff P is Hermitian and idempotent within tol (spectral norm)."""
    herm, idem = projection_defects(P)
    return herm <= tol and idem <= tol


@dataclass(frozen=True, eq=False)
class NNInteraction:
    """Local dimension d and a projection P on the two-site space C^(d^2).

    `charges`, if given, are d integers, one per basis state of a site, whose
    pair sum P conserves; the check runs here, so a Hamiltonian built from
    the interaction is block diagonal by total charge.

    `raising`, if given, is the single-site spin raising operator S+ (d x d)
    of an SU(2) symmetry of P.  It needs `charges`, and is refused unless
    S^z = [S+, S-]/2 is diagonal with charges = c * diag(S^z) for one c > 0,
    its values are all integers or all half-integers, [S^z, S+] = S+, and
    P commutes with S+ (x) 1 + 1 (x) S+.  The spectral solvers then solve
    only the central total-S^z block of a Hamiltonian built from it.
    """

    d: int
    P: np.ndarray
    name: str = ""
    charges: tuple | None = None
    raising: np.ndarray | None = None

    def __post_init__(self):
        P = np.asarray(self.P, dtype=np.complex128)
        if P.shape != (self.d**2, self.d**2):
            raise ValueError(
                f"interaction matrix shape {P.shape} does not match d^2 = {self.d**2}"
            )
        object.__setattr__(self, "P", P)
        if self.charges is not None:
            charges = tuple(int(c) for c in self.charges)
            if len(charges) != self.d or charges != tuple(self.charges):
                raise ValueError(f"charges must be {self.d} integers, got {self.charges}")
            q = np.array(charges, dtype=float)
            pair = (q[:, None] + q[None, :]).ravel()  # diagonal of q(x)1 + 1(x)q
            defect = np.linalg.norm(P * pair[None, :] - pair[:, None] * P, 2)
            if defect > PROJECTION_TOL:
                raise ValueError(
                    f"P does not conserve the charges {charges}: "
                    f"|[P, q(x)1 + 1(x)q]| = {defect:.6e} (tolerance {PROJECTION_TOL:g})"
                )
            object.__setattr__(self, "charges", charges)
        if self.raising is not None:
            object.__setattr__(self, "raising", self._checked_raising(P))

    def _checked_raising(self, P):
        """`raising` as a complex array; ValueError naming the first defect."""
        if self.charges is None:
            raise ValueError("raising needs per-site charges (the S^z sectors)")
        Sp = np.asarray(self.raising, dtype=np.complex128)
        if Sp.shape != (self.d, self.d):
            raise ValueError(f"raising shape {Sp.shape} does not match d = {self.d}")
        Sm = Sp.conj().T
        Sz = (Sp @ Sm - Sm @ Sp) / 2
        sz = np.diag(Sz).real
        q = np.array(self.charges, dtype=float)
        c = float(q @ sz / (sz @ sz)) if sz.any() else 0.0
        defects = [
            ("S^z = [S+, S-]/2 is not diagonal", np.linalg.norm(Sz - np.diag(sz), 2)),
            ("[S^z, S+] != S+", np.linalg.norm(Sz @ Sp - Sp @ Sz - Sp, 2)),
            (f"the charges are not c * diag(S^z) for one c > 0 (diag(S^z) = {sz})",
             np.inf if c <= 0 else np.abs(q - c * sz).max()),
            ("the S^z values mix integers and half-integers",
             np.abs(np.round(2 * sz - 2 * sz[0]) % 2).max()),
        ]
        for what, defect in defects:
            if defect > PROJECTION_TOL:
                raise ValueError(f"raising refused: {what} (defect {defect:.6e})")
        eye = np.eye(self.d)
        total = np.kron(Sp, eye) + np.kron(eye, Sp)
        defect = np.linalg.norm(P @ total - total @ P, 2)
        if defect > PROJECTION_TOL:
            raise ValueError(
                f"P is not SU(2)-invariant under the declared raising operator: "
                f"|[P, S+(x)1 + 1(x)S+]| = {defect:.6e} (tolerance {PROJECTION_TOL:g})"
            )
        return Sp

    def check(self, tol: float = PROJECTION_TOL) -> bool:
        return projection_check(self.P, tol)


def _embedded_term(M, pos, m: int, d: int):
    """CSR of the d^k x d^k matrix M on the tensor factors `pos` of m sites.

    Entry (a, b) of M lands at (base + off[a], base + off[b]) for every basis
    index `base` whose digits at `pos` are zero.
    """
    strides = d ** (m - 1 - np.arange(m, dtype=np.intp))
    base = np.zeros(1, dtype=np.intp)
    for i in sorted(set(range(m)) - set(pos)):
        base = (base[:, None] + strides[i] * np.arange(d)).ravel()
    digits = np.unravel_index(np.arange(M.shape[0]), (d,) * len(pos))
    off = np.zeros(M.shape[0], dtype=np.intp)
    for p, digit in zip(pos, digits):
        off += strides[p] * digit
    dim = d**m
    # scipy keeps the index dtype it is given; int32 halves the index bytes
    index = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    a, b = np.nonzero(M)
    rows = (off[a][:, None] + base).astype(index).ravel()
    cols = (off[b][:, None] + base).astype(index).ravel()
    data = np.repeat(M[a, b], base.size)
    return scipy.sparse.csr_array((data, (rows, cols)), shape=(dim, dim))


def _sum_csr(dimension: int, matrices):
    """Sum of CSR matrices, consumed one at a time, by pairwise merges.

    Partial sums of equal rank merge as in a binary counter, so n summands
    cost O(nnz log n) work and at most log2(n) partial sums are alive at
    once; no triplet list of all summands is ever built.
    """
    stack = []
    for A in matrices:
        rank = 0
        while stack and stack[-1][0] == rank:
            A = stack.pop()[1] + A
            rank += 1
        stack.append((rank, A))
    out = scipy.sparse.csr_array((dimension, dimension), dtype=np.float64)
    for _, A in reversed(stack):
        out = out + A
    return out


class ManyBodyOperator:
    """Hermitian sum of local terms embedded on an ordered site list.

    `terms` is a list of (sites, matrix) with `sites` a tuple of entries of
    `site_list` (length k >= 1) and `matrix` of shape (d^k, d^k) acting on
    those tensor factors in the given order.  `dtype` is float64 when every
    term's imaginary part is exactly zero, else complex128; the terms are
    stored, assembled and applied in it.  `charges`, if given, are d
    per-site integers whose total every term conserves (the caller's
    guarantee; `NNInteraction` checks it); the spectral solvers then work
    sector by sector.  `raising`, if given, is the single-site S+ of an
    SU(2) symmetry of every term, with the charges proportional to S^z (the
    same guarantee); the spectral solvers then solve one sector only.  A
    dimension past `MAX_DIMENSION` is refused with DimensionLimitError
    before any term is read.
    """

    def __init__(self, site_list, d: int, terms, charges=None, raising=None):
        self.site_list = list(site_list)
        self.d = int(d)
        self.charges = None if charges is None else tuple(charges)
        self.raising = None if raising is None else np.asarray(raising)
        if len(set(self.site_list)) != len(self.site_list):
            raise ValueError("site list contains duplicates")
        self.dimension = self.d ** len(self.site_list)
        if self.dimension > MAX_DIMENSION:
            raise DimensionLimitError(
                f"dimension {self.d}^{len(self.site_list)} exceeds the dimension cap "
                f"{MAX_DIMENSION}; at d={self.d} operators are feasible on at most "
                f"{_sites_within(self.d, MAX_DIMENSION)} sites"
            )
        index = {s: i for i, s in enumerate(self.site_list)}
        self._positions = []
        mats = []
        for sites_of_term, M in terms:
            pos = tuple(index[s] for s in sites_of_term)
            if len(set(pos)) != len(pos):
                raise ValueError(f"term touches a site twice: {sites_of_term}")
            M = np.asarray(M, dtype=np.complex128)
            want = self.d ** len(pos)
            if M.shape != (want, want):
                raise ValueError(
                    f"term matrix shape {M.shape} does not match d^{len(pos)} = {want}"
                )
            self._positions.append(pos)
            mats.append(M)
        real = not any(M.imag.any() for M in mats)
        self.dtype = np.dtype(np.float64 if real else np.complex128)
        self._mats = [np.ascontiguousarray(M.real if real else M) for M in mats]
        self._csr = None

    @property
    def terms(self):
        return [
            (tuple(self.site_list[i] for i in pos), M)
            for pos, M in zip(self._positions, self._mats)
        ]

    @property
    def n_terms(self) -> int:
        return len(self._mats)

    def sparse(self):
        """The operator as a CSR matrix of `dtype`, assembled on first use and kept."""
        if self._csr is None:
            m, d = len(self.site_list), self.d
            self._csr = _sum_csr(
                self.dimension,
                (_embedded_term(M, pos, m, d) for pos, M in zip(self._positions, self._mats)),
            )
        return self._csr

    def apply(self, v):
        """Matvec; accepts a vector (dim,) or a column batch (dim, nb).

        Computes in the common type of v and `dtype`: a real vector on a real
        operator stays real, a complex vector stays complex.
        """
        v = np.asarray(v)
        v = v.astype(np.result_type(v, self.dtype), copy=False)
        if v.shape[0] != self.dimension:
            raise ValueError(
                f"vector length {v.shape[0]} does not match dimension {self.dimension}"
            )
        m, d = len(self.site_list), self.d
        out = np.zeros_like(v)
        vr = v.reshape((d,) * m + v.shape[1:])
        outr = out.reshape(vr.shape)
        for pos, M in zip(self._positions, self._mats):
            k = len(pos)
            Mr = M.reshape((d,) * (2 * k))
            t = np.tensordot(Mr, vr, axes=(tuple(range(k, 2 * k)), pos))
            outr += np.moveaxis(t, tuple(range(k)), pos)
        return out


class CompositeOperator:
    """Real linear combination of products of operator factors.

    Parts are (coefficient, factors) with factors a tuple of operators
    applied right-to-left, so (c, (A, B)) contributes c * A(B(v)).  The
    combination is Hermitian whenever the caller includes products in
    conjugate-transposed pairs (or squares of Hermitian factors), as the
    constructors here do.
    """

    def __init__(self, dimension: int, parts):
        self.dimension = int(dimension)
        self.parts = []
        for coeff, factors in parts:
            factors = tuple(factors)
            for f in factors:
                if f.dimension != self.dimension:
                    raise ValueError("factor dimension mismatch")
            self.parts.append((float(coeff), factors))
        self._csr = None

    @classmethod
    def from_operator(cls, op, coeff: float = 1.0):
        if isinstance(op, CompositeOperator):
            return coeff * op
        return cls(op.dimension, [(coeff, (op,))])

    def apply(self, v):
        v = np.asarray(v, dtype=np.complex128)
        if v.shape[0] != self.dimension:
            raise ValueError(
                f"vector length {v.shape[0]} does not match dimension {self.dimension}"
            )
        out = np.zeros_like(v)
        for coeff, factors in self.parts:
            w = v
            for f in reversed(factors):
                w = f.apply(w)
            out += coeff * w
        return out

    def sparse(self):
        """CSR of sum of coeff * (product of the factors' CSR), kept after first use."""
        if self._csr is None:
            self._csr = _sum_csr(
                self.dimension,
                (
                    coeff * functools.reduce(operator.matmul, (f.sparse() for f in factors))
                    for coeff, factors in self.parts
                ),
            )
        return self._csr

    def __add__(self, other):
        other = CompositeOperator.from_operator(other)
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return CompositeOperator(self.dimension, self.parts + other.parts)

    def __sub__(self, other):
        return self + (-1.0) * CompositeOperator.from_operator(other)

    def __rmul__(self, scalar):
        return CompositeOperator(
            self.dimension, [(float(scalar) * c, f) for c, f in self.parts]
        )

    def __neg__(self):
        return (-1.0) * self


@dataclass
class TermDecomposition:
    """The split H^2 = H + Q + R; one Q (R) term per touching (disjoint) pair."""

    H: ManyBodyOperator
    Q: ManyBodyOperator
    R: ManyBodyOperator
    n_touching_pairs: int = 0
    n_disjoint_pairs: int = 0


def build_hamiltonian(interaction: NNInteraction, edges, site_list) -> ManyBodyOperator:
    """Sum of the interaction embedded on every edge; term order = sorted edges."""
    if not interaction.check():
        herm, idem = projection_defects(interaction.P)
        raise ValueError(
            f"interaction failed projection check: ||P-P*||={herm:.3g}, ||P^2-P||={idem:.3g}"
        )
    terms = [((e.tail, e.head), interaction.P) for e in sorted(edges)]
    return ManyBodyOperator(
        site_list, interaction.d, terms, interaction.charges, interaction.raising
    )


def _anticommutator(term1, term2, d: int):
    """{h1, h2} of two local terms as one matrix on the union of their sites,
    each factor placed there by `_embedded_term` before the product."""
    union = tuple(dict.fromkeys(term1[0] + term2[0]))
    A, B = (
        _embedded_term(M, [union.index(s) for s in sites], len(union), d).toarray()
        for sites, M in (term1, term2)
    )
    return union, A @ B + B @ A


def build_QR(interaction: NNInteraction, edges, site_list) -> TermDecomposition:
    """H plus the anticommutator sums Q (touching pairs) and R (disjoint pairs).

    Each unordered pair is one term {h1, h2}, so a disjoint pair enters R as
    h1 h2 + h2 h1 = 2 h1 h2.  Pairs of distinct slots carrying the same
    endpoints (side-2 wrap) do not commute in general and are kept in Q.

    Every H term is `interaction.P`, so a pair's anticommutator depends only
    on its overlap pattern: where e'.tail and e'.head fall in the union
    (e.tail, e.head, ...).  Each pattern's matrix is formed once, on the
    placeholder sites 0..k-1, and shared by all pairs with that pattern.
    """
    H = build_hamiltonian(interaction, edges, site_list)
    ordered = sorted(edges)
    first, second = np.triu_indices(len(ordered), 1)  # itertools.combinations order
    disjoint = classify_pairs(*edge_arrays(ordered), first, second) == PairClass.DISJOINT
    by_pattern = {}
    q_terms, r_terms = [], []
    for i, j, apart in zip(first.tolist(), second.tolist(), disjoint.tolist()):
        e, f = ordered[i], ordered[j]
        union = tuple(dict.fromkeys((e.tail, e.head, f.tail, f.head)))
        pattern = (union.index(f.tail), union.index(f.head))
        if pattern not in by_pattern:
            P = interaction.P
            by_pattern[pattern] = _anticommutator(((0, 1), P), (pattern, P), H.d)[1]
        (r_terms if apart else q_terms).append((union, by_pattern[pattern]))
    return TermDecomposition(
        H=H,
        Q=ManyBodyOperator(H.site_list, H.d, q_terms),
        R=ManyBodyOperator(H.site_list, H.d, r_terms),
        n_touching_pairs=len(q_terms),
        n_disjoint_pairs=len(r_terms),
    )


def dense_matrix(op, limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """The operator's CSR as a dense array, refused past `limit`."""
    if op.dimension > limit:
        raise DimensionLimitError(
            f"dimension {op.dimension} exceeds dense limit {limit}; "
            f"at d={op.d} at most {_sites_within(op.d, limit)} sites fit"
        )
    return op.sparse().toarray()


@dataclass
class SquareIdentityReport:
    """Residuals of (H^2 - H - Q - R) v over random unit vectors."""

    residuals: list = field(default_factory=list)
    tol: float = 1e-10
    n_touching_pairs: int = 0
    n_disjoint_pairs: int = 0

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def verify_square_identity(
    interaction: NNInteraction,
    edges,
    site_list,
    trials: int = 20,
    tol: float = 1e-10,
    seed: int = 0,
) -> SquareIdentityReport:
    """Check H^2 = H + Q + R on random unit vectors; exact up to roundoff.

    The vectors are real Gaussians when H, Q and R are all float64, complex
    Gaussians otherwise.  A real draw loses no power: T = H^2 - H - Q - R is
    then a real matrix and T(a + ib) = Ta + iTb, so a nonzero T maps a real
    Gaussian vector to a nonzero one with probability 1, as it does a
    complex one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dec = build_QR(interaction, edges, site_list)
    H, Q, R = dec.H, dec.Q, dec.R
    real = all(op.dtype == np.float64 for op in (H, Q, R))
    rng = np.random.default_rng(seed)
    report = SquareIdentityReport(
        tol=tol,
        n_touching_pairs=dec.n_touching_pairs,
        n_disjoint_pairs=dec.n_disjoint_pairs,
    )
    dim = H.dimension
    for _ in range(trials):
        v = rng.standard_normal(dim)
        if not real:
            v = v + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        hv = H.apply(v)
        resid = H.apply(hv) - hv - Q.apply(v) - R.apply(v)
        report.residuals.append(float(np.linalg.norm(resid)))
    return report


def cauchy_schwarz_witness(
    P1: NNInteraction,
    P2: NNInteraction,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> float:
    """Minimum eigenvalue of {h12, h23} + h12 + h23 on a 3-site chain.

    Non-negativity is the operator Cauchy-Schwarz inequality
    -{A, B} <= A^2 + B^2 specialized to projections (A^2 = A).
    """
    if P1.d != P2.d:
        raise ValueError(f"local dimensions differ: {P1.d} != {P2.d}")
    d = P1.d
    if d**3 > dense_limit:
        raise DimensionLimitError(f"dimension {d**3} exceeds dense limit {dense_limit}")
    h12 = np.kron(P1.P, np.eye(d))
    h23 = np.kron(np.eye(d), P2.P)
    W = h12 @ h23 + h23 @ h12 + h12 + h23
    return float(np.linalg.eigvalsh(W)[0])
