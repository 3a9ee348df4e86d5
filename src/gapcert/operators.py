"""Many-body operators from local projections, and the H^2 = H + Q + R split.

A nearest-neighbor interaction is a projection P on C^d (x) C^d; embedding
it on an edge (j, k) of a site list gives h_{j,k} = P (x) Id_elsewhere.
An operator is a term list with one `dtype`: float64 when every term is
exactly real, complex128 otherwise.  Its blocks are assembled in that
dtype straight from the basis states of their charge sector by index
arithmetic.  A `Sector` is only the sorted indices of one total charge,
each digit read off its index; with every charge 0 it is the whole
tensor basis, the one sector of an operator without charges.  One
placement routine, `_placed`, puts a local term on a sector, and each
matrix form has one route from there.  `dense_matrix`
and the anticommutator patterns of `build_QR` add the placed terms into
a dense array (`_dense`), `ManyBodyOperator.block` sums them into a
scipy.sparse CSR (`_sum_csr`), and `raised` applies S+ on every site
from one sector to the next one up, site by site, with no stored map.
Only a CSR loads scipy.sparse, and only the iterative path builds one.
The matrix-free matvec (`apply`) stays as an independent path for
residuals and for the square-identity check: each term reads only the
amplitudes of its nonzero columns and writes only its nonzero rows,
through one matmul with its matrix cut to those.  It computes in the
common type of the vector and the operator, so real models run real
matvecs on real vectors.  Basis convention: site order follows the site
list, with the first site the most significant tensor factor, i.e. basis
index sum_i s_i * d^(m-1-i) -- the layout np.kron produces.  An
interaction may declare per-site charges whose pair sum P conserves, and
the single-site S+ of an SU(2) symmetry of P; `build_hamiltonian` and
`build_QR` hand both to their operators, and the spectral solvers then
build and solve one total-charge block at a time, or only the central
block when S+ is declared.

`weighted_sum` builds sum c * op as one operator.  `CompositeOperator` is
only a matrix-free sum of operator products (no CSR, no arithmetic).

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

from dataclasses import dataclass, field

import numpy as np

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


class Sector:
    """The basis states of m sites of dimension d whose per-site integer
    `charges` add up to `label`, in ascending index order (`indices`); a
    block is built on them.  Nothing is stored per site: a state's digit on
    site p is indices // strides[p] % d.  `Sector(m, d)` takes every charge
    0, so it is the whole basis, every index 0..d^m-1.
    """

    def __init__(self, m: int, d: int, charges=None, label: int = 0):
        charges = tuple(charges or (0,) * d)
        self.m, self.d, self.charges, self.label = m, d, charges, label
        self.strides = d ** (m - 1 - np.arange(m, dtype=np.int64))
        # the smallest integer type that holds every total and their differences
        q = np.asarray(charges, dtype=np.min_scalar_type(-2 * m * max(map(abs, charges))))
        labels = np.zeros(1, dtype=q.dtype)
        for _ in range(m):
            labels = (labels[:, None] + q).ravel()
        self.indices = np.flatnonzero(labels == label)
        self.size = len(self.indices)

    def _runs(self, pos, *patterns):
        """For each array of digit patterns on the tensor factors `pos`, the
        positions of the states that spell each pattern in turn, each run in
        index order, and the run lengths; each digit is read off `indices`."""
        d, k = self.d, len(pos)
        local = np.zeros(self.size, dtype=np.min_scalar_type(d**k - 1))
        for p in pos:
            local = local * d + (self.indices // self.strides[p] % d).astype(local.dtype)
        grouped = np.argsort(local, kind="stable")  # a radix sort on these small types
        counts = np.bincount(local, minlength=d**k)
        starts = np.cumsum(counts) - counts
        out = []
        for x in patterns:
            sizes = counts[x]
            first = np.repeat(starts[x] - np.cumsum(sizes) + sizes, sizes)
            out.append((grouped[first + np.arange(first.size)], sizes))
        return out


def _index_dtype(n: int):
    """int32 where it holds n, else int64; scipy keeps the index dtype it is
    given, and int32 halves the index bytes."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _placed(M, pos, cols: Sector, rows: Sector):
    """The entries of the d^k x d^k matrix M on the tensor factors `pos`,
    with its columns on the sector `cols` and its rows on the sector
    `rows`, as (data, (row, col)), the form `_dense` and `_sum_csr` add up.

    Entry (a, b) of M sends each state whose digits at `pos` spell b to
    index + off[a] - off[b], off[b] being the index whose digits at `pos`
    spell b and are 0 elsewhere, and moves its total charge by a fixed amount.
    An entry that does not move it by rows.label - cols.label is refused:
    the term couples different sectors.  Otherwise the images of the
    pattern-b run of `cols` are the pattern-a run of `rows`, in order.
    The entries come in ascending off[b], so each row's columns ascend and
    a CSR built from them needs no sort.  No two entries share a (row, col)
    position: entries with one b have distinct a, hence distinct rows.
    """
    digits = np.indices((cols.d,) * len(pos)).reshape(len(pos), -1)  # a column per pattern
    off = cols.strides[list(pos)] @ digits
    charge = np.asarray(cols.charges)[digits].sum(axis=0)
    a, b = np.nonzero(M)
    order = np.argsort(off[b], kind="stable")
    a, b = a[order], b[order]
    moved = charge[a] - charge[b]
    want = rows.label - cols.label
    if np.any(moved != want):
        j = int(np.argmax(moved != want))
        raise ValueError(
            f"term on tensor factors {tuple(pos)} couples different sectors of the "
            f"charges {cols.charges}: its entry ({a[j]}, {b[j]}) moves the "
            f"total charge by {moved[j]}, not {want}"
        )
    if rows is cols:
        (at, sizes), (to, _) = cols._runs(pos, b, a)
    else:
        [(at, sizes)], [(to, _)] = cols._runs(pos, b), rows._runs(pos, a)
    index = _index_dtype(max(rows.size, cols.size))
    return np.repeat(M[a, b], sizes), (to.astype(index, copy=False), at.astype(index, copy=False))


def _dense(placed, n: int, dtype):
    """The sum of `_placed` entry lists, consumed one at a time, as a zeroed
    n x n Fortran-ordered array of `dtype`, each list added in by
    A[rows, cols] += data.  That fancy-index add is exact only because no
    two entries of one list share a position (`_placed`).  The caller owns
    the array and may let LAPACK overwrite it."""
    A = np.zeros((n, n), dtype=dtype, order="F")
    for data, (rows, cols) in placed:
        A[rows, cols] += data
    return A


def raised(raising, sector: Sector, image: Sector, V):
    """(sum_j S+_j) V for columns V on `sector`, with S+ the single-site
    raising operator on every site, as columns on `image`, applied site by
    site from its `_placed` entries.  Two states of one site may raise to
    one image row, so each site's products are added by np.add.at."""
    M = raising if raising.imag.any() else raising.real
    W = np.zeros((image.size, V.shape[1]), dtype=np.result_type(M, V))
    for j in range(sector.m):
        data, (rows, cols) = _placed(M, (j,), sector, image)
        np.add.at(W, rows, data[:, None] * V[cols])
    return W


def _sum_csr(placed, shape):
    """The CSR sum of `_placed` entry lists, each made a CSR of `shape` and
    consumed one at a time, by pairwise merges: partial sums of equal rank
    merge as in a binary counter, so t summands cost O(nnz log t) work and
    at most log2(t) partial sums are alive at once; no triplet list of all
    summands is ever built.  The one place in this module that loads
    scipy.sparse, so a run that builds no CSR never loads it."""
    import scipy.sparse

    stack = []
    for entries in placed:
        A, rank = scipy.sparse.csr_array(entries, shape=shape), 0
        while stack and stack[-1][0] == rank:
            A = stack.pop()[1] + A
            rank += 1
        stack.append((rank, A))
    out = scipy.sparse.csr_array(shape, dtype=np.float64)
    while stack:
        out = out + stack.pop()[1]
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
        self._cut = None

    @property
    def terms(self):
        return [
            (tuple(self.site_list[i] for i in pos), M)
            for pos, M in zip(self._positions, self._mats)
        ]

    @property
    def n_terms(self) -> int:
        return len(self._mats)

    def _placed_terms(self, sector: Sector):
        """The `_placed` entries of each term on `sector`, one term at a time."""
        return (_placed(M, pos, sector, sector) for pos, M in zip(self._positions, self._mats))

    def block(self, sector: Sector):
        """The operator on the states of `sector` as a CSR of `dtype`, each
        term placed once (`_sum_csr`); ValueError if a term couples
        different sectors."""
        return _sum_csr(self._placed_terms(sector), (sector.size, sector.size))

    def _cut_terms(self):
        """Per nonzero term, built on first use and kept: the state shape with
        each run of untouched sites merged into one axis, the order of its
        axes that puts the term's sites first, the term's matrix cut to its
        nonzero rows and columns, and the digits of those rows and of those
        columns (None for all d^k)."""
        if self._cut is None:
            m, d = len(self.site_list), self.d
            self._cut = []
            for pos, M in zip(self._positions, self._mats):
                rows, cols = (np.flatnonzero(M.any(axis=a)) for a in (1, 0))
                if rows.size == 0:
                    continue
                starts = [i for i in range(m) if i == 0 or i in pos or i - 1 in pos]
                shape = tuple(d ** (b - a) for a, b in zip(starts, starts[1:] + [m]))
                axes = tuple(starts.index(p) for p in pos)
                order = axes + tuple(i for i in range(len(shape)) if i not in axes)
                k = len(pos)
                digits = [
                    None if nz.size == d**k else np.unravel_index(nz, (d,) * k)
                    for nz in (rows, cols)
                ]
                self._cut.append((shape, order, k, M[np.ix_(rows, cols)], *digits))
        return self._cut

    def apply(self, v):
        """Matvec; accepts a vector (dim,) or a column batch (dim, nb).

        Computes in the common type of v and `dtype`: a real vector on a real
        operator stays real, a complex vector stays complex.  Each term
        gathers the amplitudes of its nonzero columns, multiplies them by its
        cut matrix and adds the product into its nonzero rows; a term with no
        zero row or column is a plain transpose, matmul and add.
        """
        v = np.asarray(v)
        v = v.astype(np.result_type(v, self.dtype), copy=False)
        if v.shape[0] != self.dimension:
            raise ValueError(
                f"vector length {v.shape[0]} does not match dimension {self.dimension}"
            )
        out = np.zeros_like(v)
        for shape, order, k, M, rows, cols in self._cut_terms():
            # splitting axis 0 is always a view, so the adds land in `out`
            perm = order + tuple(range(len(shape), v.ndim - 1 + len(shape)))
            vt, ot = (x.reshape(shape + v.shape[1:]).transpose(perm) for x in (v, out))
            product = M @ (vt if cols is None else vt[cols]).reshape(M.shape[1], -1)
            if rows is None:
                ot += product.reshape(ot.shape)
            else:
                ot[rows] += product.reshape((-1,) + ot.shape[k:])
        return out


class CompositeOperator:
    """Real linear combination of products of operator factors, matrix-free.

    Parts are (coefficient, factors) with factors a tuple of operators
    applied right-to-left, so (c, (A, B)) contributes c * A(B(v)).  The
    prop-key sum-identity note applies its box Hamiltonians through it.
    """

    def __init__(self, dimension: int, parts):
        self.dimension = int(dimension)
        self.parts = [(float(coeff), tuple(factors)) for coeff, factors in parts]
        if any(f.dimension != self.dimension for _, factors in self.parts for f in factors):
            raise ValueError("factor dimension mismatch")

    def apply(self, v):
        v = np.asarray(v, dtype=np.complex128)  # each factor checks the length
        out = np.zeros_like(v)
        for coeff, factors in self.parts:
            w = v
            for f in reversed(factors):
                w = f.apply(w)
            out += coeff * w
        return out


def weighted_sum(parts) -> ManyBodyOperator:
    """sum of c * op over (c, op) in `parts` as one ManyBodyOperator; ValueError
    unless all ops share one site list and d.  c is a number or one weight per
    term.  Terms of weight 0 are dropped, the rest are scaled by their weights
    and keep their order, except that a term on the sites of a term of an
    earlier part is added into that term.  The sum keeps the charges, and with
    them the S+, that all parts declare alike: each term keeps both, whatever
    its weight."""
    first = parts[0][1]
    site_list, d = first.site_list, first.d
    terms, where = [], {}
    for c, op in parts:
        if op.site_list != site_list or op.d != d:
            raise ValueError(
                f"operators on different spaces: {len(op.site_list)} sites at d={op.d} "
                f"against {len(site_list)} sites at d={d}"
            )
        earlier = dict(where)
        for w, (sites_of_term, M) in zip(np.broadcast_to(c, op.n_terms), op.terms):
            if w and sites_of_term in earlier:
                i = earlier[sites_of_term]
                terms[i] = (sites_of_term, terms[i][1] + w * M)
            elif w:
                where[sites_of_term] = len(terms)
                terms.append((sites_of_term, w * M))
    alike = [all(np.array_equal(getattr(op, s), getattr(first, s)) for _, op in parts)
             for s in ("charges", "raising")]
    charges = first.charges if alike[0] else None
    return ManyBodyOperator(site_list, d, terms, charges, first.raising if all(alike) else None)


@dataclass
class TermDecomposition:
    """The split H^2 = H + Q + R; one Q (R) term per touching (disjoint) pair,
    Q's (R's) term t on the slots q_pairs[t] (r_pairs[t]) = (i, j) of sorted(edges)."""

    H: ManyBodyOperator
    Q: ManyBodyOperator
    R: ManyBodyOperator
    q_pairs: np.ndarray
    r_pairs: np.ndarray


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
    each factor placed there densely by `_placed` before the product."""
    union = tuple(dict.fromkeys(term1[0] + term2[0]))
    full = Sector(len(union), d)
    A, B = (
        _dense([_placed(M, [union.index(s) for s in sites], full, full)], full.size, M.dtype)
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
    pairs = np.column_stack((first, second))
    return TermDecomposition(
        H=H,
        Q=ManyBodyOperator(H.site_list, H.d, q_terms, H.charges, H.raising),
        R=ManyBodyOperator(H.site_list, H.d, r_terms, H.charges, H.raising),
        q_pairs=pairs[~disjoint],
        r_pairs=pairs[disjoint],
    )


def dense_matrix(op, limit: int = DEFAULT_DENSE_LIMIT, sector: Sector | None = None) -> np.ndarray:
    """The operator, or its block on `sector`, as a dense Fortran-ordered
    array of its dtype, its terms added straight into it (no CSR); refused
    when that dimension passes `limit`.  The caller owns the array and may
    hand it to LAPACK to overwrite (`overwrite_a=True`), which then makes
    no copy of it."""
    if sector is None:
        sector = Sector(len(op.site_list), op.d)
    if sector.size > limit:
        fit = _sites_within(op.d, limit)
        raise DimensionLimitError(
            f"dimension {sector.size} exceeds dense limit {limit}; at d={op.d} "
            + (f"at most {fit} sites fit" if fit else "not even one site fits")
        )
    return _dense(op._placed_terms(sector), sector.size, op.dtype)


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
        n_touching_pairs=len(dec.q_pairs),
        n_disjoint_pairs=len(dec.r_pairs),
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
