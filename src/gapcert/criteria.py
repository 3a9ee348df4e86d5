"""Finite-size gap criteria, scaling fits, and proof-ingredient witnesses.

Three criteria are implemented, each converting the gap of a small
subsystem into a bulk statement.  On chains (theorems "gm" and "lm") the
subsystem is the n-site open chain with gap gamma_n; on boxes (theorem
"main", D >= 3) it is the open box {0..n}^D with gap gamma_B:

    gm:   gamma_m^per >= (5/6) (n^2+n)/(n^2-4) (gamma_n - 6/(n(n+1))),  n > 2, m > 2n
    lm:   gamma_m     >= (min_{ceil(n/2) <= l <= n} gamma_l - 4 sqrt(6)/n^{3/2})
                          / (2^9 sqrt(6) n),                            n > 3, m > 2n
    main: gamma_N     >= gamma_B - 1/n - 2/n^2,                         n >= 3, N >= 2n+1

Certification means the local gap exceeds the threshold term by more than
the numerical error budget of the computed gaps, so the implied bulk
bound is positive whatever their roundoff.  Subsystems are always open boxes; the
bulk operator is always periodic.  Each criterion is one row of
`THEOREM_TABLE` (its domain of n, closed forms and subsystem sizes), which
`certify` and the CLI sweep both read.

The "main" bound rests on one operator proposition: with A the sum of
squared box Hamiltonians (H_{B_l})^2 over all translates l, both

    A <= (n(n+1)^{D-1} + 2(n+1)^{D-2}) H + n^2 (n+1)^{D-2} (Q + R)
    A >= n(n+1)^{D-1} gamma_B H

hold on the torus.  Full witnesses for these are computable only far below
the theorem's own regime (N >= 2n+1 at D >= 3 starts at 7^3 sites); the
verifier here reports witnesses on small tori, labels them out-of-regime,
and the independently testable ingredients (counting, per-box bound,
aligned-pair Cauchy-Schwarz) have their own entry points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from gapcert.lattice import (
    BoxRegion,
    LatticeGeometry,
    box_edges,
    grid_edges,
    grid_sites,
    periodic_edges,
    sites,
)
from gapcert.operators import (
    CompositeOperator,
    NNInteraction,
    build_QR,
    build_hamiltonian,
    dense_matrix,
    weighted_sum,
)
from gapcert.spectral import (
    DEFAULT_CONFIG,
    KERNEL_TOL,
    EigenSolveConfig,
    GapReport,
    check_operator_inequality,
    lowest_eigenvalue,
    spectral_gap,
)


# -- the criteria table ---------------------------------------------------

_COMPARE = {">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Theorem:
    """One criterion: its domain, closed forms and subsystems.

    The domain of n is `n <op> <bound>` for (op, bound) = `domain`.
    `sizes(n)` maps each subsystem's key in `CriterionResult.gaps` to the
    side of the open grid solved for it; the local gap is the least of
    their gaps.  Chain-only theorems refuse D != 1; below `rigorous_D` a
    run is allowed only on request and is flagged non-rigorous.  `note`
    is formatted with n, D, side, kernel (of the last subsystem), lo
    (least key) and argmin.
    """

    name: str
    domain: tuple
    chains_only: bool
    threshold_form: Callable[[int], float]
    prefactor_form: Callable[[int], float]
    sizes: Callable[[int], dict]
    note: str
    rigorous_D: int = 1

    def covers(self, n: int) -> bool:
        op, bound = self.domain
        return _COMPARE[op](n, bound)

    def require(self, n: int):
        if not self.covers(n):
            op, bound = self.domain
            raise ValueError(f"{self.name} criterion needs n {op} {bound}, got {n}")

    def threshold(self, n: int) -> float:
        """Local-gap threshold; certification needs the local gap above it."""
        self.require(n)
        return self.threshold_form(n)

    def prefactor(self, n: int) -> float:
        """Factor turning the margin into the bulk gap bound."""
        self.require(n)
        return self.prefactor_form(n)

    def bound(self, local_gap: float, n: int) -> float:
        """Bulk gap bound prefactor * (local gap - threshold)."""
        return self.prefactor(n) * (local_gap - self.threshold(n))


THEOREM_TABLE = {
    t.name: t
    for t in (
        Theorem(
            name="gm",
            domain=(">", 2),
            chains_only=True,
            threshold_form=lambda n: 6.0 / (n * (n + 1)),
            prefactor_form=lambda n: (5.0 / 6.0) * (n**2 + n) / (n**2 - 4),
            sizes=lambda n: {n: n},
            note="open {n}-site chain, kernel dim {kernel}",
        ),
        Theorem(
            name="lm",
            domain=(">", 3),
            chains_only=True,
            threshold_form=lambda n: 4.0 * math.sqrt(6.0) / n**1.5,
            prefactor_form=lambda n: 1.0 / (2**9 * math.sqrt(6.0) * n),
            sizes=lambda n: {ell: ell for ell in range(math.ceil(n / 2), n + 1)},
            note="open chains l = {lo}..{n}, min gap at l = {argmin}",
        ),
        Theorem(
            name="main",
            domain=(">=", 3),
            chains_only=False,
            threshold_form=lambda n: 1.0 / n + 2.0 / n**2,  # <= 3/n
            prefactor_form=lambda n: 1.0,
            sizes=lambda n: {n: n + 1},  # the open box {0..n}^D
            note="open box {{0..{n}}}^{D} = side {side}, kernel dim {kernel}",
            rigorous_D=3,
        ),
    )
}
THEOREMS = tuple(THEOREM_TABLE)

_GM, _LM, _MAIN = THEOREM_TABLE.values()
threshold_gm, prefactor_gm, bound_gm = _GM.threshold, _GM.prefactor, _GM.bound
threshold_lm, prefactor_lm, bound_lm = _LM.threshold, _LM.prefactor, _LM.bound
threshold_main, implied_bound_main = _MAIN.threshold, _MAIN.bound


# -- subsystem solves -----------------------------------------------------

EPS = float(np.finfo(np.float64).eps)
THRESHOLD_ULPS = 4  # the rounding of a closed-form threshold, in units of eps * threshold


def subsystem_gap(
    interaction: NNInteraction,
    D: int,
    side: int,
    periodic: bool = False,
    config: EigenSolveConfig | None = None,
) -> GapReport:
    """Gap report of the model on a D-dimensional grid of the given side."""
    H = build_hamiltonian(
        interaction, grid_edges(D, side, periodic=periodic), grid_sites(D, side)
    )
    return spectral_gap(H, config=config)


def _gap_error_budget(interaction: NNInteraction, D: int, side: int, report: GapReport) -> float:
    """A bound on the error of the computed gap of the open grid of `side`.

    The residual r of the gap's unit eigenvector puts a true eigenvalue
    within r of it (Hermitian H).  The solve adds a backward error of at
    most dim * eps * ||H|| (LAPACK's bound p(n) eps ||H|| with p(n) = n),
    and ||H|| <= the number of edges for a sum of projections.
    """
    edges = len(grid_edges(D, side))
    dim = interaction.d ** (side**D)
    return report.residuals[report.kernel_dim] + dim * EPS * edges


@dataclass
class CriterionResult:
    """Outcome of one criterion evaluation; margins, not just a boolean.

    `gaps` maps subsystem size to its computed gap (one entry for gm/main,
    the whole l-range for lm); `local_gap` is the value compared against
    the threshold.  `error_budget` is the largest `_gap_error_budget` over
    the solved sizes plus THRESHOLD_ULPS * eps * threshold, and
    certified <=> margin > error_budget: a margin inside the budget
    (such as the exact tie of the AKLT 3-site gap with the gm threshold)
    is not certified, whatever its sign.
    """

    theorem_id: str
    D: int
    n: int
    local_gap: float
    gaps: dict
    threshold: float
    prefactor: float
    implied_lower_bound: float
    error_budget: float
    certified: bool
    rigorous: bool = True
    notes: list = field(default_factory=list)

    @property
    def margin(self) -> float:
        return self.local_gap - self.threshold


def certify(
    model: NNInteraction,
    D: int,
    n: int,
    theorem: str = "main",
    config: EigenSolveConfig | None = None,
    allow_nonrigorous_main: bool = False,
) -> CriterionResult:
    """Evaluate one finite-size criterion for a nearest-neighbor model.

    Every theorem takes one path through its `THEOREM_TABLE` row.
    gm and lm run on chains (D must be 1) with open n-site (resp. l-site)
    subsystems; main diagonalizes the open box {0..n}^D, i.e. side n+1.
    Frustrated models are refused.  main at D < 3 runs only with
    allow_nonrigorous_main and is flagged non-rigorous in the result.
    """
    theorem = theorem.lower()
    spec = THEOREM_TABLE.get(theorem)
    if spec is None:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if spec.chains_only and D != 1:
        raise ValueError(f"{spec.name} criterion is stated for chains (D=1), got D={D}")
    spec.require(n)
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    notes = []
    rigorous = D >= spec.rigorous_D
    if not rigorous:
        stated = f"{spec.name} criterion is stated for D >= {spec.rigorous_D}"
        if not allow_nonrigorous_main:
            raise ValueError(
                f"{stated}; pass allow_nonrigorous_main=True to explore D={D}"
            )
        notes.append(f"non-rigorous: {stated}, ran at D={D}")

    gaps, budget = {}, 0.0
    for key, side in spec.sizes(n).items():
        report = subsystem_gap(model, D, side, config=config)
        if report.kernel_dim == 0:
            what = (
                f"{side}-site open chain"
                if spec.chains_only
                else f"open box of side {side} in D={D}"
            )
            raise ValueError(
                f"{what} is frustrated (lowest eigenvalue "
                f"{report.eigenvalues[0]:.3e} > {KERNEL_TOL:.1e}); "
                f"the criteria assume frustration-freeness"
            )
        gaps[key] = report.gap
        budget = max(budget, _gap_error_budget(model, D, side, report))
    local_gap = min(gaps.values())
    threshold = spec.threshold(n)
    budget += THRESHOLD_ULPS * EPS * threshold
    notes.append(
        spec.note.format(
            n=n, D=D, side=side, kernel=report.kernel_dim,
            lo=min(gaps), argmin=min(gaps, key=gaps.get),
        )
    )
    return CriterionResult(
        theorem_id=spec.name,
        D=D,
        n=n,
        local_gap=local_gap,
        gaps=gaps,
        threshold=threshold,
        prefactor=spec.prefactor(n),
        implied_lower_bound=spec.bound(local_gap, n),
        error_budget=budget,
        certified=local_gap - threshold > budget,
        rigorous=rigorous,
        notes=notes,
    )


# -- gapless-side scaling -------------------------------------------------


@dataclass
class ScalingFit:
    """Log-log least-squares fit gamma_n ~ C * n^(-alpha)."""

    ns: list
    gaps: list
    exponent: float
    prefactor: float
    r_squared: float


def fit_power_law(ns, gaps) -> ScalingFit:
    """Fit gamma ~ C n^(-alpha) by least squares in log-log coordinates."""
    ns = [int(n) for n in ns]
    gaps = [float(g) for g in gaps]
    if len(ns) != len(gaps):
        raise ValueError("ns and gaps must have equal length")
    if len(ns) < 4:
        raise ValueError(f"power-law fit needs >= 4 points, got {len(ns)}")
    if any(g <= 0 for g in gaps):
        raise ValueError("power-law fit needs positive gaps")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(gaps, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(
        ns=ns,
        gaps=gaps,
        exponent=float(-slope),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
    )


def gap_scaling_fit(
    model: NNInteraction,
    D: int,
    n_list,
    config: EigenSolveConfig | None = None,
) -> ScalingFit:
    """Gaps of open n-site-per-axis grids over n_list, fitted to C n^(-alpha)."""
    n_list = sorted(set(int(n) for n in n_list))
    gaps = [
        subsystem_gap(model, D, n, config=config).gap
        for n in n_list
    ]
    return fit_power_law(n_list, gaps)


# -- proposition-level witnesses -------------------------------------------


@dataclass
class PropKeyReport:
    """Witnesses for the two box-sum inequalities behind the main criterion.

    witness1 = min eig of (upper-bound rhs - A), witness2 = min eig of
    (A - n(n+1)^{D-1} gamma_B H); both >= -tol when the inequalities hold.
    Unpacks as the pair (witness1, witness2).
    """

    witness1: float
    witness2: float
    gamma_box: float
    in_regime: bool
    passed: bool
    tol: float
    notes: list = field(default_factory=list)

    def __iter__(self):
        return iter((self.witness1, self.witness2))


def verify_proposition_key(
    model: NNInteraction,
    D: int,
    n: int,
    N: int,
    config: EigenSolveConfig | None = None,
    tol: float = 1e-9,
) -> PropKeyReport:
    """Check both operator inequalities for A = sum of squared box terms.

    With C[l, e] the times box l holds slot e, H_{B_l} = sum_e C[l, e] h_e
    and h_e^2 = h_e give A = sum_e G_ee h_e + sum_{e<f} G_ef {h_e, h_f},
    G = C^T C: the H, Q and R terms of `build_QR` weighted by G.  Each side
    is one ManyBodyOperator with the model's charges and S+ (`weighted_sum`).

    The torus has (2N)^D sites, so full witnesses are only reachable far
    below the criterion's own regime (N >= 2n+1, D >= 3); out-of-regime
    runs are labeled in the report.  A torus past the operators' dimension
    cap is refused when H is built, naming the number of sites that fit.
    """
    if D < 2:
        raise ValueError(
            f"box-sum inequalities need D >= 2 (bent-pair coefficient), got D={D}"
        )
    if n < 1 or N < 1:
        raise ValueError(f"n and N must be >= 1, got n={n}, N={N}")
    geom = LatticeGeometry(D=D, N=N)
    notes = []
    in_regime = D >= 3 and n >= 3 and N >= 2 * n + 1
    if not in_regime:
        notes.append(
            f"out-of-regime: criterion hypotheses are D >= 3, n >= 3, "
            f"N >= 2n+1; ran at D={D}, n={n}, N={N}"
        )

    torus_sites = sites(geom)
    edges = sorted(periodic_edges(geom))
    dec = build_QR(model, edges, torus_sites)
    H = dec.H
    dim = H.dimension

    # C[l, e]: how often box l holds slot e (twice when it wraps the torus)
    slot = {e: i for i, e in enumerate(edges)}
    C = np.zeros((len(torus_sites), len(edges)))
    box_ops = []
    for l, base in enumerate(torus_sites):
        box = box_edges(BoxRegion(base=base, n=n), geom)
        np.add.at(C[l], [slot[e] for e in box], 1)
        box_ops.append(build_hamiltonian(model, box, torus_sites))
    G = C.T @ C
    q, r = (G[tuple(pairs.T)] for pairs in (dec.q_pairs, dec.r_pairs))
    A = weighted_sum([(G.diagonal(), H), (q, dec.Q), (r, dec.R)])

    gamma_box = subsystem_gap(model, D, n + 1, config=config).gap

    c_edge = n * (n + 1) ** (D - 1)
    c_extra = 2.0 * (n + 1) ** (D - 2)
    c_bent = float(n**2) * (n + 1) ** (D - 2)

    rhs1 = weighted_sum([(c_edge + c_extra, H), (c_bent, dec.Q), (c_bent, dec.R)])
    ok1, w1 = check_operator_inequality(rhs1, A, tol=tol, config=config)
    rhs2 = weighted_sum([(c_edge * gamma_box, H)])
    ok2, w2 = check_operator_inequality(A, rhs2, tol=tol, config=config)

    S = CompositeOperator(dim, [(1.0, (B,)) for B in box_ops])
    rng = np.random.default_rng(11)
    resid = 0.0
    for _ in range(3):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        resid = max(resid, float(np.linalg.norm(S.apply(v) - c_edge * H.apply(v))))
    notes.append(
        f"sum identity: max |sum_l H_B v - {c_edge} H v| = {resid:.3e} "
        f"over 3 random vectors"
    )

    return PropKeyReport(
        witness1=float(w1),
        witness2=float(w2),
        gamma_box=gamma_box,
        in_regime=in_regime,
        passed=ok1 and ok2,
        tol=tol,
        notes=notes,
    )


def per_box_bound_witness(
    model: NNInteraction,
    D: int,
    n: int,
    config: EigenSolveConfig | None = None,
):
    """Min eigenvalue of (H_B)^2 - gamma_B H_B on the open box of side n+1.

    Returns (witness, gamma_box).  By the spectral theorem the witness is
    min over eigenvalues lam of lam*(lam - gamma_B), which is >= 0 exactly
    when no eigenvalue lies strictly between 0 and gamma_B.  Bounding the
    interior of the spectrum needs every eigenvalue, so this is dense-only
    and boxes past config.dense_limit are refused.
    """
    H = build_hamiltonian(
        model, grid_edges(D, n + 1), grid_sites(D, n + 1)
    )
    limit = (config or DEFAULT_CONFIG).dense_limit
    vals = scipy.linalg.eigvalsh(dense_matrix(H, limit=limit), overwrite_a=True)
    above = vals[vals > KERNEL_TOL]
    if above.size == 0:
        raise ValueError("box Hamiltonian has no eigenvalue above the kernel tolerance")
    gamma = float(above.min())
    witness = float(np.min(vals * (vals - gamma)))
    return witness, gamma


def aligned_pair_witness(
    model: NNInteraction,
    m: int,
    config: EigenSolveConfig | None = None,
):
    """Min eigenvalue of 2H + Q on the periodic m-site chain.

    On a ring every touching pair is aligned, so Q is exactly the aligned
    anticommutator sum and nonnegativity of 2H + Q is the aggregated
    operator Cauchy-Schwarz bound -Q <= 2H.  With S+ one block is solved.
    """
    if m < 3:
        raise ValueError(f"ring needs m >= 3 sites, got {m}")
    dec = build_QR(model, grid_edges(1, m, periodic=True), grid_sites(1, m))
    return lowest_eigenvalue(weighted_sum([(2.0, dec.H), (1.0, dec.Q)]), config)
