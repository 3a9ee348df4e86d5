"""Finite-size gap criteria, scaling fits, and proof-ingredient witnesses.

Three criteria are implemented, each converting the gap of a small
subsystem into a bulk statement.  On chains (theorems "gm" and "lm") the
subsystem is the n-site open chain with gap gamma_n; on boxes (theorem
"main", D >= 3) it is the open box {0..n}^D with gap gamma_B:

    gm:   gamma_m^per >= (5/6) (n^2+n)/(n^2-4) (gamma_n - 6/(n(n+1))),  n > 2, m > 2n
    lm:   gamma_m     >= (min_{ceil(n/2) <= l <= n} gamma_l - 4 sqrt(6)/n^{3/2})
                          / (2^9 sqrt(6) n),                            n > 3, m > 2n
    main: gamma_N     >= gamma_B - 1/n - 2/n^2,                         n >= 3, N >= 2n+1

Certification means the local gap strictly exceeds the threshold term, so
the implied bulk bound is positive.  Subsystems are always open boxes; the
bulk operator is always periodic.

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
from dataclasses import dataclass, field

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
    ManyBodyOperator,
    NNInteraction,
    build_QR,
    build_hamiltonian,
    dense_matrix,
)
from gapcert.spectral import (
    DEFAULT_CONFIG,
    KERNEL_TOL,
    EigenSolveConfig,
    GapReport,
    check_operator_inequality,
    lowest_eigenvalues,
    spectral_gap,
)

THEOREMS = ("gm", "lm", "main")


# -- thresholds and bounds ------------------------------------------------


def threshold_gm(n: int) -> float:
    """Local-gap threshold 6/(n(n+1)) of the periodic-chain criterion."""
    if n <= 2:
        raise ValueError(f"gm criterion needs n > 2, got {n}")
    return 6.0 / (n * (n + 1))


def threshold_lm(n: int) -> float:
    """Local-gap threshold 4*sqrt(6)/n^(3/2) of the open-chain criterion."""
    if n <= 3:
        raise ValueError(f"lm criterion needs n > 3, got {n}")
    return 4.0 * math.sqrt(6.0) / n**1.5


def threshold_main(n: int) -> float:
    """Local-gap threshold 1/n + 2/n^2 of the box criterion (<= 3/n)."""
    if n < 3:
        raise ValueError(f"main criterion needs n >= 3, got {n}")
    return 1.0 / n + 2.0 / n**2


def prefactor_gm(n: int) -> float:
    if n <= 2:
        raise ValueError(f"gm criterion needs n > 2, got {n}")
    return (5.0 / 6.0) * (n**2 + n) / (n**2 - 4)


def prefactor_lm(n: int) -> float:
    if n <= 3:
        raise ValueError(f"lm criterion needs n > 3, got {n}")
    return 1.0 / (2**9 * math.sqrt(6.0) * n)


def bound_gm(gamma_n: float, n: int) -> float:
    """Bulk periodic-chain gap bound implied by the n-site open-chain gap."""
    return prefactor_gm(n) * (gamma_n - threshold_gm(n))


def bound_lm(min_gamma: float, n: int) -> float:
    """Bulk open-chain gap bound implied by min gamma_l, ceil(n/2) <= l <= n."""
    return prefactor_lm(n) * (min_gamma - threshold_lm(n))


def implied_bound_main(local_gap: float, n: int) -> float:
    """Bulk torus gap bound gamma_B - 1/n - 2/n^2."""
    return local_gap - threshold_main(n)


# -- subsystem solves -----------------------------------------------------


def subsystem_gap(
    interaction: NNInteraction,
    D: int,
    side: int,
    periodic: bool = False,
    config: EigenSolveConfig | None = None,
    kernel_tol: float = KERNEL_TOL,
) -> GapReport:
    """Gap report of the model on a D-dimensional grid of the given side."""
    H = build_hamiltonian(
        interaction, grid_edges(D, side, periodic=periodic), grid_sites(D, side)
    )
    return spectral_gap(H, kernel_tol=kernel_tol, config=config)


@dataclass
class CriterionResult:
    """Outcome of one criterion evaluation; margins, not just a boolean.

    `gaps` maps subsystem size to its computed gap (one entry for gm/main,
    the whole l-range for lm); `local_gap` is the value compared against
    the threshold.  certified <=> implied_lower_bound > 0.
    """

    theorem_id: str
    D: int
    n: int
    local_gap: float
    gaps: dict
    threshold: float
    prefactor: float
    implied_lower_bound: float
    certified: bool
    rigorous: bool = True
    notes: list = field(default_factory=list)

    @property
    def margin(self) -> float:
        return self.local_gap - self.threshold


def _require_frustration_free(report: GapReport, what: str, tol: float):
    if report.kernel_dim == 0:
        raise ValueError(
            f"{what} is frustrated (lowest eigenvalue "
            f"{report.eigenvalues[0]:.3e} > {tol:.1e}); "
            f"the criteria assume frustration-freeness"
        )


def certify(
    model: NNInteraction,
    D: int,
    n: int,
    theorem: str = "main",
    config: EigenSolveConfig | None = None,
    allow_nonrigorous_main: bool = False,
    kernel_tol: float = KERNEL_TOL,
) -> CriterionResult:
    """Evaluate one finite-size criterion for a nearest-neighbor model.

    gm and lm run on chains (D must be 1) with open n-site (resp. l-site)
    subsystems; main diagonalizes the open box {0..n}^D, i.e. side n+1.
    Frustrated models are refused.  main at D < 3 runs only with
    allow_nonrigorous_main and is flagged non-rigorous in the result.
    """
    theorem = theorem.lower()
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    notes = []

    if theorem == "gm":
        if D != 1:
            raise ValueError(f"gm criterion is stated for chains (D=1), got D={D}")
        if n <= 2:
            raise ValueError(f"gm criterion needs n > 2, got {n}")
        report = subsystem_gap(model, 1, n, config=config, kernel_tol=kernel_tol)
        _require_frustration_free(report, f"{n}-site open chain", kernel_tol)
        gamma = report.gap
        thr, pref = threshold_gm(n), prefactor_gm(n)
        implied = bound_gm(gamma, n)
        notes.append(f"open {n}-site chain, kernel dim {report.kernel_dim}")
        return CriterionResult(
            theorem_id="gm",
            D=1,
            n=n,
            local_gap=gamma,
            gaps={n: gamma},
            threshold=thr,
            prefactor=pref,
            implied_lower_bound=implied,
            certified=gamma > thr,
            notes=notes,
        )

    if theorem == "lm":
        if D != 1:
            raise ValueError(f"lm criterion is stated for chains (D=1), got D={D}")
        if n <= 3:
            raise ValueError(f"lm criterion needs n > 3, got {n}")
        gaps = {}
        for ell in range(math.ceil(n / 2), n + 1):
            report = subsystem_gap(model, 1, ell, config=config, kernel_tol=kernel_tol)
            _require_frustration_free(report, f"{ell}-site open chain", kernel_tol)
            gaps[ell] = report.gap
        min_gamma = min(gaps.values())
        thr, pref = threshold_lm(n), prefactor_lm(n)
        implied = bound_lm(min_gamma, n)
        notes.append(
            f"open chains l = {math.ceil(n / 2)}..{n}, "
            f"min gap at l = {min(gaps, key=gaps.get)}"
        )
        return CriterionResult(
            theorem_id="lm",
            D=1,
            n=n,
            local_gap=min_gamma,
            gaps=gaps,
            threshold=thr,
            prefactor=pref,
            implied_lower_bound=implied,
            certified=min_gamma > thr,
            notes=notes,
        )

    # main
    if n < 3:
        raise ValueError(f"main criterion needs n >= 3, got {n}")
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    rigorous = D >= 3
    if not rigorous:
        if not allow_nonrigorous_main:
            raise ValueError(
                f"main criterion is stated for D >= 3; pass "
                f"allow_nonrigorous_main=True to explore D={D}"
            )
        notes.append(
            f"non-rigorous: main criterion is stated for D >= 3, ran at D={D}"
        )
    report = subsystem_gap(model, D, n + 1, config=config, kernel_tol=kernel_tol)
    _require_frustration_free(report, f"open box of side {n + 1} in D={D}", kernel_tol)
    gamma = report.gap
    thr = threshold_main(n)
    implied = implied_bound_main(gamma, n)
    notes.append(
        f"open box {{0..{n}}}^{D} = side {n + 1}, kernel dim {report.kernel_dim}"
    )
    return CriterionResult(
        theorem_id="main",
        D=D,
        n=n,
        local_gap=gamma,
        gaps={n: gamma},
        threshold=thr,
        prefactor=1.0,
        implied_lower_bound=implied,
        certified=gamma > thr,
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
    dec = build_QR(model, periodic_edges(geom), torus_sites)
    H = dec.H
    dim = H.dimension
    Hc = CompositeOperator.from_operator(H)

    box_ops = []
    for base in torus_sites:
        edges = box_edges(BoxRegion(base=base, n=n), geom)
        box_ops.append(build_hamiltonian(model, edges, torus_sites))
    A = CompositeOperator(dim, [(1.0, (B, B)) for B in box_ops])

    gamma_box = subsystem_gap(model, D, n + 1, config=config).gap

    c_edge = n * (n + 1) ** (D - 1)
    c_extra = 2.0 * (n + 1) ** (D - 2)
    c_bent = float(n**2) * (n + 1) ** (D - 2)

    QR = CompositeOperator.from_operator(dec.Q) + CompositeOperator.from_operator(dec.R)
    rhs1 = (c_edge + c_extra) * Hc + c_bent * QR
    ok1, w1 = check_operator_inequality(rhs1, A, tol=tol, config=config)
    rhs2 = (c_edge * gamma_box) * Hc
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
    kernel_tol: float = KERNEL_TOL,
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
    vals = scipy.linalg.eigvalsh(dense_matrix(H, limit=limit))
    above = vals[vals > kernel_tol]
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
    operator Cauchy-Schwarz bound -Q <= 2H.
    """
    if m < 3:
        raise ValueError(f"ring needs m >= 3 sites, got {m}")
    dec = build_QR(model, grid_edges(1, m, periodic=True), grid_sites(1, m))
    doubled_H = [(sites_of_term, 2.0 * M) for sites_of_term, M in dec.H.terms]
    lhs = ManyBodyOperator(dec.H.site_list, model.d, doubled_H + dec.Q.terms)
    pairs = lowest_eigenvalues(lhs, config)
    return float(pairs[0][0])
