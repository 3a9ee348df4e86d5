"""Command-line surface: gap solves, certification, verifiers, and sweeps.

Exit codes are exhaustive and mutually exclusive: 0 success (or all checks
passed), 1 verification failure, 2 numerical failure (solver did not
converge or no gap is defined), 3 configuration error (bad flags, unknown
model, precondition violations, infeasible dimensions, file-system errors
such as an unwritable --out or a --model that names a directory).

Size conventions: `gap` and `certify --theorem main` take the box
parameter n of {0..n}^D, so the solved grid has side n+1 per axis;
`certify --theorem gm|lm` and `sweep` count sites directly (an n-row in a
sweep is the n-site-per-axis grid), which keeps sweep rows aligned with
the chain-length scaling fits and the chain criteria.

All floating-point output uses 12 significant digits; sweep CSVs are
byte-identical across runs for identical configuration (runtime_ms is 0
unless --timings is given).

Dispatch: each leaf subparser names its handler (`set_defaults(run=...)`),
and the handler reads the parsed namespace itself.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from gapcert.coarsegrain import (
    FiniteRangeSpec,
    coarse_grain,
    verify_ground_space_preservation,
)
from gapcert.criteria import (
    THEOREM_TABLE,
    THEOREMS,
    aligned_pair_witness,
    certify,
    fit_power_law,
    per_box_bound_witness,
    subsystem_gap,
    verify_proposition_key,
)
from gapcert.lattice import (
    LatticeGeometry,
    grid_edges,
    grid_sites,
    verify_counting_lemma,
)
from gapcert.models import (
    ModelFormatError,
    random_projection,
    resolve_model,
)
from gapcert.operators import (
    DEFAULT_DENSE_LIMIT,
    DimensionLimitError,
    NNInteraction,
    cauchy_schwarz_witness,
    projection_check,
    verify_square_identity,
)
from gapcert.spectral import (
    EigenSolveConfig,
    GapUndefinedError,
    SolverConvergenceError,
)

CSV_HEADER = (
    "model,D,n,boundary,gap,kernel_dim,threshold_main,threshold_gm,"
    "threshold_lm,margin_selected,runtime_ms"
)
_THRESHOLD_COLUMNS = ("main", "gm", "lm")  # order of the threshold_* columns


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_bool(b) -> str:
    return "true" if b else "false"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; config errors are exit 3 here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _dense_limit(cfg: argparse.Namespace) -> int:
    """--dense-limit, else GAPCERT_DENSE_LIMIT, else DEFAULT_DENSE_LIMIT."""
    if cfg.dense_limit is not None:
        return cfg.dense_limit
    env = os.environ.get("GAPCERT_DENSE_LIMIT")
    if env is None:
        return DEFAULT_DENSE_LIMIT
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"GAPCERT_DENSE_LIMIT must be an integer, got {env!r}") from None


def _solver_config(cfg: argparse.Namespace) -> EigenSolveConfig:
    return EigenSolveConfig(seed=cfg.seed, dense_limit=_dense_limit(cfg))


def _verdict(ok: bool, tolerance: str | None = None) -> int:
    """The closing lines of a verifier: its tolerance, then PASS or FAIL."""
    if tolerance is not None:
        print(f"tolerance: {tolerance}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _nn_model(cfg: argparse.Namespace) -> NNInteraction:
    model = resolve_model(cfg.model)
    if not isinstance(model, NNInteraction):
        raise ValueError(
            f"model {cfg.model!r} is a finite-range spec; this command needs "
            f"a nearest-neighbor model"
        )
    return model


# -- gap --------------------------------------------------------------------


def cmd_gap(cfg: argparse.Namespace) -> int:
    if cfg.n < 1:
        raise ValueError(f"--n must be >= 1, got {cfg.n}")
    model = _nn_model(cfg)
    periodic = cfg.boundary == "periodic"
    side = cfg.n + 1
    report = subsystem_gap(
        model, cfg.D, side, periodic=periodic, config=_solver_config(cfg)
    )
    dim = model.d ** (side**cfg.D)
    print(f"model: {model.name} (d={model.d})")
    print(
        f"geometry: D={cfg.D}, n={cfg.n}, side {side}, {cfg.boundary}, "
        f"{dim} states"
    )
    print("eigenvalues:", " ".join(_fmt(v) for v in report.eigenvalues))
    print("residuals:", " ".join(_fmt(r) for r in report.residuals))
    print(f"kernel_dim: {report.kernel_dim}")
    print(f"frustration_free: {_fmt_bool(report.kernel_dim > 0)}")
    print(f"gap: {_fmt(report.gap)}")
    print(f"method: {report.method} (k={report.k_used})")
    return 0


# -- certify ----------------------------------------------------------------


def cmd_certify(cfg: argparse.Namespace) -> int:
    model = _nn_model(cfg)
    result = certify(
        model,
        D=cfg.D,
        n=cfg.n,
        theorem=cfg.theorem,
        config=_solver_config(cfg),
        allow_nonrigorous_main=cfg.override_low_d,
    )
    print(f"theorem: {result.theorem_id}")
    print(f"model: {model.name} (d={model.d})")
    print(f"D: {result.D}")
    print(f"n: {result.n}")
    if len(result.gaps) > 1:
        print(
            "gaps:",
            " ".join(f"l={ell}:{_fmt(g)}" for ell, g in sorted(result.gaps.items())),
        )
    print(f"local_gap: {_fmt(result.local_gap)}")
    print(f"threshold: {_fmt(result.threshold)}")
    print(f"margin: {_fmt(result.margin)}")
    print(f"prefactor: {_fmt(result.prefactor)}")
    print(f"implied_bound: {_fmt(result.implied_lower_bound)}")
    print(f"certified: {_fmt_bool(result.certified)}")
    print(f"rigorous: {_fmt_bool(result.rigorous)}")
    for note in result.notes:
        print(f"note: {note}")
    return 0


# -- verify -----------------------------------------------------------------


def _counts_str(counter) -> str:
    return (
        "{" + ", ".join(f"{k}: {v}" for k, v in sorted(counter.items())) + "}"
        if counter
        else "{}"
    )


def _verify_counting(cfg: argparse.Namespace) -> int:
    rep = verify_counting_lemma(cfg.n, LatticeGeometry(D=cfg.D, N=cfg.N))
    print(f"counting check: D={cfg.D}, n={cfg.n}, N={cfg.N} (torus side {2 * cfg.N})")
    print(f"edges: expected {rep.edge_expected}, observed {_counts_str(rep.edge_counts)}")
    print(
        f"aligned pairs: expected {rep.aligned_expected}, "
        f"observed {_counts_str(rep.aligned_counts)}"
    )
    if rep.bent_expected is None:
        print("bent pairs: none in D=1")
    else:
        print(
            f"bent pairs: expected {rep.bent_expected}, "
            f"observed {_counts_str(rep.bent_counts)}"
        )
    print(
        f"disjoint pairs: bound {rep.disjoint_bound}, "
        f"observed {_counts_str(rep.disjoint_counts)}"
    )
    for note in rep.notes:
        print(f"note: {note}")
    if rep.discrepancies:
        shown = rep.discrepancies[:10]
        for d in shown:
            print(f"discrepancy: {d}")
        if len(rep.discrepancies) > len(shown):
            print(f"... and {len(rep.discrepancies) - len(shown)} more")
        print(f"FAIL ({len(rep.discrepancies)} discrepancies)")
        return 1
    print("PASS")
    return 0


def _verify_square_identity(cfg: argparse.Namespace) -> int:
    if cfg.side < 2:
        raise ValueError(f"--side must be >= 2, got {cfg.side}")
    if cfg.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {cfg.trials}")
    if cfg.model == "random":
        if cfg.rank is None:
            raise ValueError("--model random needs --rank")
        model = random_projection(cfg.d, cfg.rank, cfg.seed)
    else:
        model = _nn_model(cfg)
    rep = verify_square_identity(
        model,
        grid_edges(cfg.D, cfg.side, periodic=True),
        grid_sites(cfg.D, cfg.side),
        trials=cfg.trials,
        seed=cfg.seed,
    )
    print(f"square identity: model {model.name}, D={cfg.D}, torus side {cfg.side}")
    print(
        f"pairs: {rep.n_touching_pairs} touching, {rep.n_disjoint_pairs} disjoint"
    )
    print(f"max residual over {cfg.trials} random vectors: {_fmt(rep.max_residual)}")
    return _verdict(rep.passed, _fmt(rep.tol))


def cs_witnesses(d: int, samples: int, seed: int, dense_limit: int = DEFAULT_DENSE_LIMIT):
    """Seeded random-projection pair witnesses for the Cauchy-Schwarz check."""
    ranks = d * d - 1
    out = []
    for i in range(samples):
        P1 = random_projection(d, 1 + i % ranks, seed + 2 * i)
        P2 = random_projection(d, 1 + (i + 1) % ranks, seed + 2 * i + 1)
        out.append(cauchy_schwarz_witness(P1, P2, dense_limit))
    return out


def _verify_cauchy_schwarz(cfg: argparse.Namespace) -> int:
    if cfg.d < 2:
        raise ValueError(f"--d must be >= 2, got {cfg.d}")
    if cfg.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {cfg.samples}")
    witnesses = cs_witnesses(cfg.d, cfg.samples, cfg.seed, _dense_limit(cfg))
    wmin = min(witnesses)
    print(
        f"cauchy-schwarz: d={cfg.d}, {cfg.samples} random projection pairs, "
        f"seed {cfg.seed}"
    )
    print(f"min witness: {_fmt(wmin)}")
    return _verdict(wmin >= -1e-10, "-1e-10")


def _verify_per_box(cfg: argparse.Namespace) -> int:
    if cfg.n < 1:
        raise ValueError(f"--n must be >= 1, got {cfg.n}")
    model = _nn_model(cfg)
    witness, gamma = per_box_bound_witness(model, cfg.D, cfg.n, config=_solver_config(cfg))
    print(f"per-box bound: model {model.name}, D={cfg.D}, box side {cfg.n + 1}")
    print(f"box gap: {_fmt(gamma)}")
    print(f"min eig of H_B^2 - gap*H_B: {_fmt(witness)}")
    return _verdict(witness >= -1e-9, "-1e-9")


def _verify_coarse_grain(cfg: argparse.Namespace) -> int:
    spec = resolve_model(cfg.model, R=cfg.R)
    if not isinstance(spec, FiniteRangeSpec):
        raise ValueError(
            f"model {cfg.model!r} is nearest-neighbor; coarse-grain-identity "
            f"needs a finite-range spec"
        )
    if spec.R != cfg.R:
        raise ValueError(f"--R {cfg.R} does not match the spec's R={spec.R}")
    dense_limit = _dense_limit(cfg)
    cg = coarse_grain(spec)
    print(f"coarse-grain: model {cfg.model}, d={spec.d}, R={spec.R}")
    print(
        f"cell terms: {cg.n_cell_terms} "
        f"({len(spec.shapes)} shapes x {spec.R**3} placements; conserved)"
    )
    failures = 0
    skipped = 0
    for cls in cg.classes:
        line = (
            f"class {cls.kind.value}: axes {list(cls.axes)}, "
            f"{cls.n_cubes} cube(s), {cls.n_terms} term(s), "
            f"block dim {cls.block_dim}"
        )
        if cls.block_dim <= dense_limit:
            M = cls.matrix(limit=dense_limit)
            ok = projection_check(M, tol=1e-10)
            line += f", projection {'ok' if ok else 'FAILED'}"
            if not ok:
                failures += 1
        else:
            line += ", matrix skipped (exceeds dense limit)"
            skipped += 1
        print(line)
    if spec.R == 1:
        exact = True
        for cls in cg.classes:
            if cls.n_terms != 1 or not np.array_equal(
                cls.matrix(limit=dense_limit), cls.assigned[0][0].projection
            ):
                exact = False
        print(f"R=1 identity (matrices equal entrywise): {_fmt_bool(exact)}")
        if not exact:
            failures += 1
        preserved = verify_ground_space_preservation(
            spec, [(0, 0, 0), (1, 0, 0)], config=_solver_config(cfg)
        )
        print(f"ground-space preservation on a 2-cube region: {_fmt_bool(preserved)}")
        if not preserved:
            failures += 1
    elif skipped:
        print(
            f"note: {skipped} class matrices not materialized; structural "
            f"checks (assignment, term conservation) only"
        )
    print("PASS" if failures == 0 else f"FAIL ({failures} failed checks)")
    return 0 if failures == 0 else 1


def _verify_prop_key(cfg: argparse.Namespace) -> int:
    model = _nn_model(cfg)
    rep = verify_proposition_key(
        model, cfg.D, cfg.n, cfg.N, config=_solver_config(cfg)
    )
    print(f"box-sum inequalities: model {model.name}, D={cfg.D}, n={cfg.n}, N={cfg.N}")
    print(f"box gap: {_fmt(rep.gamma_box)}")
    print(f"witness upper (rhs - A): {_fmt(rep.witness1)}")
    print(f"witness lower (A - c*gap*H): {_fmt(rep.witness2)}")
    print(f"in_regime: {_fmt_bool(rep.in_regime)}")
    for note in rep.notes:
        print(f"note: {note}")
    return _verdict(rep.passed)


def _verify_aligned(cfg: argparse.Namespace) -> int:
    if cfg.side < 3:
        raise ValueError(f"--side must be >= 3, got {cfg.side}")
    model = _nn_model(cfg)
    w = aligned_pair_witness(model, cfg.side, config=_solver_config(cfg))
    print(f"aligned-pair aggregate: model {model.name}, ring m={cfg.side}")
    print(f"min eig of 2H + Q: {_fmt(w)}")
    return _verdict(w >= -1e-9, "-1e-9")


# -- sweep ------------------------------------------------------------------


def _csv_field(x) -> str:
    return "" if x is None else _fmt(x)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    if cfg.n_from < 1:
        raise ValueError(f"--n-from must be >= 1, got {cfg.n_from}")
    if cfg.n_to < cfg.n_from:
        raise ValueError(f"empty sweep range: n-from {cfg.n_from} > n-to {cfg.n_to}")
    model = _nn_model(cfg)
    config = _solver_config(cfg)
    periodic = cfg.boundary == "periodic"
    # --out is opened before the first solve: an unwritable path costs none
    with open(cfg.out, "w") if cfg.out else contextlib.nullcontext(sys.stdout) as fh:
        lines = [CSV_HEADER]
        comments = []
        ns, gaps = [], []
        failures = 0
        for n in range(cfg.n_from, cfg.n_to + 1):
            t0 = time.perf_counter()
            try:
                rep = subsystem_gap(model, cfg.D, n, periodic=periodic, config=config)
            except (SolverConvergenceError, GapUndefinedError, DimensionLimitError) as exc:
                lines.append(f"{cfg.model},{cfg.D},{n},{cfg.boundary},error,,,,,,0")
                comments.append(f"# error at n={n}: {exc}")
                failures += 1
                continue
            ms = int(round((time.perf_counter() - t0) * 1000)) if cfg.timings else 0
            thr = {
                name: t.threshold(n) if t.covers(n) else None
                for name, t in THEOREM_TABLE.items()
            }
            selected = thr.get(cfg.theorem)
            margin = None if selected is None else rep.gap - selected
            lines.append(
                ",".join(
                    [
                        str(cfg.model),
                        str(cfg.D),
                        str(n),
                        cfg.boundary,
                        _fmt(rep.gap),
                        str(rep.kernel_dim),
                        *(_csv_field(thr[name]) for name in _THRESHOLD_COLUMNS),
                        _csv_field(margin),
                        str(ms),
                    ]
                )
            )
            if rep.gap > 0:
                ns.append(n)
                gaps.append(rep.gap)
        if len(ns) >= 4:
            fit = fit_power_law(ns, gaps)
            comments.append(
                f"# fit: gap ~ C*n^-alpha over {len(ns)} sizes: "
                f"alpha={_fmt(fit.exponent)}, C={_fmt(fit.prefactor)}, "
                f"r2={_fmt(fit.r_squared)}"
            )
        else:
            comments.append(
                f"# fit: skipped (needs >= 4 positive gaps, have {len(ns)})"
            )
        fh.write("\n".join(lines + comments) + "\n")
    return 2 if failures else 0


# -- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dense-limit",
        type=int,
        default=None,
        help=f"dense solve/matrix dimension limit (default {DEFAULT_DENSE_LIMIT}; env GAPCERT_DENSE_LIMIT)",
    )
    common.add_argument("--seed", type=int, default=7, help="solver/RNG seed")

    parser = _Parser(
        prog="gapcert",
        description="Spectral-gap certification for frustration-free spin models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gap = sub.add_parser(
        "gap", parents=[common], help="diagonalize the model on a box {0..n}^D"
    )
    p_gap.add_argument("--model", required=True, help="registry name or model file")
    p_gap.add_argument("--D", type=int, default=1, help="spatial dimension")
    p_gap.add_argument(
        "--n", type=int, required=True, help="box parameter; the grid side is n+1"
    )
    p_gap.add_argument(
        "--boundary", choices=("open", "periodic"), default="open"
    )
    p_gap.set_defaults(run=cmd_gap)

    p_cert = sub.add_parser(
        "certify", parents=[common], help="evaluate a finite-size gap criterion"
    )
    p_cert.add_argument("--model", required=True, help="registry name or model file")
    p_cert.add_argument("--theorem", choices=THEOREMS, required=True)
    p_cert.add_argument("--n", type=int, required=True, help="subsystem size parameter")
    p_cert.add_argument("--D", type=int, default=1, help="spatial dimension")
    p_cert.add_argument(
        "--override-low-d",
        action="store_true",
        help="run the main criterion below D=3 (flagged non-rigorous)",
    )
    p_cert.set_defaults(run=cmd_certify)

    # leaf parsers only: a shared dest on both this level and its children
    # would let the child's default clobber a value parsed at this level
    p_ver = sub.add_parser("verify", help="run a proof-ingredient verifier")
    vsub = p_ver.add_subparsers(dest="check", required=True)

    v_count = vsub.add_parser(
        "counting", parents=[common], help="box/pair counting on the torus"
    )
    v_count.add_argument("--D", type=int, required=True)
    v_count.add_argument("--n", type=int, required=True, help="box parameter")
    v_count.add_argument("--N", type=int, required=True, help="torus half-side")
    v_count.set_defaults(run=_verify_counting)

    v_sq = vsub.add_parser(
        "square-identity", parents=[common], help="H^2 = H + Q + R on a torus"
    )
    v_sq.add_argument(
        "--model", default="heisenberg-ferro", help="registry name, file, or 'random'"
    )
    v_sq.add_argument("--D", type=int, default=1)
    v_sq.add_argument("--side", type=int, required=True, help="torus side in sites")
    v_sq.add_argument("--trials", type=int, default=20)
    v_sq.add_argument("--d", type=int, default=2, help="local dimension for --model random")
    v_sq.add_argument("--rank", type=int, default=None, help="rank for --model random")
    v_sq.set_defaults(run=_verify_square_identity)

    v_cs = vsub.add_parser(
        "cauchy-schwarz",
        parents=[common],
        help="anticommutator bound on random projection pairs",
    )
    v_cs.add_argument("--d", type=int, default=2, help="local dimension")
    v_cs.add_argument("--samples", type=int, default=100)
    v_cs.set_defaults(run=_verify_cauchy_schwarz)

    v_pb = vsub.add_parser(
        "per-box", parents=[common], help="H_B^2 >= gap * H_B on the open box"
    )
    v_pb.add_argument("--model", required=True)
    v_pb.add_argument("--D", type=int, default=2)
    v_pb.add_argument("--n", type=int, required=True, help="box parameter")
    v_pb.set_defaults(run=_verify_per_box)

    v_cg = vsub.add_parser(
        "coarse-grain-identity",
        parents=[common],
        help="coarse-graining structure and R=1 identity checks",
    )
    v_cg.add_argument("--model", required=True, help="finite-range registry name or file")
    v_cg.add_argument("--R", type=int, default=1, help="interaction range (odd)")
    v_cg.set_defaults(run=_verify_coarse_grain)

    v_pk = vsub.add_parser(
        "prop-key", parents=[common], help="box-sum operator inequalities on a torus"
    )
    v_pk.add_argument("--model", required=True)
    v_pk.add_argument("--D", type=int, default=2)
    v_pk.add_argument("--n", type=int, required=True, help="box parameter")
    v_pk.add_argument("--N", type=int, required=True, help="torus half-side")
    v_pk.set_defaults(run=_verify_prop_key)

    v_al = vsub.add_parser(
        "aligned", parents=[common], help="aligned-pair aggregate -Q <= 2H on a ring"
    )
    v_al.add_argument("--model", required=True)
    v_al.add_argument("--side", type=int, default=6, help="ring length in sites")
    v_al.set_defaults(run=_verify_aligned)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="gap vs size CSV with threshold columns"
    )
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--D", type=int, default=1)
    p_sweep.add_argument("--n-from", type=int, required=True, help="first side, in sites")
    p_sweep.add_argument("--n-to", type=int, required=True, help="last side, in sites")
    p_sweep.add_argument("--boundary", choices=("open", "periodic"), default="open")
    p_sweep.add_argument(
        "--theorem", choices=THEOREMS, default=None, help="fills margin_selected"
    )
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.add_argument(
        "--timings", action="store_true", help="real runtime_ms (breaks byte-identity)"
    )
    p_sweep.set_defaults(run=cmd_sweep)
    return parser


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        if cfg.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {cfg.seed}")
        return cfg.run(cfg)
    except (ValueError, ModelFormatError, DimensionLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SolverConvergenceError, GapUndefinedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
