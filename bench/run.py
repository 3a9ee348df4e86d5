"""gapcert benchmark: fixed CLI workloads, timed end to end and traced per layer.

    python3 bench/run.py --workload chains --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; gapcert is imported from its
`src/`, and the run fails (exit 2, no result) when that is missing.  The
load is a closed loop: each pass of the workload is a fresh interpreter
(bench/child.py) that runs the workload's cases in order, and the next
pass starts when it ends, until the next one would not finish within
--seconds.  A few set-up-only interpreters run first, one of them as an
untimed warm-up of the file cache and bytecode.

--trace 0 reports the end-to-end metrics, each the median over passes.
--trace 1 interleaves traced and untraced passes and reports the
per-layer metrics (medians over the traced passes).  Every case's output
is checked against references in bench/workloads.py; a mismatch, an
exception or an unexpected exit code fails the case.  The sweep CSV must
also be byte-identical across the passes of one run.

Human-readable lines come first; the last line of stdout is the JSON
result.  The machine description, per-pass data and spans go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever the program does
SETUP_PROBES = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CASE_METRICS = {
    "case.sweep_ferro4_10_s": "sweep_ferro4_10",
    "case.aklt_lm7_s": "aklt_lm7",
    "case.torus3x3_s": "torus3x3",
    "case.aklt_ring8_s": "aklt_ring8",
    "case.sqid_ferro2d_s": "sqid_ferro2d",
    "case.counting_d3_s": "counting_d3",
}
PER_LAYER = {
    "trace.wall_s": "s",
    "trace_overhead_s": "s",
    "unattributed_s": "s",
    "cli.s": "s",
    "models.s": "s",
    "lattice.s": "s",
    "lattice.calls": "count",
    "operators.s": "s",
    "operators.materialize_s": "s",
    "operators.matvec_s": "s",
    "operators.matvec_cols": "count",
    "operators.matvec_amps": "count",
    "operators.matvec_ns_per_amp": "ns/amp",
    "operators.composite_s": "s",
    "operators.composite_matvec_s": "s",
    "operators.assemble_s": "s",
    "operators.terms": "count",
    "spectral.s": "s",
    "spectral.dense_eig_s": "s",
    "spectral.dense_solves": "count",
    "spectral.pairs_used_ratio": "ratio",
    "spectral.arpack_s": "s",
    "spectral.arpack_calls": "count",
    "spectral.k_escalations": "count",
    "spectral.matvecs": "count",
    "spectral.residual_s": "s",
    "spectral.kernel_dim_err": "count",
    "criteria.s": "s",
    "criteria.subsystem_solves": "count",
    "criteria.repeat_ratio": "ratio",
    "coarsegrain.s": "s",
    **{name: "s" for name in CASE_METRICS},
}


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    src = os.path.join(ROOT, "src", "gapcert")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in threads},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_child(args, tag, deadline, trace=False, probe=False) -> dict:
    """One child interpreter; wall, CPU and peak RSS come from wait4."""
    result_path = os.path.join(OUT_DIR, f"{tag}.result.json")
    spans_path = os.path.join(OUT_DIR, f"{tag}.spans.jsonl")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "child.py"),
        # numpy's seeded generators take non-negative seeds
        "--workload", args.workload, "--seed", str(args.seed % 2**32),
        "--trace", "1" if trace else "0", "--result", result_path,
    ]
    if trace:
        cmd += ["--spans", spans_path]
    if probe:
        cmd.append("--probe")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "timed_out": timed_out,
        "trace": trace,
        "result": None,
    }
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            out["result"] = json.load(fh)
        out["setup_s"] = out["result"]["ready"] - launched
    return out


def check_pass(cases, run, sweep_reference) -> tuple:
    """(attempted, failed, kernel_dim_err, problems) for one pass."""
    results = {c["id"]: c for c in (run["result"] or {}).get("cases", [])}
    failed, kernel_err, problems = 0, 0, []
    for case in cases:
        got = results.get(case.id)
        if got is None:
            faults = [f"no result (child exit {run['exit']}, timed out {run['timed_out']})"]
        elif got["error"] is not None:
            faults = [got["error"].strip().splitlines()[-1]]
        elif got["rc"] != 0:
            faults = [f"exit code {got['rc']}"]
        else:
            try:
                faults, err = case.check(got["stdout"])
            except (ValueError, IndexError, KeyError) as exc:
                faults, err = [f"unparsable output: {exc!r}"], 0
            kernel_err += err
            if case.argv[0] == "sweep":
                reference = sweep_reference.setdefault(case.id, got["stdout"])
                if got["stdout"] != reference:
                    faults.append("sweep CSV differs from the first pass")
        if faults:
            failed += 1
            problems.append(f"{case.id}: " + "; ".join(faults))
    return len(cases), failed, kernel_err, problems


def median(values):
    return statistics.median(values) if values else 0.0


def describe(values):
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gapcert", "cli.py")):
        print(f"error: no gapcert source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = machine_info(args.seed)
    print("machine: " + json.dumps(info, sort_keys=True), file=sys.stderr)

    warm = run_child(args, f"{tag}-warmup", hard_deadline, probe=True)
    if warm["result"] is None:
        print(f"error: gapcert does not import (exit {warm['exit']})", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    stop = t0 + args.seconds
    probes = [run_child(args, f"{tag}-probe{i}", hard_deadline, probe=True) for i in range(SETUP_PROBES)]

    cases = workloads.WORKLOADS[args.workload]
    passes, sweep_reference = [], {}
    attempted = failed = 0
    kernel_errs, problems = [], []
    while True:
        # traced and untraced passes in the order T U U T, so that a drift
        # in machine speed does not bias trace_overhead_s
        traced = bool(args.trace) and len(passes) % 4 in (0, 3)
        run = run_child(args, f"{tag}-pass{len(passes)}", hard_deadline, trace=traced)
        passes.append(run)
        a, f, k, p = check_pass(cases, run, sweep_reference)
        attempted, failed = attempted + a, failed + f
        kernel_errs.append(k)
        problems += [f"pass {len(passes) - 1}: {x}" for x in p]
        longest = max(r["wall_s"] for r in passes)
        now = time.monotonic()
        if args.trace and len(passes) < 2 and now + longest < hard_deadline:
            continue
        if now + longest > min(stop, hard_deadline):
            break
    measured_s = time.monotonic() - t0

    plain = [r for r in passes if not r["trace"]]
    traced = [r for r in passes if r["trace"] and r["result"]]
    setups = [r["setup_s"] for r in probes + plain if "setup_s" in r]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setups,
    }
    case_seconds = {}
    for r in plain:
        for c in (r["result"] or {}).get("cases", []):
            case_seconds.setdefault(c["id"], []).append(c["seconds"])

    lines = [f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
             f"({len(traced)} traced) in {measured_s:.1f} s"]
    if args.trace:
        layer_samples = {}
        for r in traced:
            layers = dict(r["result"]["trace"])
            layers["trace.wall_s"] = r["wall_s"]
            layers["unattributed_s"] = r["wall_s"] - sum(layers[f"{l}.s"] for l in LAYERS)
            for name, value in layers.items():
                layer_samples.setdefault(name, []).append(value)
        layer_samples["trace_overhead_s"] = [
            median(layer_samples.get("trace.wall_s", [])) - median(samples["wall_s"])
        ]
        layer_samples["spectral.kernel_dim_err"] = kernel_errs
        for metric, case_id in CASE_METRICS.items():
            layer_samples[metric] = case_seconds.get(case_id, [0.0])
        metric_units = {m: u for m, u in PER_LAYER.items() if m in layer_samples}
        absent = sorted(set(PER_LAYER) - set(metric_units))
        if absent:
            lines.append("absent (traced function missing): " + ", ".join(absent))
        samples = layer_samples
    else:
        metric_units = dict(END_TO_END)

    metrics = {}
    for name, unit in metric_units.items():
        value = float(median(samples[name]))
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:28s} {value:14.6g} {unit:7s} median, {describe(samples[name])}")
    lines.append(f"{'fail_frac':28s} {failed / max(attempted, 1):14.6g} ratio   "
                 f"{failed} of {attempted} cases")
    lines.append(f"{'kernel_dim_err':28s} {median(kernel_errs):14.6g} count   "
                 f"median, {describe(kernel_errs)}")
    if not args.trace:
        for case_id, values in case_seconds.items():
            lines.append(f"{'case ' + case_id:28s} {median(values):14.6g} s       "
                         f"median, {describe(values)}")
    lines += [f"FAILED {p}" for p in problems]
    print("\n".join(lines))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "machine": info,
        "args": vars(args),
        "probes": probes,
        "passes": [{k: v for k, v in r.items() if k != "result"} for r in passes],
        "case_seconds": case_seconds,
        "kernel_dim_err": kernel_errs,
        "problems": problems,
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
