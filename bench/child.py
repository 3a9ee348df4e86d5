"""One workload pass in a fresh interpreter: import gapcert, run the cases.

Started by bench/run.py, once per pass, because a CLI user pays the
interpreter and import set-up on every call.  The cases run in order in
this one process through `gapcert.cli.main`, each with its stdout
captured.  The result goes to the JSON file named by --result; with
--trace 1 the per-layer summary goes there too and the raw spans to
--spans.  With --probe the pass stops once set-up is done.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    import gapcert.cli
    import workloads

    if not os.path.abspath(gapcert.cli.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"gapcert imported from {gapcert.cli.__file__}, not {SRC_DIR}")
    ready = time.monotonic()
    result = {"ready": ready, "cases": [], "trace": None}

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cases = [] if args.probe else workloads.WORKLOADS[args.workload]
    for index, case in enumerate(cases):
        argv = case.argv + ["--seed", str(args.seed)]
        out = io.StringIO()
        rc, error = None, None
        if tracer is not None:
            tracer.case = index
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = gapcert.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        result["cases"].append(
            {"id": case.id, "rc": rc, "error": error, "seconds": seconds, "stdout": out.getvalue()}
        )

    if tracer is not None:
        result["trace"] = tracing.summary(tracer)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
