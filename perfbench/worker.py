"""Benchmark rounds in one fresh process; started by ``run.py``.

Protocol on standard output: the line ``READY`` once the interpreter is up,
vmpnet is imported and the inputs are built (the parent times this as
set-up), then one JSON line with every round's measurements, the checks
and the peak RSS.  Anything the job itself prints is captured, so it cannot
break the protocol.  With ``--setup-only`` the process exits after
``READY``.

A round runs the job once on the inputs of ``--seed`` and records its wall
and CPU time.  Rounds repeat while another round of the last one's duration
still ends within ``--seconds``, and at least ``--min-rounds`` times.  With
``--trace-out`` each round is followed by a traced one; the per-layer
metrics of every traced round are reported and the last one's spans
written to that file.

    PYTHONPATH=src python3 perfbench/worker.py --workload dual --seed 42 \
        --tmp .perfbench_out/tmp --seconds 10 [--setup-only | --trace-out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def timed_job(workloads, workload: str, inp: dict, tracer=None) -> tuple[dict, float, float]:
    """Run the job once; return its result, wall time and CPU time."""
    if tracer is not None:
        import tracing

        tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = workloads.job(workload, inp)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    return result, wall, cpu


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True, help="scratch directory for CLI artifacts")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0, help="how long to repeat rounds")
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--trace-out", help="follow each round by a traced one; write its spans here")
    args = ap.parse_args()

    import vmpnet

    src = (Path.cwd() / "src").resolve()
    if src not in Path(vmpnet.__file__).resolve().parents:
        print(f"vmpnet imported from {vmpnet.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads  # next to this file, so on sys.path

    inp = workloads.setup(args.workload, args.seed, Path(args.tmp))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace_out:
        import tracing

    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result, wall, cpu = timed_job(workloads, args.workload, inp)
        rounds.append({"wall_s": wall, "cpu_s": cpu, "digest": workloads.canonical_digest(result)})
        if args.trace_out:
            tracer = tracing.Tracer(args.workload)
            traced_result, traced_wall, _ = timed_job(workloads, args.workload, inp, tracer)
            trace = tracer.dump()
            traced.append({
                "wall_s": traced_wall,
                "digest": workloads.canonical_digest(traced_result),
                "layers": tracing.layer_metrics(trace, traced_wall, wall),
                "counts": tracing.deterministic_counts(trace),
            })
        now = time.perf_counter()
        if len(rounds) >= args.min_rounds and now - start + (now - t0) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(trace))

    with contextlib.redirect_stdout(io.StringIO()):
        checks = workloads.checks(args.workload, inp, result)
    checks.append(("run.digest-repeats", len({r["digest"] for r in rounds}) == 1))
    if traced:
        checks += [("trace.same-digest-as-untraced", r["digest"] == t["digest"]) for r, t in zip(rounds, traced)]
        checks.append(("trace.counts-repeat", all(t["counts"] == traced[0]["counts"] for t in traced)))
    out = {"rounds": rounds, "traced": traced, "peak_rss_mb": peak_rss_mb, "checks": checks}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
