"""vmpnet benchmark: two workloads, end-to-end metrics and a traced run.

Run from the repository root; it uses the package under ``src/`` as it is,
with one worker:

    python3 perfbench/run.py --workload dual --seed 42 --seconds 50 --trace 0

Workloads (defined, with the reason for each, in ``workloads.py``):
``dual`` and ``exact-graph``; one job takes a few seconds.

``--trace 0`` starts set-up-only processes, then one process that repeats
the job in rounds for ``--seconds`` (``worker.py``), and reports
``setup_s`` (interpreter start, ``import vmpnet`` and input construction;
median over the set-up-only processes and the round process), ``wall_s``
and ``cpu_s`` (time to the job's verdict; medians over the rounds) and
``peak_rss_mb`` of the round process.

``--trace 1`` follows each untraced round by a traced one and reports the
per-layer metrics of the traced rounds (``tracing.py``), medians over
rounds: self times, work counts and rates, and ``trace.overhead_s``,
traced minus untraced wall time.

The job's result is checked (``workloads.py``), every round must give the
same result (traced or not, and with the same work counts), and at the
seed recorded in ``digests.json`` its SHA-256 must match the recorded one.
Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and scratch
files go to ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing  # next to this file; imports numpy but not vmpnet

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 3
MIN_ROUNDS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = root / ".perfbench_out"
        self.tmp = self.out / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, *extra: str) -> tuple[float, dict | None]:
        """Start one worker; return (seconds until READY, its JSON result)."""
        argv = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--tmp", str(self.tmp), *extra,
        ]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.1), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or code != 0:
            raise BenchError(f"worker for {self.workload} failed (exit {code})")
        lines = rest.strip().splitlines()
        return setup_s, (json.loads(lines[-1]) if lines else None)

    def rounds(self, seconds: float, *extra: str) -> tuple[float, dict]:
        return self.spawn("--seconds", str(seconds), "--min-rounds", str(MIN_ROUNDS), *extra)

    def untraced(self, seconds: float):
        setups = [self.spawn("--setup-only")[0] for _ in range(SETUP_PROBES)]
        setup_s, out = self.rounds(seconds)
        setups.append(setup_s)
        rounds = out["rounds"]
        print("# set-up: " + " ".join(f"{s:.4f}" for s in setups))
        for i, r in enumerate(rounds):
            print(f"# round {i}: wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f}")
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        return metrics, out

    def traced(self, seconds: float):
        trace_file = self.out / f"trace-{self.workload}.json"
        _, out = self.rounds(seconds, "--trace-out", str(trace_file))
        for i, (r, t) in enumerate(zip(out["rounds"], out["traced"])):
            print(f"# round {i}: untraced wall_s={r['wall_s']:.4f} traced wall_s={t['wall_s']:.4f}")
        per_round = [t["layers"] for t in out["traced"]]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        self.last_trace = json.loads(trace_file.read_text())
        self.last_traced_wall = out["traced"][-1]["wall_s"]
        return metrics, out


def _print_trace_summary(trace: dict, traced_wall: float) -> None:
    self_s, calls, counts = tracing.layer_totals(trace)
    print(f"# layer self times (traced wall {traced_wall:.3f} s)")
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = s / traced_wall if traced_wall > 0 else 0.0
        print(f"#   {name:45s} {s:10.4f} s {100 * share:6.2f} %  calls {calls[name]}")
    for name, cs in sorted(counts["by_span"].items()):
        for k, v in sorted(cs.items()):
            print(f"#   count {name}.{k} = {v}")
    for k, v in sorted(trace["root_counts"].items()):
        print(f"#   count (outside any span) {k} = {v}")
    marginal = {n: s for n, s in self_s.items() if n.startswith("scaling.marginal.t")}
    if marginal:
        top = max(marginal, key=marginal.get)
        print(f"# shape: {top} is {100 * marginal[top] / sum(marginal.values()):.1f} % of the marginal genealogy time")
    dual = self_s.get("duality.dual_sample_many", 0.0)
    if dual:
        # the gof part of ``dual`` is the traced time outside the coarsening gate
        coarsen = sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] == "scaling.coarsening_gate")
        print(f"# shape: duality.dual_sample_many is {100 * dual / (traced_wall - coarsen):.1f} % of the gof part's traced wall time")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "vmpnet" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: needs src/vmpnet and BENCHMARK.json in the working directory", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    recorded = json.loads((HERE / "digests.json").read_text())

    info = machine_info()
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics, out = runner.traced(args.seconds)
        else:
            metrics, out = runner.untraced(args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    checks = [tuple(c) for c in out["checks"]]
    want_digest = recorded["sha256"].get(args.workload)
    digest = out["rounds"][0]["digest"]
    print(f"# result sha256: {digest}")
    if args.seed == recorded["seed"]:
        checks.append(("run.digest-matches-recorded", digest == want_digest))

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"# FAILED check: {name}")
    print(f"# rounds={len(out['rounds'])} checks={len(checks)} failed={len(failed)} fail_frac={len(failed) / len(checks):.4f}")
    if args.trace:
        _print_trace_summary(runner.last_trace, runner.last_traced_wall)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"run.py: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']:45s} {metrics[m['name']]!r:>24} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
