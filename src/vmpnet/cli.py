"""Command line interface: experiments, fixtures and the verification gate.

Exit codes: 0 success, 2 configuration error, 3 guard violation (window,
parity, state-space, budget), 4 gate failure.  Every artifact-producing
run writes a manifest referencing each artifact exactly once; the
manifest's wall_time_s field is the only non-deterministic output.
Configuration comes from --config JSON files and mirrored flags, and each
command takes only the flags it reads; the seed is always explicit (no
wall-clock default) and environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .coloring import ColorDistribution, boundary_table_from
from .dualgraph import dag_from_json, dag_to_dot, dag_to_json, reduce_dag
from .duality import (
    GATE_NEED,
    GOF_MIN_TRIALS,
    GOF_TRIALS,
    _encode_tuples,
    as_query_points,
    dual_sample_many,
    run_duality_gate,
)
from .errors import BudgetError, GateFailure, ParityError, StateSpaceError, VmpNetError, WindowError
from .models import VmpParams, potts_params, potts_rates, simple_vmp, simulate
from .runio import ConfigError, RunDir, canonical_json, expect, expect_number_list, int_csv
from .scaling import ScalingSchedule, coarsening_gate, marginal_convergence_experiment
from .verify import gate_oracle_equality, run_all

_GUARD_ERRORS = (WindowError, ParityError, StateSpaceError, BudgetError)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(_read_utf8(p))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return obj


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_model(cfg: dict) -> VmpParams:
    """Model configs: {"model": "potts", "beta", "q"} or
    {"model": "simple", "q", "b", "kappa", "g"?, "p"?, "lam"?}."""
    model = expect(cfg, "model", str)
    if model == "potts":
        return potts_params(expect(cfg, "beta", float), expect(cfg, "q", int))
    if model == "simple":
        q = expect(cfg, "q", int)
        b = expect(cfg, "b", float)
        kappa = expect(cfg, "kappa", float)
        g = None
        if "g" in cfg:
            offdiag = {}
            for key in expect(cfg, "g", dict):
                try:
                    k_, l_ = (int(s) for s in key.split(","))
                except ValueError:
                    raise ConfigError(f"config.g: keys must look like 'k,l', got {key!r}") from None
                if k_ == l_ or not (1 <= k_ <= q and 1 <= l_ <= q):
                    raise ConfigError(f"config.g: key {key!r} is not an off-diagonal pair of colors 1..{q}")
                offdiag[(k_, l_)] = expect_number_list(cfg, f"g.{key}")
            g = boundary_table_from(q, offdiag)
        p = expect_number_list(cfg, "p", required=False)
        lam = expect_number_list(cfg, "lam", required=False)
        return simple_vmp(
            q,
            b,
            kappa,
            g,
            ColorDistribution(q, tuple(p)) if p is not None else None,
            ColorDistribution(q, tuple(lam)) if lam is not None else None,
        )
    if model in ("lv", "nbv"):
        raise ConfigError(
            f"config.model: {model!r} is a decomposition family without simple nearest-neighbor "
            "dynamics; use 'potts' or 'simple' here (decompositions run under verify-all)"
        )
    raise ConfigError(f"config.model: unknown model {model!r}")


def _parse_points(cfg: dict, flag_value: str | None):
    if flag_value:
        try:
            # a token that is not exactly "x,t" fails to unpack: ValueError
            pts = [(int(x), int(t)) for x, t in (tok.split(",") for tok in flag_value.split())]
        except ValueError:
            raise ConfigError(f"--points: expected 'x,t x,t ...', got {flag_value!r}") from None
    else:
        raw = expect(cfg, "points", list)
        if not all(isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in raw):
            raise ConfigError("config.points: expected array of [x, t] integer pairs")
        pts = [tuple(p) for p in raw]
    return as_query_points(pts)


def _ascii_map(field) -> str:
    lo = min(xs[0] for _, xs, _ in field.slices)
    hi = max(xs[-1] for _, xs, _ in field.slices)
    symbols = np.frombuffer(b"0123456789abcdefghijklmnopqrstuvwxyz", np.uint8)
    lines = []
    for t, xs, colors in reversed(field.slices):
        line = np.full(hi - lo + 1, ord("."), np.uint8)
        line[xs - lo] = symbols[colors % len(symbols)]
        lines.append(f"t={t:4d} {line.tobytes().decode()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    params = _read_model(cfg, args)
    x_lo = args.x_lo if args.x_lo is not None else expect(cfg, "x_lo", int)
    x_hi = args.x_hi if args.x_hi is not None else expect(cfg, "x_hi", int)
    steps = args.steps if args.steps is not None else expect(cfg, "steps", int)
    t0 = time.monotonic()
    field = simulate(params, x_lo, x_hi, steps, seed)
    run = RunDir(args.out, "simulate", {"cfg": cfg, "x_lo": x_lo, "x_hi": x_hi, "steps": steps}, seed)
    run.write("colorfield.csv", field.to_csv())
    if args.ascii:
        art = _ascii_map(field)
        run.write("colorfield.txt", art)
        sys.stdout.write(art)
    run.finish(time.monotonic() - t0)
    print(f"simulate: wrote {len(field.slices)} slices to {run.path}")
    return 0


def _read_model(cfg: dict, args) -> VmpParams:
    """The config's top-level model if it names one, else the Potts flags."""
    if "model" in cfg:
        return parse_model(cfg)
    if args.beta is not None and args.q is not None:
        return parse_model({"model": "potts", "beta": args.beta, "q": args.q})
    raise ConfigError("provide --config with a model, or --beta and --q for a Potts chain")


def cmd_dual_sample(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    params = _read_model(cfg, args)
    points = _parse_points(cfg, args.points)
    trials = args.trials if args.trials is not None else expect(cfg, "trials", int)
    if trials <= 0:
        raise ConfigError(f"trials must be positive, got {trials}")
    run = RunDir(args.out, "dual-sample", {"cfg": cfg, "points": [list(p) for p in points], "trials": trials}, seed)
    t0 = time.monotonic()
    samples = dual_sample_many(params, points, seed, trials)
    header = "trial," + ",".join(f"c{i+1}" for i in range(samples.shape[1]))
    run.write("samples.csv", int_csv(header, [(np.arange(trials), *samples.T)]))
    q = params.q
    counts = np.bincount(_encode_tuples(samples, q), minlength=q ** samples.shape[1])
    run.write_json(
        "counts.json",
        {
            "q": q,
            "points": [list(p) for p in points],
            "trials": trials,
            "counts": counts.tolist(),
        },
    )
    run.finish(time.monotonic() - t0)
    print(f"dual-sample: {trials} joint draws at {len(points)} points -> {run.path}")
    return 0


def cmd_check_duality(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    trials = args.trials if args.trials is not None else expect(cfg, "trials", int, required=False, default=GOF_TRIALS)
    if trials < GOF_MIN_TRIALS:
        raise ConfigError(f"check-duality needs at least {GOF_MIN_TRIALS} trials per side, got {trials}")
    run = RunDir(args.out, "check-duality", {"cfg": cfg, "trials": trials}, seed)
    t0 = time.monotonic()
    oracle = gate_oracle_equality()
    oracle_pass = oracle["pass"]
    print(
        f"oracle equality: max TVD {oracle['max_tvd']:.3e} over {len(oracle['settings'])} settings "
        f"-> {'pass' if oracle_pass else 'FAIL'}"
    )

    reports = run_duality_gate(trials, seed, corrupt_dual=args.corrupt, workers=args.workers)
    n_pass = sum(1 for r in reports if r["pass"])
    jsonl = [
        json.dumps(
            {k: rep[k] for k in ("setting", "statistic", "dof", "p_value", "tvd", "n")},
            sort_keys=True,
        )
        for rep in reports
    ]
    run.write("reports.jsonl", "\n".join(jsonl) + "\n")
    run.write_json("oracle_report.json", {k: oracle[k] for k in ("settings", "max_tvd", "pass")})
    run.finish(time.monotonic() - t0)
    gate_pass = n_pass >= GATE_NEED
    for rep in reports:
        print(f"  {rep['setting']:22s} p={rep['p_value']:.4f} tvd={rep['tvd']:.4f} {'pass' if rep['pass'] else 'fail'}")
    print(f"statistical gate ({'corrupted' if args.corrupt else 'honest'}): {n_pass}/{len(reports)} pass")
    if args.corrupt and not gate_pass:
        print("corrupted dual rejected as expected (power confirmed); exit reflects the gate on the data presented")
    if not (oracle_pass and gate_pass):
        return 4
    return 0


def cmd_reduce_graph(args) -> int:
    if bool(args.fixture) == bool(args.field_fixture):
        raise ConfigError("provide exactly one of --fixture (DAG JSON) or --field-fixture (field text)")
    if args.fixture:
        path = Path(args.fixture)
        if not path.exists():
            raise ConfigError(f"fixture not found: {args.fixture}")
        dag = dag_from_json(_read_utf8(path))
        cfg = {"fixture": str(args.fixture)}
    else:
        from .dualgraph import build_dag
        from .lattice_net import ArrowField, Vertex

        path = Path(args.field_fixture)
        if not path.exists():
            raise ConfigError(f"field fixture not found: {args.field_fixture}")
        if not args.root:
            raise ConfigError("--field-fixture needs --root 'x,t'")
        try:
            rx, rt = (int(v) for v in args.root.split(","))
        except ValueError:
            raise ConfigError(f"--root: expected 'x,t', got {args.root!r}") from None
        field = ArrowField.from_text(_read_utf8(path))
        dag = build_dag(field, Vertex(rx, rt))
        cfg = {"field_fixture": str(args.field_fixture), "root": [rx, rt]}
    run = RunDir(args.out, "reduce-graph", cfg, args.seed or 0)
    t0 = time.monotonic()
    red = reduce_dag(dag)
    run.write("full.json", dag_to_json(dag))
    run.write("reduced.json", dag_to_json(red))
    run.write("reduced.dot", dag_to_dot(red))
    run.write("full.dot", dag_to_dot(dag))
    run.finish(time.monotonic() - t0)
    print(
        f"reduce-graph: {len(dag.kinds)} vertices -> {len(red.kinds)} "
        f"({sum(1 for k in red.kinds.values() if k.value == 'branch')} relevant) -> {run.path}"
    )
    return 0


def cmd_potts_params(args) -> int:
    w, b, kappa = potts_rates(args.beta, args.q)
    doc = {"beta": args.beta, "q": args.q, "w": w, "b": b, "kappa": kappa}
    print(f"(w, b, kappa) = ({w:.6g}, {b:.6g}, {kappa:.6g})")
    sys.stdout.write(canonical_json(doc))
    if args.out:
        run = RunDir(args.out, "potts-params", doc, args.seed or 0)
        run.write_json("potts_params.json", doc)
        run.finish(0.0)
    return 0


def cmd_scaling_experiment(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    t0 = time.monotonic()
    cfg_preset = expect(cfg, "preset", str, required=False)
    if cfg_preset not in (None, "coarsening"):
        raise ConfigError(f"config.preset: unknown preset {cfg_preset!r}; the only preset is 'coarsening'")
    if "coarsening" in (args.preset, cfg_preset):
        sizes = {k: expect(cfg, k, int) for k in ("trials_interface", "trials_marginal") if k in cfg}
        rep = coarsening_gate(seed=seed, workers=args.workers, **sizes)
        run = RunDir(args.out, "scaling-experiment", cfg, seed)
        run.write_json("coarsening.json", rep)
        iface = rep["interface"]
        lines = ["level,eps,mean_interfaces,sem"]
        dat = []
        for i, eps in enumerate(iface["eps_levels"]):
            lines.append(f"{i},{eps!r},{iface['mean_counts'][i]!r},{iface['sem_counts'][i]!r}")
            dat.append(f"{i} {eps!r} {iface['mean_counts'][i]!r} {iface['sem_counts'][i]!r}")
        run.write("interface.csv", "\n".join(lines) + "\n")
        run.write("interface.dat", "\n".join(dat) + "\n")
        _write_marginal_outputs(run, rep["marginal"])
        run.finish(time.monotonic() - t0)
        print(f"coarsening gate: {'pass' if rep['pass'] else 'FAIL'} -> {run.path}")
        return 0 if rep["pass"] else 4

    sched_cfg = expect(cfg, "schedule", dict)
    unknown = sorted(set(sched_cfg) - {"q", "lam", "eps_levels", "b", "kappa"})
    if unknown:
        raise ConfigError(f"config.schedule: unknown key {', '.join(map(repr, unknown))}")
    q = expect(sched_cfg, "q", int)
    lam = expect_number_list(sched_cfg, "lam", required=False)
    schedule = ScalingSchedule(
        eps_levels=tuple(expect_number_list(sched_cfg, "eps_levels")),
        b=expect(sched_cfg, "b", float),
        kappa=expect(sched_cfg, "kappa", float),
        q=q,
        lam=ColorDistribution(q, tuple(lam)) if lam is not None else None,
    )
    raw_points = expect(cfg, "points", list)
    if not all(isinstance(p, list) and len(p) == 2 and all(map(_finite_number, p)) for p in raw_points):
        raise ConfigError("config.points: expected array of [x, t] pairs of finite numbers")
    points = [(float(p[0]), float(p[1])) for p in raw_points]
    trials = expect(cfg, "trials", int)
    rep = marginal_convergence_experiment(schedule, points, trials, seed, workers=args.workers)
    run = RunDir(args.out, "scaling-experiment", cfg, seed)
    _write_marginal_outputs(run, rep)
    run.finish(time.monotonic() - t0)
    print(f"scaling-experiment: {len(schedule.eps_levels)} levels x {trials} trials -> {run.path}")
    return 0


def _finite_number(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond float range
        return False


def _write_marginal_outputs(run: RunDir, rep: dict) -> None:
    run.write_json("marginal.json", rep)
    lines = ["level,eps,estimates,tvd_to_next,ci_low,ci_high"]
    dat = []
    for i, eps in enumerate(rep["eps_levels"]):
        est = ";".join(repr(v) for v in np.asarray(rep["laws"][i]).ravel())
        if i < len(rep["tvds"]):
            tv = rep["tvds"][i]
            lines.append(f"{i},{eps!r},{est},{tv['tvd']!r},{tv['ci_low']!r},{tv['ci_high']!r}")
            dat.append(f"{i} {eps!r} {tv['tvd']!r} {tv['ci_low']!r} {tv['ci_high']!r}")
        else:
            lines.append(f"{i},{eps!r},{est},,,")
    run.write("marginal.csv", "\n".join(lines) + "\n")
    run.write("marginal.dat", "\n".join(dat) + "\n")


def cmd_verify_all(args) -> int:
    seed = _require_seed(args, {})
    if args.gof_trials < GOF_MIN_TRIALS:
        raise ConfigError(f"verify-all needs --gof-trials of at least {GOF_MIN_TRIALS}, got {args.gof_trials}")
    run = RunDir(args.out, "verify-all", {"gof_trials": args.gof_trials}, seed)
    t0 = time.monotonic()
    report = run_all(seed, workers=args.workers, gof_trials=args.gof_trials)
    for gate in report["gates"]:
        print(f"  [{'PASS' if gate['pass'] else 'FAIL'}] {gate['name']}")
    run.write_json("verify_report.json", report)
    summary = "\n".join(
        f"{gate['name']},{'pass' if gate['pass'] else 'fail'}" for gate in report["gates"]
    )
    run.write("gates.csv", "name,result\n" + summary + "\n")
    run.finish(time.monotonic() - t0)
    print(f"verify-all: {'PASS' if report['pass'] else 'FAIL'} -> {run.path}")
    return 0 if report["pass"] else 4


def _require_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in cfg:
        return expect(cfg, "seed", int)
    raise ConfigError("a seed is mandatory: pass --seed or set 'seed' in the config")


def _add_common(sp):
    sp.add_argument("--seed", type=int, help="64-bit master seed (mandatory, no clock default)")
    sp.add_argument("--out", required=True, help="output directory for artifacts + manifest")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vmpnet", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="forward chain on a finite base")
    _add_common(sp)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--q", type=int)
    sp.add_argument("--x-lo", type=int, dest="x_lo")
    sp.add_argument("--x-hi", type=int, dest="x_hi")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--ascii", action="store_true", help="also render an ASCII color map")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("dual-sample", help="joint dual draws at query points")
    _add_common(sp)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--q", type=int)
    sp.add_argument("--points", help="space-separated x,t pairs, e.g. '-1,2 1,2'")
    sp.add_argument("--trials", type=int)
    sp.set_defaults(fn=cmd_dual_sample)

    sp = sub.add_parser("check-duality", help="exact oracles + statistical gate")
    _add_common(sp)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--workers", type=int, default=1, help="parallel workers over trials")
    sp.add_argument("--trials", type=int, help=f"samples per side (default {GOF_TRIALS})")
    sp.add_argument("--corrupt", action="store_true", help="run the power check (transposed dual)")
    sp.set_defaults(fn=cmd_check_duality)

    sp = sub.add_parser("reduce-graph", help="reduce a DAG fixture to JSON + DOT")
    _add_common(sp)
    sp.add_argument("--fixture", help="DAG JSON fixture path")
    sp.add_argument("--field-fixture", dest="field_fixture", help="ArrowField text fixture (header ends in 'backward')")
    sp.add_argument("--root", help="root vertex 'x,t' for --field-fixture")
    sp.set_defaults(fn=cmd_reduce_graph)

    sp = sub.add_parser("potts-params", help="walk/branch/kill weights of the Potts chain")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="optional output directory")
    sp.set_defaults(fn=cmd_potts_params)

    sp = sub.add_parser("scaling-experiment", help="cross-level convergence experiments")
    _add_common(sp)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--workers", type=int, default=1, help="parallel workers over trials")
    sp.add_argument("--preset", choices=["coarsening"], help="built-in experiment preset")
    sp.set_defaults(fn=cmd_scaling_experiment)

    sp = sub.add_parser("verify-all", help="run every invariant/oracle gate")
    _add_common(sp)
    sp.add_argument("--workers", type=int, default=1, help="parallel workers over trials")
    sp.add_argument("--gof-trials", type=int, default=GOF_TRIALS, dest="gof_trials")
    sp.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _GUARD_ERRORS as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except GateFailure as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 4
    except VmpNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
