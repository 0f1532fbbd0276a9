"""The two benchmark workloads: inputs, the timed job, and its checks.

Each workload is one closed-loop job with one worker.  ``setup`` builds the
inputs from a seed, ``job`` is the timed part and returns a
JSON-serializable result, and ``checks`` verifies that result (and draws a
few extra samples) outside the timed region.

Why these two:

* ``dual`` runs the Monte-Carlo dual sampler both ways, as two parts of one
  job whose results are checked apart.  ``gof`` copies the ``duality-statistical-gate`` of ``verify-all``: the 20
  gate settings, honest and with the transposed (corrupt) dual, through
  the gate's samplers and chi-square, at 2000 draws per side so that one
  benchmark run repeats the job often.  Genealogies are short (t <= 3,
  k <= 2 query points, q in {2, 3}) and trials are many, so the per-trial
  Python overhead of the dual sampler dominates; it is the part a
  trial-batched dual sampler is for.  ``coarsen`` copies the
  ``coarsening-diagnostics`` gate at levels 3-6 (genealogy depth t = 32,
  128, 512, 2048), at reduced trial counts: the same dual layer the other
  way round, few trials with deep and wide genealogies.  A change that
  batches trials can help the two parts by different amounts; the traced
  run's per-layer self times (``duality.dual_sample_many`` against
  ``scaling.marginal.t*`` and ``scaling.interface.t*``) show the
  difference.  The two parts share one workload so that each benchmark run
  can be long enough to be steady on a shared host.
* ``exact-graph`` runs no Monte-Carlo dual sampler: the exact oracles,
  max-flow relevance against brute force on fuzzed DAGs, coloring-order
  independence, and the README's ``simulate`` and ``reduce-graph`` commands
  through ``cli.main``.  Any dual-sampler change should leave it unchanged,
  while an oracle, max-flow, coloring, scalar-forward or artifact-writing
  change should move it.

Together the two big gates are nearly all of ``verify-all`` and of the
tier-1 suite; neither can be rerun in full for every benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from vmpnet import cli, duality, models, scaling, verify
from vmpnet.coloring import ColorDistribution
from vmpnet.duality import cone_window
from vmpnet.lattice_net import Window
from vmpnet.rng import derive_seed, derive_seed_array

# Job sizes, so that one benchmark run repeats a job several times:
# ``gof`` keeps all 20 settings at 2000 draws per side, a fifth of the
# gate's minimum; ``coarsen`` keeps all four levels but few trials;
# ``exact-graph`` uses the sizes of the gates it copies, scaled to a few
# seconds.
SIZES = {
    "dual": {
        "gof": {"trials": 2000, "settings": 20},
        "coarsen": {"trials_interface": 10, "trials_marginal": 120},
    },
    "exact-graph": {"dags": 2000, "order_dags": 200, "order_pairs": 200, "sim_half_width": 1000, "sim_steps": 400},
}

# Trials per coupling check (drawn outside the timed job); coarsen checks
# only its two shallow levels, t = 32 and 128, where forward_batch is cheap.
_GOF_COUPLING_TRIALS = 64
_GOF_ALPHA = 0.01
_COARSEN_COUPLING_TRIALS = 16
_COARSEN_COUPLING_LEVELS = (0, 1)

_FIXTURES = Path("tests") / "fixtures"


def canonical_digest(result) -> str:
    """SHA-256 of the canonical JSON of a job's result; ``digests.json``
    records it at the default seed, and a performance change must leave it
    unchanged."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# gof
# ---------------------------------------------------------------------------

def _gof_setup(seed: int, sizes: dict) -> dict:
    return {
        "seed": seed,
        "trials": sizes["trials"],
        "settings": duality.gate_settings()[: sizes["settings"]],
    }


def _gof_job(inp: dict) -> dict:
    # ``run_duality_gate`` for both sides, with its per-setting seeds
    seed = derive_seed(inp["seed"], "gof")
    reports = {}
    for side, corrupt in (("honest", False), ("corrupt", True)):
        side_seed = derive_seed(seed, f"gate-{side}")
        reports[side] = [
            _gof_test(st, inp["trials"], derive_seed(side_seed, "gate-setting", i), corrupt)
            for i, st in enumerate(inp["settings"])
        ]
    return {
        **reports,
        "honest_pass": sum(1 for r in reports["honest"] if r["p_value"] >= _GOF_ALPHA),
        "corrupt_fail": sum(1 for r in reports["corrupt"] if r["p_value"] < _GOF_ALPHA),
    }


def _gof_test(st: dict, trials: int, seed: int, corrupt: bool) -> dict:
    """``duality.duality_gof_test`` without its 10^4-trial floor: the same
    samplers, seed streams and pooled chi-square."""
    params, pts = st["params"], duality.as_query_points(st["points"])
    fwd = duality.forward_sample_many(params, pts, derive_seed(seed, "gof-forward"), trials)
    dual_params = duality.corrupted(params) if corrupt else params
    dual = duality.dual_sample_many(dual_params, pts, derive_seed(seed, "gof-dual"), trials)
    shape = (params.q,) * len(pts)
    counts_f, counts_d = (
        np.bincount(np.ravel_multi_index((x.astype(np.int64) - 1).T, shape), minlength=np.prod(shape))
        for x in (fwd, dual)
    )
    stat, dof, p_value, cells = duality.pooled_two_sample_chisquare(counts_f, counts_d)
    return {
        "setting": st["name"],
        "statistic": stat,
        "dof": dof,
        "p_value": p_value,
        "tvd": 0.5 * float(np.abs(counts_f / trials - counts_d / trials).sum()),
        "n": trials,
        "cells": cells,
        "corrupt_dual": corrupt,
    }


def _gof_checks(inp: dict, result: dict) -> list[tuple[str, bool]]:
    out = []
    n = len(inp["settings"])
    shape_ok = (
        len(result["honest"]) == n
        and len(result["corrupt"]) == n
        and all(r["n"] == inp["trials"] and 0.0 <= r["p_value"] <= 1.0 for r in result["honest"] + result["corrupt"])
    )
    out.append(("gof.report-shape", shape_ok))
    # Pathwise coupling: a dual draw equals the forward chain run on the
    # same per-trial seed.
    master = derive_seed(inp["seed"], "coupling")
    for i, st in enumerate(inp["settings"]):
        pts = duality.as_query_points(st["points"])
        win = cone_window(pts)
        dual = duality.dual_sample_many(st["params"], pts, derive_seed(master, i), _GOF_COUPLING_TRIALS)
        seeds = derive_seed_array(derive_seed(master, i), 0, _GOF_COUPLING_TRIALS, "dual-trial")
        fwd = models.forward_batch(st["params"], seeds, win.x_min, win.x_max, [(v.x, v.t) for v in pts])
        out.append((f"gof.coupling.{st['name']}", bool(np.array_equal(dual, fwd))))
    return out


# ---------------------------------------------------------------------------
# coarsen
# ---------------------------------------------------------------------------

def _coarsen_setup(seed: int, sizes: dict) -> dict:
    return {"seed": seed, **sizes}


def _coarsen_job(inp: dict) -> dict:
    return scaling.coarsening_gate(
        inp["trials_interface"], inp["trials_marginal"], derive_seed(inp["seed"], "coarsen")
    )


def _coarsen_checks(inp: dict, result: dict) -> list[tuple[str, bool]]:
    marg, iface = result["marginal"], result["interface"]
    out = [
        ("coarsen.marginal-counts", all(sum(c) == inp["trials_marginal"] for c in marg["counts"])),
        ("coarsen.interface-histograms", all(sum(h) == inp["trials_interface"] for h in iface["histograms"])),
        ("coarsen.tvd-range", all(0.0 <= d["ci_low"] <= d["ci_high"] <= 1.0 for d in marg["tvds"])),
    ]
    # Pathwise coupling at the two shallow levels: the unit-box slice and the
    # marginal point, computed through the genealogy, equal a forward run.
    schedule = scaling.potts_style_schedule(3, (3, 4, 5, 6), lam=ColorDistribution(3, (0.5, 0.3, 0.2)))
    seeds = derive_seed_array(derive_seed(inp["seed"], "coupling"), 0, _COARSEN_COUPLING_TRIALS, "coupling")
    for n in _COARSEN_COUPLING_LEVELS:
        params = schedule.level_params(n)
        eps = schedule.eps_levels[n]
        mid = scaling.snap((0.5, 0.5), eps)
        pts = [(x, mid.t) for x in range(0, round(1.0 / eps) + 1) if (x + mid.t) % 2 == 1]
        pts.append((mid.x, mid.t))
        win = Window(pts[0][0] - mid.t, pts[-2][0] + mid.t, 0, mid.t)
        fwd = models.forward_batch(params, seeds, win.x_min, win.x_max, pts)
        dual = [duality.dual_colors_genealogy(params, int(s), pts, win) for s in seeds]
        out.append((f"coarsen.coupling.t{mid.t}", bool(np.array_equal(np.array(dual, dtype=np.uint8), fwd))))
    return out


# ---------------------------------------------------------------------------
# exact-graph
# ---------------------------------------------------------------------------

def _exact_setup(seed: int, sizes: dict) -> dict:
    dag_fixture = _FIXTURES / "branching_demo_dag.json"
    field_fixture = _FIXTURES / "branching_demo_field.txt"
    for p in (dag_fixture, field_fixture):
        if not p.is_file():
            raise FileNotFoundError(f"missing fixture {p}")
    h = sizes["sim_half_width"]
    return {
        "seed": seed,
        **sizes,
        "cli_runs": {
            "simulate": [
                "simulate", "--beta", "1.5", "--q", "3", "--x-lo", str(-h), "--x-hi", str(h),
                "--steps", str(sizes["sim_steps"]), "--seed", str(seed),
            ],
            "reduce-graph": ["reduce-graph", "--fixture", str(dag_fixture), "--seed", "0"],
            "reduce-graph-field": [
                "reduce-graph", "--field-fixture", str(field_fixture), "--root", "1,4", "--seed", "0",
            ],
        },
    }


def _artifact_digests(out: Path) -> dict:
    # manifest.json holds the run's wall time, the one non-deterministic byte
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def _exact_job(inp: dict) -> dict:
    seed = inp["seed"]
    result = {
        "oracle": verify.gate_oracle_equality(),
        "reduction": verify.gate_reduction(inp["dags"], derive_seed(seed, "reduction")),
        "order": verify.gate_order_independence(
            inp["order_dags"], inp["order_pairs"], derive_seed(seed, "order-indep")
        ),
        "cli": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=inp["tmp_root"]))
    try:
        for name, argv in inp["cli_runs"].items():
            out = scratch / name
            code = cli.main(argv + ["--out", str(out)])
            result["cli"][name] = {"exit": code, "artifacts": _artifact_digests(out) if out.is_dir() else {}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result


def _exact_checks(inp: dict, result: dict) -> list[tuple[str, bool]]:
    out = [
        ("exact.oracle-tvd", result["oracle"]["max_tvd"] <= 1e-10),
        ("exact.root-color-mismatches", result["reduction"]["root_color_mismatches"] == 0),
        ("exact.relevance-mismatches", result["reduction"]["relevance_oracle_mismatches"] == 0),
        ("exact.order-mismatches", result["order"]["order_mismatches"] == 0),
        ("exact.consistency-mismatches", result["order"]["consistency_mismatches"] == 0),
    ]
    out += [(f"exact.cli.{name}.exit0", run["exit"] == 0) for name, run in result["cli"].items()]
    return out


# ---------------------------------------------------------------------------
# dual = gof + coarsen
# ---------------------------------------------------------------------------

def _dual_setup(seed: int, sizes: dict) -> dict:
    return {"gof": _gof_setup(seed, sizes["gof"]), "coarsen": _coarsen_setup(seed, sizes["coarsen"])}


def _dual_job(inp: dict) -> dict:
    return {"gof": _gof_job(inp["gof"]), "coarsen": _coarsen_job(inp["coarsen"])}


def _dual_checks(inp: dict, result: dict) -> list[tuple[str, bool]]:
    return _gof_checks(inp["gof"], result["gof"]) + _coarsen_checks(inp["coarsen"], result["coarsen"])


WORKLOADS = {
    "dual": (_dual_setup, _dual_job, _dual_checks),
    "exact-graph": (_exact_setup, _exact_job, _exact_checks),
}


def setup(workload: str, seed: int, tmp_root: Path, sizes: dict | None = None) -> dict:
    inp = WORKLOADS[workload][0](seed, sizes or SIZES[workload])
    inp["tmp_root"] = str(tmp_root)
    return inp


def job(workload: str, inp: dict) -> dict:
    return WORKLOADS[workload][1](inp)


def checks(workload: str, inp: dict, result: dict) -> list[tuple[str, bool]]:
    return WORKLOADS[workload][2](inp, result)
