"""Tests of the benchmark itself, at small job sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "dual": {
        "gof": {"trials": 500, "settings": 2},
        "coarsen": {"trials_interface": 2, "trials_marginal": 4},
    },
    "exact-graph": {"dags": 60, "order_dags": 10, "order_pairs": 10, "sim_half_width": 60, "sim_steps": 20},
}


def _traced(workload, seed, tmp_path):
    inp = workloads.setup(workload, seed, tmp_path, SMALL[workload])
    tracer = tracing.Tracer(workload)
    tracing.install(tracer)
    try:
        result = workloads.job(workload, inp)
    finally:
        tracer.restore()
    return inp, result, tracer.dump()


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    monkeypatch.chdir(HERE.parent)  # fixtures are read relative to the root


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_counts_repeat_and_tracing_changes_no_result(workload, tmp_path):
    inp, result, trace1 = _traced(workload, 7, tmp_path)
    _, _, trace2 = _traced(workload, 7, tmp_path)
    counts = tracing.deterministic_counts(trace1)
    assert counts and counts == tracing.deterministic_counts(trace2)
    plain = workloads.job(workload, workloads.setup(workload, 7, tmp_path, SMALL[workload]))
    assert workloads.canonical_digest(plain) == workloads.canonical_digest(result)
    assert all(ok for _, ok in workloads.checks(workload, inp, result))


def test_every_per_layer_metric_is_reached_by_some_workload(tmp_path):
    reached = set()
    for workload in SMALL:
        _, _, trace = _traced(workload, 3, tmp_path)
        m = tracing.layer_metrics(trace, 1.0, 1.0)
        reached |= {k for k, v in m.items() if v}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    missing = {m["name"] for m in spec["per_layer"]} - reached - {"trace.overhead_s"}
    assert not missing


def test_gof_job_equals_the_gate_at_the_gate_trial_count(tmp_path):
    from vmpnet import duality
    from vmpnet.rng import derive_seed

    inp = workloads._gof_setup(5, {"trials": 10_000, "settings": 1})
    result = workloads._gof_job(inp)
    for side, corrupt in (("honest", False), ("corrupt", True)):
        seed = derive_seed(derive_seed(5, "gof"), f"gate-{side}")
        gate = duality.run_duality_gate(10_000, seed, corrupt_dual=corrupt, settings=inp["settings"])
        assert result[side] == [{k: v for k, v in r.items() if k not in ("alpha", "pass")} for r in gate]


def test_benchmark_json_matches_the_metrics_computed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    computed = tracing.layer_metrics({"spans": [], "root_counts": {}}, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(computed)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_self_time_subtracts_child_spans():
    trace = {
        "root_counts": {},
        "spans": [
            {"name": "a", "start": 0.0, "end": 10.0, "parent": -1, "counts": {"n": 1}},
            {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "counts": {"n": 2}},
            {"name": "b", "start": 5.0, "end": 6.0, "parent": 0, "counts": {}},
        ],
    }
    self_s, calls, counts = tracing.layer_totals(trace)
    assert self_s == {"a": 6.0, "b": 4.0}
    assert calls == {"a": 1, "b": 2}
    assert counts["all"]["n"] == 3


def test_restore_puts_back_every_original():
    from vmpnet import duality, lattice_net, scaling

    before = (scaling.dual_colors_genealogy, duality.dual_sample_many, lattice_net.KeyedNet.outcome_at)
    tracer = tracing.Tracer("x")
    tracing.install(tracer)
    assert duality.dual_sample_many is not before[1]
    tracer.restore()
    after = (scaling.dual_colors_genealogy, duality.dual_sample_many, lattice_net.KeyedNet.outcome_at)
    assert after == before
