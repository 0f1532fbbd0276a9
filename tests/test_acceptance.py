"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Criteria 1-5 are evaluated directly at their stated tolerances; criteria
6-9 are read from a full CLI verify-all run (the gates are the criteria
implementations); criterion 10 compares three verify-all runs (two worker
counts) byte for byte.  The three CLI runs dominate the suite's runtime.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from vmpnet.duality import exact_dual_law, exact_forward_law, oracle_settings
from vmpnet.models import (
    lotka_volterra_decomposition,
    lotka_volterra_transition,
    nbv_remainder_order_fit,
    noisy_biased_voter_decomposition,
    noisy_biased_voter_transition,
    potts_detailed_balance_residual,
    potts_rates,
)

SEED = 42


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def verify_runs(tmp_path_factory):
    """Three verify-all CLI runs: twice with one worker, once with four."""
    base = tmp_path_factory.mktemp("verify")
    runs = {}
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = base / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "vmpnet.cli",
                "verify-all",
                "--seed",
                str(SEED),
                "--workers",
                str(workers),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        runs[name] = {"dir": out, "returncode": proc.returncode, "stdout": proc.stdout}
    return runs


def test_criterion_1_potts_simplex_identity():
    worst = 0.0
    for beta in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for q in range(2, 7):
            w, b, kappa = potts_rates(beta, q)
            worst = max(worst, abs(w + b + kappa - 1.0))
    report(1, "Potts simplex identity w+b+kappa=1 to 1e-12", worst <= 1e-12, f"max |sum-1| = {worst:.2e}")


def test_criterion_2_potts_scaling_anchors():
    ok = True
    worst_k, worst_b = 0.0, 0.0
    for q in range(2, 7):
        _, b, kappa = potts_rates(10.0, q)
        k_err = abs(kappa * math.exp(20.0) - q) / q
        b_err = abs(b * math.exp(10.0) - q / 2.0) / q
        worst_k, worst_b = max(worst_k, k_err), max(worst_b, b_err)
        ok = ok and k_err <= 1e-6 and b_err <= 1e-3
    report(2, "Potts scaling anchors at beta=10", ok, f"kill {worst_k:.2e}/q, branch {worst_b:.2e}/q")


def test_criterion_3_detailed_balance():
    worst = max(
        potts_detailed_balance_residual(beta, q)
        for q in range(2, 7)
        for beta in (0.5, 1.0, 3.0)
    )
    report(3, "detailed balance residual <= 1e-10", worst <= 1e-10, f"max residual {worst:.2e}")


def test_criterion_4_decomposition_exactness():
    lv_worst = 0.0
    for alpha in (0.0, 0.25, 0.6, 1.0):
        for eps in (0.0, 0.1, 0.5, 1.0):
            d = lotka_volterra_decomposition(alpha, eps)
            for eta in (0, 1):
                for f1 in np.linspace(0.0, 1.0, 101):
                    got = d.reconstructed(eta, float(f1))
                    want = lotka_volterra_transition(eta, float(f1), alpha, eps)
                    lv_worst = max(lv_worst, float(np.abs(got - want).max()))
    nbv_worst = 0.0
    for alpha in (0.0, 0.3, 1.0):
        for eps in (2.0 ** -8, 2.0 ** -6, 2.0 ** -4):
            d = noisy_biased_voter_decomposition(alpha, 1.0, 1.0, eps)
            for f1 in np.linspace(0.0, 1.0, 101):
                want = noisy_biased_voter_transition(float(f1), alpha, d.b_eps, d.kappa_eps)
                nbv_worst = max(nbv_worst, float(np.abs(d.reconstructed(float(f1)) - want).max()))
    slope, _, _ = nbv_remainder_order_fit(0.3, 1.0, 1.0)
    ok = lv_worst <= 1e-12 and nbv_worst <= 1e-12 and slope >= 2.9
    report(
        4,
        "LV/NBV reconstructions exact to 1e-12; remainder slope >= 2.9",
        ok,
        f"lv {lv_worst:.2e}, nbv {nbv_worst:.2e}, slope {slope:.3f}",
    )


def test_criterion_5_duality_oracle_equivalence():
    settings = oracle_settings()
    assert len(settings) >= 10
    assert any("ln2" in s["name"] for s in settings)
    assert {s["params"].q for s in settings} == {2, 3}
    worst = 0.0
    for st in settings:
        assert max(t for _, t in st["points"]) <= 2 and len(st["points"]) <= 2
        tv = exact_forward_law(st["params"], st["points"]).tvd(
            exact_dual_law(st["params"], st["points"])
        )
        worst = max(worst, tv)
    report(
        5,
        f"forward and dual exact oracles agree on {len(settings)} settings to 1e-10",
        worst <= 1e-10,
        f"max TVD {worst:.2e}",
    )


def _gate(runs, name):
    rep = json.loads((runs["a"]["dir"] / "verify_report.json").read_text())
    for gate in rep["gates"]:
        if gate["name"] == name:
            return gate
    raise AssertionError(f"gate {name} missing from verify report")


def test_criterion_6_duality_statistical_gate(verify_runs):
    gate = _gate(verify_runs, "duality-statistical-gate")
    ok = gate["trials"] >= 100_000 and gate["honest_pass"] >= 18 and gate["corrupt_fail"] >= 18
    report(
        6,
        "chi-square gate: honest passes >= 18/20 and corrupted fails >= 18/20 at 1e5 samples",
        ok,
        f"honest {gate['honest_pass']}/20, corrupted fails {gate['corrupt_fail']}/20",
    )


def test_criterion_7_reduction_equivalence(verify_runs):
    gate = _gate(verify_runs, "reduction-equivalence")
    ok = (
        gate["dags"] >= 10_000
        and gate["root_color_mismatches"] == 0
        and gate["relevance_oracle_mismatches"] == 0
        and gate["small_dags_checked"] >= 1000
    )
    report(
        7,
        "10^4 fuzzed dags: reduced root colors identical; post-dominator relevance = brute force on small dags",
        ok,
        f"{gate['dags']} dags, {gate['small_dags_checked']} small checked",
    )


def test_criterion_8_order_independence_and_consistency(verify_runs):
    gate = _gate(verify_runs, "order-independence-and-consistency")
    ok = (
        gate["dags"] >= 1000
        and gate["order_mismatches"] == 0
        and gate["consistency_pairs"] >= 1000
        and gate["consistency_mismatches"] == 0
    )
    report(
        8,
        "colorings identical under 10 random topological orders; sub-dag consistency exact",
        ok,
        f"{gate['dags']} dags x 10 orders, {gate['consistency_pairs']} consistency pairs",
    )


def test_criterion_9_coarsening_diagnostics(verify_runs):
    gate = _gate(verify_runs, "coarsening-diagnostics")
    chi = gate["interface"]["finest_pair_chisquare"]
    means = gate["interface"]["mean_counts"]
    sems = gate["interface"]["sem_counts"]
    means_stable = abs(means[-1] - means[-2]) <= 4 * (sems[-1] + sems[-2])
    ok = (
        chi["pass"]
        and gate["marginal"]["tvd_non_increasing_within_ci"]
        and means_stable
        and gate["pass"]
    )
    report(
        9,
        "interface chi-square at two finest levels passes; marginal TVDs non-increasing within CIs",
        ok,
        f"chi2 p={chi['p_value']:.3f}, means={['%.2f' % m for m in gate['interface']['mean_counts']]}",
    )


def test_criterion_10_determinism_across_runs_and_workers(verify_runs):
    for run in verify_runs.values():
        assert run["returncode"] == 0, run["stdout"][-2000:]
    ref = verify_runs["a"]["dir"]
    identical = True
    compared = []
    for other in ("b", "c"):
        path = verify_runs[other]["dir"]
        for name in ("verify_report.json", "gates.csv"):
            same = (ref / name).read_bytes() == (path / name).read_bytes()
            identical = identical and same
            compared.append(f"{other}/{name}:{'=' if same else '!'}")
        ma = json.loads((ref / "manifest.json").read_text())
        mb = json.loads((path / "manifest.json").read_text())
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        identical = identical and ma == mb
    report(
        10,
        "verify-all --seed 42: byte-identical outputs across runs and worker counts {1, 4}",
        identical,
        " ".join(compared),
    )
