import json
import math
from pathlib import Path

import pytest

from vmpnet.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_potts_params_prints_values(capsys):
    assert run_cli("potts-params", "--beta", repr(math.log(2.0)), "--q", "3") == 0
    out = capsys.readouterr().out
    assert "(w, b, kappa) = (0.4, 0.1, 0.5)" in out
    doc = json.loads(out.split("\n", 1)[1])
    assert abs(doc["w"] - 0.4) < 1e-12 and abs(doc["b"] - 0.1) < 1e-12


def test_simulate_run_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        code = run_cli(
            "simulate", "--beta", "1.5", "--q", "3", "--x-lo", "-12", "--x-hi", "12",
            "--steps", "3", "--seed", "9", "--out", tmp_path / sub,
        )
        assert code == 0
    a = (tmp_path / "a" / "colorfield.csv").read_bytes()
    b = (tmp_path / "b" / "colorfield.csv").read_bytes()
    assert a == b
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    assert ma == mb
    assert ma["artifacts"] == ["colorfield.csv"]


def test_simulate_with_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "simple", "q": 2, "b": 0.2, "kappa": 0.1,
        "g": {"1,2": [0.8, 0.2], "2,1": [0.3, 0.7]},
        "lam": [0.6, 0.4], "p": [0.5, 0.5],
        "x_lo": -8, "x_hi": 8, "steps": 2, "seed": 5,
    }))
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "run") == 0
    lines = (tmp_path / "run" / "colorfield.csv").read_text().splitlines()
    assert lines[0] == "t,x,color"


def test_dual_sample_artifacts(tmp_path):
    code = run_cli(
        "dual-sample", "--beta", "1.0", "--q", "2", "--points", "-1,2 1,2",
        "--trials", "500", "--seed", "3", "--out", tmp_path / "ds",
    )
    assert code == 0
    counts = json.loads((tmp_path / "ds" / "counts.json").read_text())
    assert sum(counts["counts"]) == 500 and len(counts["counts"]) == 4
    lines = (tmp_path / "ds" / "samples.csv").read_text().splitlines()
    assert lines[0] == "trial,c1,c2" and len(lines) == 501


def test_reduce_graph_fixture(tmp_path):
    code = run_cli(
        "reduce-graph", "--fixture", FIXTURES / "branching_demo_dag.json",
        "--out", tmp_path / "rg", "--seed", "0",
    )
    assert code == 0
    red = json.loads((tmp_path / "rg" / "reduced.json").read_text())
    assert red["reduced"] is True
    assert len(red["vertices"]) == 4
    mult2 = [e for e in red["edges"] if e["multiplicity"] == 2]
    assert len(mult2) == 1
    assert (tmp_path / "rg" / "reduced.dot").read_text().startswith("digraph")
    assert (tmp_path / "rg" / "full.dot").exists()


def test_missing_seed_is_config_error(tmp_path):
    code = run_cli("simulate", "--beta", "1.0", "--q", "2", "--x-lo", "-6",
                   "--x-hi", "6", "--steps", "2", "--out", tmp_path / "x")
    assert code == 2


def test_bad_model_config_is_config_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "potts", "q": 3, "seed": 1, "x_lo": -4, "x_hi": 4, "steps": 1}))
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "y") == 2
    cfg.write_text(json.dumps({"model": "lv", "seed": 1}))
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "y") == 2
    cfg.write_text("{not json")
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "y") == 2


def test_window_guard_is_exit_3(tmp_path):
    code = run_cli("simulate", "--beta", "1.0", "--q", "2", "--x-lo", "-2", "--x-hi", "2",
                   "--steps", "9", "--seed", "1", "--out", tmp_path / "z")
    assert code == 3


def test_scaling_experiment_config(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "schedule": {"q": 2, "eps_levels": [0.25, 0.125], "b": 1.0, "kappa": 2.0, "lam": [0.7, 0.3]},
        "points": [[0.4, 0.3]],
        "trials": 300,
        "seed": 6,
    }))
    assert run_cli("scaling-experiment", "--config", cfg, "--out", tmp_path / "exp") == 0
    csv = (tmp_path / "exp" / "marginal.csv").read_text().splitlines()
    assert csv[0] == "level,eps,estimates,tvd_to_next,ci_low,ci_high"
    assert len(csv) == 3
    assert (tmp_path / "exp" / "marginal.dat").exists()
    man = json.loads((tmp_path / "exp" / "manifest.json").read_text())
    assert sorted(man["artifacts"]) == ["marginal.csv", "marginal.dat", "marginal.json"]


def test_check_duality_corrupted_fails_with_exit_4(tmp_path, capsys):
    code = run_cli("check-duality", "--trials", "10000", "--seed", "2", "--corrupt",
                   "--out", tmp_path / "cd")
    assert code == 4
    lines = (tmp_path / "cd" / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 20
    rep = json.loads(lines[0])
    assert {"setting", "statistic", "dof", "p_value", "tvd", "n"} <= set(rep)


def test_check_duality_honest_passes(tmp_path):
    code = run_cli("check-duality", "--trials", "10000", "--seed", "2", "--out", tmp_path / "cd2")
    assert code == 0
    oracle = json.loads((tmp_path / "cd2" / "oracle_report.json").read_text())
    assert oracle["pass"] and oracle["max_tvd"] <= 1e-10


def test_reduce_graph_from_field_fixture(tmp_path):
    code = run_cli(
        "reduce-graph", "--field-fixture", FIXTURES / "branching_demo_field.txt",
        "--root", "1,4", "--out", tmp_path / "rgf", "--seed", "0",
    )
    assert code == 0
    full = json.loads((tmp_path / "rgf" / "full.json").read_text())
    red = json.loads((tmp_path / "rgf" / "reduced.json").read_text())
    assert len(full["vertices"]) == 7 and len(red["vertices"]) == 4
    code = run_cli("reduce-graph", "--out", tmp_path / "bad", "--seed", "0")
    assert code == 2


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_dual_sample_nonpositive_trials_is_config_error(tmp_path, trials):
    out = tmp_path / "ds"
    code = run_cli(
        "dual-sample", "--beta", "1.0", "--q", "2", "--points", "-1,2 1,2",
        "--trials", trials, "--seed", "3", "--out", out,
    )
    assert code == 2
    assert not out.exists()
