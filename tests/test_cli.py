import copy
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmpnet import scaling
from vmpnet.cli import main, parse_model
from vmpnet.coloring import MAX_COLORS
from vmpnet.dualgraph import dag_from_json
from vmpnet.errors import VmpNetError
from vmpnet.lattice_net import ArrowField

FIXTURES = Path(__file__).parent / "fixtures"
DAG_TEXT = (FIXTURES / "branching_demo_dag.json").read_text()
FIELD_TEXT = (FIXTURES / "branching_demo_field.txt").read_text()


def run_cli(*argv):
    return main([str(a) for a in argv])


def assert_one_line_error(capsys, out):
    """The run failed with a one-line message and left no output directory."""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_import_leaves_out_scipy_and_process_pool():
    # scipy.special (0.2 s) loads where a p-value is computed and the process
    # pool (multiprocessing) where workers > 1; scipy.stats never loads
    lazy = ["scipy.special", "scipy.stats", "concurrent.futures.process"]
    code = "import sys, vmpnet.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code, *lazy], capture_output=True, text=True, check=True).stdout
    assert out.strip() == ""


def test_check_duality_p_values_in_fresh_process(tmp_path):
    # the first p-value of the process imports scipy.special
    code = (
        "import sys, vmpnet.cli; assert 'scipy.special' not in sys.modules; "
        "sys.exit(vmpnet.cli.main(sys.argv[1:]))"
    )
    argv = ["check-duality", "--trials", "10000", "--seed", "2", "--out", str(tmp_path / "cd")]
    assert subprocess.run([sys.executable, "-c", code, *argv], capture_output=True).returncode == 0
    from scipy.special import chdtrc

    reports = [json.loads(line) for line in (tmp_path / "cd" / "reports.jsonl").read_text().splitlines()]
    assert len(reports) == 20
    assert all(r["p_value"] == chdtrc(r["dof"], r["statistic"]) and 0.0 < r["p_value"] <= 1.0 for r in reports)


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


@pytest.mark.parametrize(
    "points, trials, digest",
    [
        ("1,2", 1500, "8a717d074b2e29fe9c5a7ff59a58e643cc03896225e151a47cf600a4ab1c8c16"),
        ("-1,2 1,2 0,3", 1000, "488aa3ca682871dc63ac58dd308fe3badde7a072b33a0a9e27ca24b70ddc088a"),
    ],
    ids=["k1", "k3"],
)
def test_dual_sample_csv_golden(tmp_path, points, trials, digest):
    # digests of the samples.csv written one f-string per row
    code = run_cli(
        "dual-sample", "--beta", "1.0", "--q", "3", "--points", points,
        "--trials", trials, "--seed", "3", "--out", tmp_path / "ds",
    )
    assert code == 0
    assert hashlib.sha256((tmp_path / "ds" / "samples.csv").read_bytes()).hexdigest() == digest


def test_simulate_ascii_map_golden(tmp_path, capsys, monkeypatch):
    # digests of the map and stdout rendered from per-site dicts: colors up
    # to 12 print as letters, and x runs from -1013 across zero
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(
        {"model": "simple", "q": 12, "b": 0.3, "kappa": 0.2, "x_lo": -1013, "x_hi": 40, "steps": 30, "seed": 8}
    ))
    assert run_cli("simulate", "--config", "cfg.json", "--ascii", "--out", "sim") == 0
    out = capsys.readouterr().out
    art = Path("sim", "colorfield.txt").read_bytes()
    assert hashlib.sha256(art).hexdigest() == "1c21f65b515ce1950b8ce4830d742ee697ded7a65049596e5ecb716a57d39a54"
    assert hashlib.sha256(out.encode()).hexdigest() == "12496292dcd4fb4f1c1953dd32c7e8b50a6a4d187c21c287f40da48335ceb684"


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


def test_bad_model_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    missing_g21 = {
        "model": "simple", "q": 2, "b": 0.2, "kappa": 0.1, "g": {"1,2": [0.8, 0.2]},
        "seed": 1, "x_lo": -4, "x_hi": 4, "steps": 1,
    }
    full_g = {"1,2": [0.8, 0.2], "2,1": [0.3, 0.7]}
    potts = {"model": "potts", "q": 3, "seed": 1, "x_lo": -4, "x_hi": 4, "steps": 1}
    for text in (
        json.dumps(potts),
        json.dumps({"model": "lv", "seed": 1}),
        "{not json",
        json.dumps(missing_g21),
        json.dumps({**missing_g21, "g": {"1,2": ["a", 0.2], "2,1": [0.3, 0.7]}}),
        json.dumps({**missing_g21, "g": {**full_g, "1,1": [1.0, 0.0]}}),
        json.dumps({**missing_g21, "g": {**full_g, "7,1": [0.5, 0.5]}}),
        json.dumps({**missing_g21, "g": full_g, "p": "ab"}),
        json.dumps({**missing_g21, "g": full_g, "lam": 5}),
        json.dumps({**missing_g21, "g": full_g, "b": math.nan}),
        json.dumps({**potts, "beta": math.inf}),
        # the model is read from the top level only
        json.dumps({"model_config": {**potts, "beta": 1.0}, "seed": 1, "x_lo": -4, "x_hi": 4, "steps": 1}),
        b"\xff\xfe",
    ):
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "y") == 2
        assert_one_line_error(capsys, tmp_path / "y")
    out = tmp_path / "ds"
    cfg.write_text(json.dumps({**missing_g21, "points": [[-1, 2], [1, 2]], "trials": 10}))
    assert run_cli("dual-sample", "--config", cfg, "--out", out) == 2
    assert_one_line_error(capsys, out)


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
    digests = {
        "full.json": "4ffef353577fa7d49ebe3f5e53aa0cb47b6522a390ff47fd2e47d1a201327858",
        "reduced.json": "ca1a4325771463347a6cc01cdeff869729cc54fca855931ce7f458eee6aa9624",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / "rgf" / name).read_bytes()).hexdigest() == digest, name
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


def test_simulate_negative_steps_is_config_error(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--beta", "1.5", "--q", "3", "--x-lo", "-10", "--x-hi", "10",
                   "--steps", "-5", "--seed", "1", "--out", out)
    assert code == 2
    assert_one_line_error(capsys, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--beta", "1000", "--q", "3", "--x-lo", "-4", "--x-hi", "4", "--steps", "1", "--seed", "1"],
        ["simulate", "--beta", "inf", "--q", "3", "--x-lo", "-4", "--x-hi", "4", "--steps", "1", "--seed", "1"],
        ["simulate", "--beta", "1.0", "--q", "2000000", "--x-lo", "-4", "--x-hi", "4", "--steps", "1", "--seed", "1"],
        ["potts-params", "--beta", "1000", "--q", "3"],
        ["potts-params", "--beta", "inf", "--q", "3"],
    ],
    ids=["simulate-beta-1000", "simulate-beta-inf", "simulate-q-2e6", "potts-params-beta-1000",
         "potts-params-beta-inf"],
)
def test_bad_potts_flags_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", out) == 2
    assert_one_line_error(capsys, out)


_POTTS = {"model": "potts", "beta": 1.0, "q": 2, "seed": 1}
_SCALING = {"schedule": {"q": 2, "eps_levels": [0.5, 0.25], "b": 1.0, "kappa": 2.0}, "trials": 10, "seed": 1}


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["check-duality"], {"trials": "many", "seed": 1}),
        (["scaling-experiment", "--preset", "coarsening"], {"trials_interface": "x", "seed": 1}),
        (["dual-sample"], {**_POTTS, "points": [["a", 2]], "trials": 10}),
        (["dual-sample"], {**_POTTS, "points": [[1.7, 2]], "trials": 10}),
        (["scaling-experiment"], {**_SCALING, "points": [["a", 0.3]]}),
        (["scaling-experiment"], {**_SCALING, "points": [[None, 0.3]]}),
        (["scaling-experiment"], {**_SCALING, "points": [[math.nan, 0.3]]}),
        (["scaling-experiment"], {**_SCALING, "points": [[True, 0.3]]}),
        (["scaling-experiment"],
         {**_SCALING, "schedule": {**_SCALING["schedule"], "eps_levels": [math.nan]}, "points": [[0.5, 0.3]]}),
        (["scaling-experiment"], {**_SCALING, "points": [[0.5, 0.3]], "trials": 0}),
        (["scaling-experiment", "--preset", "coarsening"], {"trials_interface": 1, "seed": 1}),
        (["scaling-experiment", "--preset", "coarsening"], {"trials_interface": 2, "trials_marginal": 0, "seed": 1}),
        (["scaling-experiment"], {**_SCALING, "points": []}),
        (["scaling-experiment"], {**_SCALING, "schedule": {**_SCALING["schedule"], "lam": []}, "points": [[0.5, 0.3]]}),
        (["scaling-experiment"], {**_SCALING, "preset": "coarsenin", "points": [[0.5, 0.3]]}),
        (["scaling-experiment"],
         {**_SCALING, "schedule": {**_SCALING["schedule"], "lamb": [0.9, 0.1]}, "points": [[0.5, 0.3]]}),
    ],
    ids=["check-duality-trials", "coarsening-trials-interface", "points-string", "points-float",
         "continuum-point-string", "continuum-point-null", "continuum-point-nan", "continuum-point-bool",
         "eps-level-nan", "scaling-zero-trials", "coarsening-one-interface-trial", "coarsening-zero-marginal-trials",
         "scaling-empty-points", "scaling-empty-lam", "unknown-config-preset", "scaling-schedule-unknown-key"],
)
def test_bad_integer_config_field_is_config_error(tmp_path, capsys, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run_cli(*argv, "--config", path, "--out", out) == 2
    assert_one_line_error(capsys, out)


def test_coarsening_checks_both_trial_floors_before_any_experiment(tmp_path, capsys, monkeypatch):
    def no_experiment(*args, **kwargs):
        raise AssertionError("an experiment ran before the marginal floor was checked")

    monkeypatch.setattr(scaling, "_run_levels", no_experiment)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials_marginal": 0, "seed": 1}))
    out = tmp_path / "run"
    assert run_cli("scaling-experiment", "--preset", "coarsening", "--config", path, "--out", out) == 2
    assert_one_line_error(capsys, out)


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify-all", "--seed", "1"),
        ("check-duality", "--trials", "10000", "--seed", "1"),
        ("scaling-experiment", "--preset", "coarsening", "--seed", "1"),
    ],
    ids=["verify-all", "check-duality", "scaling-experiment"],
)
def test_workers_below_one_is_config_error(tmp_path, capsys, argv, workers):
    out = tmp_path / "run"
    assert run_cli(*argv, "--workers", workers, "--out", out) == 2
    assert_one_line_error(capsys, out)


def test_check_duality_too_few_trials_is_config_error(tmp_path, capsys):
    out = tmp_path / "cd"
    assert run_cli("check-duality", "--trials", "0", "--seed", "2", "--out", out) == 2
    assert_one_line_error(capsys, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all", "--gof-trials", "5"],
        ["dual-sample", "--beta", "1.0", "--q", "2", "--trials", "10", "--points", "1"],
        ["dual-sample", "--beta", "1.0", "--q", "2", "--trials", "10", "--points", "1,2,3"],
        ["dual-sample", "--beta", "1.0", "--q", "2", "--trials", "10", "--points", "1,2 3"],
    ],
    ids=["verify-all-gof-trials-5", "points-one-number", "points-three-numbers", "points-short-second"],
)
def test_bad_flag_value_is_config_error_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run_cli(*argv, "--seed", "2", "--out", out) == 2
    assert_one_line_error(capsys, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--beta", "1.5", "--q", "3", "--x-lo", "-4", "--x-hi", "4", "--steps", "2", "--workers", "7"],
        ["dual-sample", "--beta", "1.0", "--q", "2", "--points", "1,2", "--trials", "10", "--workers", "7"],
        ["reduce-graph", "--fixture", FIXTURES / "branching_demo_dag.json", "--workers", "7"],
        ["reduce-graph", "--fixture", FIXTURES / "branching_demo_dag.json", "--config", "/nonexistent.json"],
        ["verify-all", "--config", "/nonexistent.json"],
    ],
    ids=["simulate-workers", "dual-sample-workers", "reduce-graph-workers", "reduce-graph-config",
         "verify-all-config"],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, argv):
    out = tmp_path / "run"
    assert run_cli(*argv, "--seed", "1", "--out", out) == 2
    assert not out.exists()


def _dag_with_root_edge(child: int) -> str:
    doc = json.loads(DAG_TEXT)
    assert doc["edges"][4] == {"parent": 3, "child": 5, "multiplicity": 1}  # root (1,4) -> (2,3)
    doc["edges"][4]["child"] = child
    return json.dumps(doc)


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--fixture", _dag_with_root_edge(3)),
        ("--fixture", _dag_with_root_edge(99)),
        ("--fixture", DAG_TEXT[: len(DAG_TEXT) // 2]),
        ("--field-fixture", ""),
        ("--field-fixture", FIELD_TEXT.replace("-4 4 0 4", "-4 4 0 four", 1)),
        ("--field-fixture", FIELD_TEXT.replace("LLBL", "LLQL", 1)),
        ("--field-fixture", FIELD_TEXT.replace(" backward", "", 1)),
        ("--fixture", b"\xff\xfe"),
        ("--field-fixture", b"\xff\xfe"),
    ],
    ids=["root-to-root-edge", "edge-index-out-of-range", "truncated-json",
         "empty-field", "non-integer-header", "unknown-outcome-letter",
         "header-without-backward", "dag-not-utf8", "field-not-utf8"],
)
def test_reduce_graph_malformed_fixture_is_config_error(tmp_path, capsys, flag, text):
    fixture = tmp_path / "fixture"
    fixture.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "rg"
    code = run_cli("reduce-graph", flag, fixture, "--root", "1,4", "--out", out, "--seed", "0")
    assert code == 2
    assert_one_line_error(capsys, out)


def _splice(text: str, lo: int, hi: int, insert: str) -> str:
    return text[:lo] + insert + text[hi:]


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _leaf_paths(v, path + (k,))] + [path]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _leaf_paths(v, path + (i,))] + [path]
    return [path]


def _replaced(doc, path, value):
    """``doc`` with the value at ``path`` replaced; an empty path replaces it all."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _dag_with_value(path, value) -> str:
    return json.dumps(_replaced(json.loads(DAG_TEXT), path, value))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_FIXTURE_LIKE_TEXT = st.one_of(
    st.text(),
    st.builds(_splice, st.sampled_from([DAG_TEXT, FIELD_TEXT]), st.integers(0, 1200),
              st.integers(0, 1200), st.text(max_size=4)),
    st.builds(_dag_with_value, st.sampled_from(_leaf_paths(json.loads(DAG_TEXT))), _JSON_VALUES),
)


@pytest.mark.parametrize("parse", [dag_from_json, ArrowField.from_text], ids=["dag", "field"])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_FIXTURE_LIKE_TEXT)
def test_fixture_parsers_raise_only_package_errors(parse, text):
    try:
        parse(text)
    except VmpNetError:
        pass


# A valid q builds q^2 boundary rows of q weights, so in-range integers stay small.
_CONFIG_INTS = st.integers(-3, 8) | st.integers(min_value=MAX_COLORS + 1) | st.integers(max_value=-4)
_CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | _CONFIG_INTS | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["1,1", "7,1", "2,1"]), inner, max_size=3),
    max_leaves=8,
)
_VALID_MODELS = [
    {"model": "potts", "beta": 1.0, "q": 3},
    {"model": "simple", "q": 2, "b": 0.2, "kappa": 0.1, "g": {"1,2": [0.8, 0.2], "2,1": [0.3, 0.7]},
     "lam": [0.6, 0.4], "p": [0.5, 0.5]},
]
_MODEL_CONFIGS = st.one_of(
    st.dictionaries(st.text(max_size=6), _CONFIG_VALUES, max_size=4),
    st.builds(
        lambda where, value: _replaced(copy.deepcopy(_VALID_MODELS[where[0]]), where[1], value),
        st.sampled_from([(i, path) for i, doc in enumerate(_VALID_MODELS) for path in _leaf_paths(doc)]),
        _CONFIG_VALUES,
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cfg=_MODEL_CONFIGS)
def test_parse_model_raises_only_package_errors(cfg):
    try:
        parse_model(cfg)
    except VmpNetError:
        pass
