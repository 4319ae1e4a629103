"""Command-line interface: config validation, reports, exit codes."""

import csv
import dataclasses
import gc
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import s4is
from s4is.benchmarks import METHODS
from s4is.cli import (CONFIG_SCHEMA, OUTPUT_FORMATS, build_report,
                      history_rows, main, make_parser, report_csv_rows,
                      report_json, validate_config)
from s4is.errors import ConfigError
from s4is.evaluation import (BUILTIN_NAMES, EXAMPLE4_LEVELS, ExternalEvaluator,
                             builtin_problem)
from s4is.probability import KINDS
from s4is.pipeline import S4isConfig


def _config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _touching_problem(sentinel):
    """An external problem whose child creates ``sentinel`` on start, so
    the file exists only if the run got as far as evaluating g."""
    return {"external": {
        "command": [sys.executable, "-c", f"open({str(sentinel)!r}, 'w').close()"],
        "marginals": [{"kind": "normal", "mean": 0, "sd": 1}],
    }}


BASE = {"problem": {"builtin": {"name": "example1"}},
        "method": "s4is", "seed": 7, "replicates": 1}


def test_run_byte_identical_for_fixed_seed(tmp_path, capsys):
    cfg = _config(tmp_path, BASE)
    assert main(["run", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--config", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["aggregate"]["mean_pf"] == pytest.approx(4.46e-3, rel=0.15)


def test_unknown_key_exits_2_without_evaluation(tmp_path, capsys):
    sentinel = tmp_path / "touched"
    payload = {
        "problem": _touching_problem(sentinel),
        "method": "form",
        "bogus": 1,
    }
    assert main(["run", "--config", _config(tmp_path, payload)]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not sentinel.exists()


@pytest.mark.parametrize("block", [{"eps1": -1}, {"a2": 0},
                                   {"strict_candidate_sizing": True},
                                   {"n_c2": "abc"}, {"k_clusters": 0},
                                   {"max_iter1": 2.5}, {"n_c1": True},
                                   {"gp_warm_updates": False}])
def test_bad_s4is_block_exits_2_without_evaluation(tmp_path, capsys, block):
    sentinel = tmp_path / "touched"
    payload = {
        "problem": _touching_problem(sentinel),
        "method": "s4is",
        "s4is": block,
    }
    assert main(["run", "--config", _config(tmp_path, payload)]) == 2
    assert "invalid" in capsys.readouterr().err
    assert not sentinel.exists()


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--replicates", "0"],
                                      ["--replicates", "-2"]])
def test_bad_override_exits_2_without_evaluation(tmp_path, capsys, override):
    # Command-line overrides obey the same schema as the config file.
    sentinel = tmp_path / "touched"
    payload = {"problem": _touching_problem(sentinel), "method": "form"}
    assert main(["run", "--config", _config(tmp_path, payload), *override]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not sentinel.exists()


@pytest.mark.parametrize("option", [["--replicates", "0"], ["--seed", "-1"]])
def test_reproduce_bad_option_exits_2(capsys, option):
    assert main(["reproduce", "example5_d2", *option]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_s4is_block_takes_exactly_the_run_parameters():
    # A new S4isConfig field is a new user-facing knob: add it here on purpose.
    params = ["n_c1", "n_s1_0", "n_c2", "k_clusters", "eps1", "a1", "eps2", "a2",
              "max_iter1", "max_iter2", "cov_target", "pool_growth_limit"]
    assert [f.name for f in dataclasses.fields(S4isConfig)] == params
    assert sorted(CONFIG_SCHEMA["properties"]["s4is"]["properties"]) == sorted(params)


def test_external_evaluator_closed_when_run_returns(tmp_path):
    # The child writes the sentinel 0.2 s after its stdin reaches EOF, so it
    # exists on return only if the run closed the child and waited for it.
    sentinel = tmp_path / "closed"
    child = tmp_path / "child.py"
    child.write_text(
        "import json, sys, time\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    t1, t2 = req['theta']\n"
        "    print(json.dumps({'id': req['id'], 'g': 3.0 - t1 - t2}), flush=True)\n"
        "time.sleep(0.2)\n"
        f"open({str(sentinel)!r}, 'w').close()\n")
    payload = {
        "problem": {"external": {
            "command": [sys.executable, str(child)],
            "marginals": [{"kind": "normal", "mean": 0, "sd": 1},
                          {"kind": "normal", "mean": 0, "sd": 1}],
        }},
        "method": "form",
    }
    assert main(["run", "--config", _config(tmp_path, payload),
                 "--output", str(tmp_path / "report.json")]) == 0
    assert sentinel.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_runtime_failure_exits_3(tmp_path, capsys):
    payload = {
        "problem": {"external": {
            "command": [sys.executable, "-c", "import sys; sys.exit(1)"],
            "marginals": [{"kind": "normal", "mean": 0, "sd": 1},
                          {"kind": "normal", "mean": 0, "sd": 1}],
        }},
        "method": "form",
    }
    assert main(["run", "--config", _config(tmp_path, payload)]) == 3
    assert "analysis failed" in capsys.readouterr().err


def test_runtime_failure_closes_every_pipe(tmp_path, capsys, monkeypatch):
    # The child exits at once; close() sees it exited before it closes the
    # pipes (without the wait, that depends on timing).
    close = ExternalEvaluator.close

    def close_after_exit(self):
        self._proc.wait()
        close(self)

    monkeypatch.setattr(ExternalEvaluator, "close", close_after_exit)
    # A pipe left to the garbage collector warns in its finalizer, where a
    # warning turned into an error reaches sys.unraisablehook.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        test_runtime_failure_exits_3(tmp_path, capsys)
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []


def test_method_mcs_requires_block():
    with pytest.raises(ConfigError):
        validate_config({"problem": {"builtin": {"name": "example1"}},
                         "method": "mcs"})


def test_config_roundtrip_is_stable():
    cfg = dict(BASE, mcs={"n": 1000},
               s4is={"k_clusters": 3}, output={"format": "json"})
    validate_config(cfg)
    again = json.loads(json.dumps(cfg))
    validate_config(again)
    assert again == cfg


def test_schema_rejects_unknown_s4is_field():
    cfg = dict(BASE, s4is={"not_a_knob": 1})
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_report_csv_one_row_per_replicate():
    cfg = dict(BASE, method="mcs", mcs={"n": 10_000}, replicates=3)
    report = build_report(cfg)
    rows = report_csv_rows(report)
    assert rows[0] == ("replicate", "pf", "cov", "n_eval", "n_samples")
    assert len(rows) == 4


def test_history_rows_shape():
    report = build_report(BASE)
    rows = history_rows(report)
    assert rows[0] == ("stage", "iteration", "pf", "cov", "n_eval_cumulative")
    assert all(len(r) == 5 for r in rows)
    stage1 = [r for r in rows[1:] if r[0] == "stage1"]
    stage2 = [r for r in rows[1:] if r[0] == "stage2"]
    assert stage1 and stage2
    # last stage-2 pf equals the report's final pf
    assert float(stage2[-1][2]) == pytest.approx(
        report["replicates"][0]["pf"], rel=1e-12)
    # history lengths match what the stage reports recorded
    s1 = report["replicates"][0]["stages"]["stage1"]
    assert len(stage1) == len(s1["pf_history"])


def test_history_requires_stage_data(tmp_path):
    cfg = dict(BASE, method="mcs", mcs={"n": 1000})
    report = build_report(cfg)
    path = tmp_path / "report.json"
    path.write_text(report_json(report))
    assert main(["history", str(path)]) == 2


def test_history_cli_csv_output(tmp_path):
    cfg = _config(tmp_path, BASE)
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--output", str(out)]) == 0
    hist = tmp_path / "history.csv"
    assert main(["history", str(out), "--output", str(hist)]) == 0
    with open(hist, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["stage", "iteration", "pf", "cov", "n_eval_cumulative"]
    assert len(rows) > 2


@pytest.mark.parametrize("non_report,missing", [
    (BASE, "'replicates'"),  # the run config, not its report
    ([1, 2, 3], "'replicates'"),
    ({"replicates": [{"replicate": 0, "stages": {
        "stage1": {"cov_history": [], "n_eval_history": []},
        "stage2": {"pf_history": [], "cov_history": [], "n_eval_history": []}}}]},
     "replicate 0 stage1 has no pf_history"),
], ids=["config", "list", "stage_without_pf_history"])
def test_history_rejects_a_file_that_is_not_a_report(tmp_path, capsys, non_report,
                                                     missing):
    path = tmp_path / "not_a_report.json"
    path.write_text(json.dumps(non_report))
    assert main(["history", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not an s4is report" in err and missing in err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_run_csv_without_path_writes_rows_to_stdout(tmp_path, capsys, how):
    payload = dict(BASE, method="mcs", mcs={"n": 10_000}, replicates=2)
    argv = ["--format", "csv"] if how == "flag" else []
    if how == "config":
        payload["output"] = {"format": "csv"}
    assert main(["run", "--config", _config(tmp_path, payload), *argv]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    expected = report_csv_rows(build_report(payload))
    assert rows == [[str(v) for v in row] for row in expected]


@pytest.mark.parametrize("how", ["flag", "config"])
def test_run_both_without_path_exits_2_without_evaluation(tmp_path, capsys, how):
    sentinel = tmp_path / "touched"
    payload = {"problem": _touching_problem(sentinel), "method": "form"}
    argv = ["--format", "both"] if how == "flag" else []
    if how == "config":
        payload["output"] = {"format": "both"}
    assert main(["run", "--config", _config(tmp_path, payload), *argv]) == 2
    assert "needs an output path" in capsys.readouterr().err
    assert not sentinel.exists()


def test_seed_override_changes_result(tmp_path, capsys):
    cfg = _config(tmp_path, dict(BASE, method="mcs", mcs={"n": 20_000}))
    assert main(["run", "--config", cfg, "--seed", "1"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["run", "--config", cfg, "--seed", "2"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a["seed"] == 1 and b["seed"] == 2
    assert a["aggregate"]["mean_pf"] != b["aggregate"]["mean_pf"]


def test_schema_is_strict_everywhere():
    assert CONFIG_SCHEMA["additionalProperties"] is False
    assert CONFIG_SCHEMA["properties"]["problem"]["additionalProperties"] is False


def test_schema_enums_are_the_library_constants():
    props = CONFIG_SCHEMA["properties"]
    problem = props["problem"]["properties"]
    builtin = problem["builtin"]["properties"]
    marginal = problem["external"]["properties"]["marginals"]["items"]
    assert builtin["name"]["enum"] == list(BUILTIN_NAMES)
    assert builtin["c"]["enum"] == list(EXAMPLE4_LEVELS)
    assert marginal["properties"]["kind"]["enum"] == list(KINDS)
    assert props["output"]["properties"]["format"]["enum"] == list(OUTPUT_FORMATS)
    assert props["method"]["enum"] == list(METHODS)
    # The constants are what the library and the options accept.
    for name in BUILTIN_NAMES:
        assert builtin_problem(name, c=EXAMPLE4_LEVELS[0], d=2) is not None
    for c in EXAMPLE4_LEVELS:
        assert builtin_problem("example4", c=c).name == f"example4_c{c}"
    with pytest.raises(ConfigError, match="unknown built-in problem"):
        builtin_problem("example6")
    with pytest.raises(ConfigError, match=r"c in \{3, 4, 5\}"):
        builtin_problem("example4", c=6)
    for fmt in OUTPUT_FORMATS:
        args = make_parser().parse_args(["run", "--config", "c.json", "--format", fmt])
        assert args.format == fmt


def test_importing_the_package_does_not_load_scipy_stats():
    src = str(Path(s4is.__file__).resolve().parents[1])
    code = ("import sys; import s4is, s4is.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
