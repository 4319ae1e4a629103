"""Command-line interface: config validation, reports, exit codes."""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import s4is
from s4is.benchmarks import (BUILTIN_NAMES, EXAMPLE4_LEVELS, METHODS,
                             builtin_problem)
from s4is.cli import (CONFIG_SCHEMA, OUTPUT_FORMATS, build_report,
                      history_rows, main, make_parser, report_csv_rows,
                      report_json, validate_config)
from s4is.errors import ConfigError
from s4is.evaluation import Evaluator, ExternalEvaluator
from s4is.probability import KINDS
from s4is.pipeline import S4isConfig


def _config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _touching_problem(sentinel, marginal=None):
    """An external problem whose child creates ``sentinel`` on start, so
    the file exists only if the run got as far as evaluating g."""
    return {"external": {
        "command": [sys.executable, "-c", f"open({str(sentinel)!r}, 'w').close()"],
        "marginals": [marginal or {"kind": "normal", "mean": 0, "sd": 1}],
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
                                   {"gp_warm_updates": False},
                                   {"n_s1_0": 1}, {"n_c1": 1}])
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


@pytest.mark.parametrize("builtin", [{"name": "example1", "d": 5},
                                     {"name": "example3", "c": 3},
                                     {"name": "example5", "d": 2, "c": 4}])
def test_parameter_the_problem_does_not_take_exits_2_without_evaluation(tmp_path, capsys,
                                                                        builtin):
    payload = {"problem": {"builtin": builtin}, "method": "form"}
    with mock.patch.object(Evaluator, "g_batch") as g_batch, \
            mock.patch.object(Evaluator, "components_at") as components_at:
        assert main(["run", "--config", _config(tmp_path, payload)]) == 2
    key = "c" if "c" in builtin else "d"
    assert f"{builtin['name']} takes no {key}" in capsys.readouterr().err
    assert not g_batch.called and not components_at.called


@pytest.mark.parametrize("block, marginal", [
    ({"cov_target": float("inf")}, None),
    ({}, {"kind": "normal", "mean": float("nan"), "sd": 1}),
    ({}, {"kind": "normal", "mean": float("inf"), "sd": 1}),
    ({}, {"kind": "normal", "mean": float("-inf"), "sd": 1}),
])
def test_non_json_constants_exit_2_without_evaluation(tmp_path, capsys, block, marginal):
    # json.dumps writes NaN, Infinity and -Infinity, which JSON does not have.
    sentinel = tmp_path / "touched"
    payload = {"problem": _touching_problem(sentinel, marginal), "method": "s4is",
               "s4is": block}
    assert main(["run", "--config", _config(tmp_path, payload)]) == 2
    assert "is not a number" in capsys.readouterr().err
    assert not sentinel.exists()


@pytest.mark.parametrize("block, marginal", [
    ({"cov_target": "BIG"}, None),
    ({}, {"kind": "normal", "mean": "BIG", "sd": 1}),
    ({}, {"kind": "normal", "mean": 0, "sd": "BIG"}),
])
def test_number_past_the_float_range_exits_2_without_evaluation(tmp_path, capsys,
                                                                block, marginal):
    # 1e400 is valid JSON, but json reads it as inf; json.dumps cannot write it.
    sentinel = tmp_path / "touched"
    payload = {"problem": _touching_problem(sentinel, marginal), "method": "s4is",
               "s4is": block}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload).replace('"BIG"', "1e400"))
    assert main(["run", "--config", str(path)]) == 2
    assert "1e400 is past the float range" in capsys.readouterr().err
    assert not sentinel.exists()


@pytest.mark.parametrize("token, reason", [
    ("NaN", " is not valid JSON: NaN is not a number"),
    ("1e400", ": 1e400 is past the float range"),
])
def test_rejected_number_is_reported_once(tmp_path, capsys, token, reason):
    # The ConfigError raised inside json.load is not wrapped a second time.
    path = tmp_path / "c.json"
    path.write_text('{"problem": {"builtin": {"name": "example1"}}, "method": "form", '
                    '"s4is": {"eps1": ' + token + '}}')
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}{reason}\n"


def test_nesting_past_the_recursion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"problem": ' + "[" * 100_000 + "]" * 100_000 + ', "method": "form"}')
    assert main(["run", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b'{"method": "form", "seed": "\xff"}',  # Latin-1, not UTF-8
    b'{"replicates": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
], ids=["not_utf8", "nested"])
@pytest.mark.parametrize("command", ["run", "history"])
def test_run_and_history_reject_an_unreadable_json_file_with_exit_2(tmp_path, capsys,
                                                                    command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    argv = ["run", "--config", str(path)] if command == "run" else ["history", str(path)]
    assert main(argv) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["/nonexistent/evaluator"], ["{tmp}"],
                                     [sys.executable, "-c", "\0"]],
                         ids=["missing_file", "directory", "nul_in_argument"])
def test_unstartable_external_command_exits_2(tmp_path, capsys, command):
    payload = {"problem": {"external": {
        "command": [c.format(tmp=tmp_path) for c in command],
        "marginals": [{"kind": "normal", "mean": 0, "sd": 1}]}}, "method": "form"}
    assert main(["run", "--config", _config(tmp_path, payload)]) == 2
    assert "cannot start external command" in capsys.readouterr().err


@pytest.mark.parametrize("change", [{"seed": 1.0}, {"replicates": 1.0},
                                    {"method": "mcs", "mcs": {"n": 100.0}},
                                    {"problem": {"builtin": {"name": "example5", "d": 2.0}}},
                                    {"problem": {"builtin": {"name": "example4", "c": 5.0}}}])
def test_integral_float_for_an_integer_exits_2_without_evaluation(tmp_path, capsys, change):
    # JSON Schema counts 1.0 as an integer; range() and numpy do not.
    sentinel = tmp_path / "touched"
    payload = {"problem": _touching_problem(sentinel), "method": "form", **change}
    assert main(["run", "--config", _config(tmp_path, payload)]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not sentinel.exists()


@pytest.mark.parametrize("marginal", [{"kind": "lognormal", "mean": 1, "sd": 1e300},
                                      {"kind": "uniform", "mean": 0, "sd": 1e308}])
def test_overflowing_marginal_exits_3_without_evaluation(tmp_path, capsys, marginal):
    sentinel = tmp_path / "touched"
    payload = {"problem": _touching_problem(sentinel, marginal), "method": "form"}
    assert main(["run", "--config", _config(tmp_path, payload)]) == 3
    assert "finite" in capsys.readouterr().err
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


@pytest.mark.parametrize("key, bad, override", [("seed", -1, "3"), ("replicates", 0, "1"),
                                                ("method", "bogus", "mcs")])
def test_override_replaces_a_bad_file_value(tmp_path, capsys, key, bad, override):
    # The config is checked once, with the flags over the file's values.
    payload = {"problem": {"builtin": {"name": "example1"}}, "method": "mcs",
               "mcs": {"n": 1000}, key: bad}
    assert main(["run", "--config", _config(tmp_path, payload), f"--{key}", override]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "mcs"
    assert key != "seed" or report["seed"] == 3


def test_override_of_a_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    assert main(["run", "--config", _config(tmp_path, [1]), "--seed", "3"]) == 2
    assert "invalid config" in capsys.readouterr().err


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


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=4)
_VALID_CONFIG = {"problem": {"builtin": {"name": "example4", "c": 5}}, "method": "mcs",
                 "mcs": {"n": 1000}, "seed": 7, "replicates": 2, "output": {"format": "csv"},
                 "s4is": {"n_c2": 100, "cov_target": 0.1}}
_CONFIG_PATHS = [("problem",), ("problem", "builtin"), ("problem", "builtin", "name"),
                 ("problem", "builtin", "c"), ("problem", "builtin", "d"), ("method",),
                 ("mcs",), ("mcs", "n"), ("seed",), ("replicates",), ("output", "format"),
                 ("s4is",), *(("s4is", f.name) for f in dataclasses.fields(S4isConfig)),
                 ("bogus",)]
_REMOVE = object()


@st.composite
def _near_valid_configs(draw):
    """A valid config with one to three entries replaced by a near-valid
    value (an integral float, a small int) or any JSON value, or removed."""
    cfg = json.loads(json.dumps(_VALID_CONFIG))
    for *parents, key in draw(st.lists(st.sampled_from(_CONFIG_PATHS), min_size=1, max_size=3)):
        node = cfg
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if isinstance(node, dict):
            value = draw(st.just(_REMOVE) | st.integers(-1, 12)
                         | st.integers(-1, 12).map(float) | _JSON_VALUES)
            if value is _REMOVE:
                node.pop(key, None)
            else:
                node[key] = value
    return cfg


def test_config_schema_is_a_valid_schema():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cfg=_near_valid_configs())
def test_near_valid_configs_validate_or_raise_config_error(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        return
    # What the schema calls an integer reaches range() and numpy as an int.
    integers = [cfg.get("seed", 0), cfg.get("replicates", 1), cfg.get("mcs", {}).get("n", 1),
                *(v for k, v in cfg["problem"]["builtin"].items() if k != "name")]
    assert all(type(v) is int for v in integers)


# JSON values whose integers stay small, so a config they leave valid
# still runs cheaply.
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=2),
    max_leaves=3)
# Externals that break the schema or name no program: none starts a process.
_UNSTARTABLE = {"external": {"command": ["/nonexistent/evaluator"],
                             "marginals": [{"kind": "normal", "mean": 0, "sd": 1}]}}
_BROKEN_EXTERNALS = st.sampled_from([
    {"external": {"command": [], "marginals": [{"kind": "normal", "mean": 0, "sd": 1}]}},
    {"external": {"command": "python", "marginals": []}},
    {"external": {"command": [1]}},
    _UNSTARTABLE])


@st.composite
def _cli_configs(draw):
    """A cheap valid run config (mcs with n <= 1000 or form, on a built-in
    problem with d <= 12, at most two replicates), then up to three entries
    removed or replaced by a near-valid value: a wrong type, a switch, an
    integral float, an out-of-range number, a broken external problem."""
    name = draw(st.sampled_from(BUILTIN_NAMES))
    builtin = {"name": name}
    if name == "example4":
        builtin["c"] = draw(st.sampled_from(EXAMPLE4_LEVELS))
    if name == "example5":
        builtin["d"] = draw(st.integers(1, 12))
    cfg = {"problem": {"builtin": builtin}, "method": draw(st.sampled_from(["mcs", "form"])),
           "mcs": {"n": draw(st.integers(1, 1000))}, "seed": draw(st.integers(0, 2**70)),
           "replicates": draw(st.integers(1, 2)), "s4is": {"n_c2": 100, "cov_target": 0.1},
           "output": draw(st.fixed_dictionaries({}, optional={
               "format": st.sampled_from(OUTPUT_FORMATS),
               "path": st.sampled_from(["out", "missing/out"])}))}
    paths = _CONFIG_PATHS + [("output", "path")]
    for *parents, key in draw(st.lists(st.sampled_from(paths), max_size=3)):
        node = cfg
        for parent in parents:
            node = node.get(parent) if isinstance(node, dict) else None
        if isinstance(node, dict):
            value = draw(st.just(_REMOVE) | _BROKEN_EXTERNALS | st.integers(-1, 2)
                         | st.integers(-1, 2).map(float) | _SMALL_JSON)
            if value is _REMOVE:
                node.pop(key, None)
            elif key != "method" or value not in ("akis", "s4is"):  # the costly runs
                node[key] = value
    return cfg


_CLI_OPTIONS = st.lists(st.sampled_from([
    ["--seed", "3"], ["--seed", "-1"], ["--seed", "x"], ["--replicates", "2"],
    ["--replicates", "0"], ["--method", "form"], ["--method", "mcs"],
    ["--format", "csv"], ["--format", "both"], ["--output", "out"],
    ["--output", "missing/out"]]), max_size=2)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(cfg=_cli_configs(), options=_CLI_OPTIONS)
# A missing output directory used to surface as an uncaught
# FileNotFoundError (exit 1) after the run had spent its g calls.
@example(cfg={"problem": {"builtin": {"name": "example1"}}, "method": "mcs",
              "mcs": {"n": 1}, "seed": 0, "replicates": 1,
              "s4is": {"n_c2": 100, "cov_target": 0.1},
              "output": {"format": "json", "path": "missing/out"}}, options=[])
# An external command that cannot be started raised FileNotFoundError (exit 1).
@example(cfg={"problem": _UNSTARTABLE, "method": "form"}, options=[])
def test_cli_exits_0_2_or_3_and_exit_2_spends_no_g_call(cfg, options):
    calls = []

    def counted(method):
        def wrapper(self, *args):
            calls.append(method.__name__)
            return method(self, *args)
        return wrapper

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(Evaluator, "components_at", counted(Evaluator.components_at)), \
            mock.patch.object(Evaluator, "g_batch", counted(Evaluator.g_batch)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if isinstance(cfg.get("output", {}).get("path"), str):
            cfg["output"]["path"] = os.path.join(tmp, cfg["output"]["path"])
        argv = ["run", "--config", _config(Path(tmp), cfg)]
        for option, value in options:
            argv += [option, os.path.join(tmp, value) if option == "--output" else value]
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse rejects an option
            code = exit_.code
    assert code in (0, 2, 3)
    assert code != 2 or not calls


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
    ({"replicates": [{"replicate": 0, "stages": {
        "stage1": {"pf_history": 5, "cov_history": [], "n_eval_history": []},
        "stage2": {"pf_history": [], "cov_history": [], "n_eval_history": []}}}]},
     "replicate 0 stage1 pf_history, cov_history, n_eval_history are not lists"),
    ({"replicates": [{"replicate": 0, "stages": {
        "stage1": {"pf_history": [0.1], "cov_history": [None], "n_eval_history": [12]},
        "stage2": {"pf_history": [0.1, 0.2], "cov_history": [0.3], "n_eval_history": [13, 14]}}}]},
     "replicate 0 stage2 pf_history, cov_history, n_eval_history are not lists"),
], ids=["config", "list", "stage_without_pf_history", "history_not_a_list",
        "histories_of_different_lengths"])
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


@pytest.mark.parametrize("output, fmt", [("missing/out.json", "json"),
                                         ("missing/out", "both"), (".", "csv")])
def test_unwritable_output_exits_2_without_evaluation(tmp_path, capsys, output, fmt):
    sentinel = tmp_path / "touched"
    payload = {"problem": _touching_problem(sentinel), "method": "form"}
    argv = ["--output", str(tmp_path / output), "--format", fmt]
    assert main(["run", "--config", _config(tmp_path, payload), *argv]) == 2
    assert "not a file in an existing directory" in capsys.readouterr().err
    assert not sentinel.exists()


def test_history_to_a_missing_directory_exits_2(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["run", "--config", _config(tmp_path, BASE), "--output", str(report)]) == 0
    assert main(["history", str(report), "--output", str(tmp_path / "missing/h.csv")]) == 2
    assert "not a file in an existing directory" in capsys.readouterr().err


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
    takes = {"example4": {"c": EXAMPLE4_LEVELS[0]}, "example5": {"d": 2}}
    for name in BUILTIN_NAMES:
        assert builtin_problem(name, **takes.get(name, {})) is not None
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


def test_external_reply_timeout_exits_3(tmp_path, capsys):
    child = tmp_path / "child.py"
    child.write_text("import sys, time\n"
                     "sys.stdin.readline()\n"
                     "time.sleep(60)\n")
    payload = {
        "problem": {"external": {
            "command": [sys.executable, str(child)],
            "marginals": [{"kind": "normal", "mean": 0, "sd": 1},
                          {"kind": "normal", "mean": 0, "sd": 1}],
            "timeout_s": 0.5,
        }},
        "method": "form",
    }
    t0 = time.perf_counter()
    assert main(["run", "--config", _config(tmp_path, payload)]) == 3
    assert time.perf_counter() - t0 < 10.0
    assert "no reply within 0.5 s" in capsys.readouterr().err


@pytest.mark.parametrize("timeout_s", [0, -2, "5", None, 1e10])
def test_bad_external_timeout_exits_2_without_evaluation(tmp_path, capsys, timeout_s):
    sentinel = tmp_path / "touched"
    problem = _touching_problem(sentinel)
    problem["external"]["timeout_s"] = timeout_s
    assert main(["run", "--config", _config(tmp_path, {"problem": problem,
                                                         "method": "form"})]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not sentinel.exists()
