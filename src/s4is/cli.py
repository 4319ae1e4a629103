"""Command-line front end: JSON-config runs, reference-table reproduction
and per-iteration history extraction.

Exit codes: 0 success, 2 configuration error, 3 runtime analysis error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

import jsonschema
import numpy as np

from . import benchmarks
from .errors import ConfigError, S4isError
from .estimators import relative_error
from .evaluation import external_problem
from .probability import KINDS, Marginal, RandomVector
from .pipeline import S4isConfig

_S4IS_FIELDS = {f.name for f in dataclasses.fields(S4isConfig)}
OUTPUT_FORMATS = ("json", "csv", "both")
_HISTORY_KEYS = ("pf_history", "cov_history", "n_eval_history")

_MARGINAL_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(KINDS)},
        "mean": {"type": "number"},
        "sd": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind", "mean", "sd"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "problem": {
            "type": "object",
            "properties": {
                "builtin": {
                    "type": "object",
                    "properties": {
                        "name": {"enum": list(benchmarks.BUILTIN_NAMES)},
                        "c": {"type": "integer", "enum": list(benchmarks.EXAMPLE4_LEVELS)},
                        "d": {"type": "integer", "minimum": 1},
                    },
                    "required": ["name"],
                    "additionalProperties": False,
                },
                "external": {
                    "type": "object",
                    "properties": {
                        "command": {"type": "array", "minItems": 1,
                                    "items": {"type": "string"}},
                        "marginals": {"type": "array", "minItems": 1,
                                      "items": _MARGINAL_SCHEMA},
                        "timeout_s": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["command", "marginals"],
                    "additionalProperties": False,
                },
            },
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
        },
        "method": {"enum": list(benchmarks.METHODS)},
        "seed": {"type": "integer", "minimum": 0},
        "replicates": {"type": "integer", "minimum": 1},
        "mcs": {
            "type": "object",
            "properties": {"n": {"type": "integer", "minimum": 1}},
            "required": ["n"],
            "additionalProperties": False,
        },
        "s4is": {
            "type": "object",
            "properties": {name: {} for name in sorted(_S4IS_FIELDS)},
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": list(OUTPUT_FORMATS)},
            },
            "additionalProperties": False,
        },
    },
    "required": ["problem", "method"],
    "additionalProperties": False,
}

# JSON Schema counts 1.0 as an integer; the seeds and counts the schema
# checks go to range() and numpy, which take ints only. Built once: checking
# the schema itself costs more than checking a config against it.
_CONFIG_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: type(value) is int))(CONFIG_SCHEMA)


def _read_json(path):
    """The JSON document in the file at ``path``, for ``run`` and
    ``history`` alike. A file that cannot be read, is not UTF-8 or is not
    JSON (NaN, a number past the float range, nesting past the recursion
    limit) raises ConfigError."""
    def reject(token):
        # json accepts these tokens; JSON does not.
        raise ConfigError(f"{path} is not valid JSON: {token} is not a number")

    def finite(token):
        # A literal past the float range, such as 1e400, would read as inf.
        if math.isinf(value := float(token)):
            raise ConfigError(f"{path}: {token} is past the float range")
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject, parse_float=finite)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    # ValueError covers a decoding error and an integer past Python's digit
    # limit; RecursionError, nesting too deep.
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e


def load_config(path):
    """Read and schema-validate a run config; no performance function is
    touched before this returns."""
    raw = _read_json(path)
    validate_config(raw)
    return raw


def validate_config(raw):
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"invalid config: {error.message}") from error
    if raw["method"] == "mcs" and "mcs" not in raw:
        raise ConfigError("method 'mcs' requires an 'mcs' block with 'n'")
    try:
        S4isConfig(**raw.get("s4is", {}))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid s4is block: {e}") from e


def _build_problem(cfg):
    block = cfg["problem"]
    if "builtin" in block:
        b = dict(block["builtin"])
        return benchmarks.builtin_problem(b.pop("name"), **b)
    ext = block["external"]
    marginals = RandomVector(tuple(
        Marginal(m["kind"], m["mean"], m["sd"]) for m in ext["marginals"]))
    return external_problem(ext["command"], marginals, ext.get("timeout_s"))


def build_report(cfg):
    """Execute the configured analysis and assemble the JSON-ready report.
    Every problem component with a ``close`` method (an external evaluator)
    is closed before this returns or raises."""
    method = cfg["method"]
    seed = cfg.get("seed", 0)
    n_rep = cfg.get("replicates", 1)
    rng = np.random.default_rng(seed)
    s4cfg = S4isConfig(**cfg.get("s4is", {}))
    mcs_n = cfg.get("mcs", {}).get("n")
    replicates = []
    problem = _build_problem(cfg)
    try:
        for i in range(n_rep):
            est, result = benchmarks.run_method(method, problem, s4cfg, rng, mcs_n)
            entry = {"replicate": i, **est.to_dict()}
            if result is not None:
                entry["stages"] = {"stage1": result.stage1.to_dict(),
                                   "stage2": result.stage2.to_dict()}
            replicates.append(entry)
    finally:
        for component in problem.components:
            if hasattr(component, "close"):
                component.close()
    mean_pf = float(np.mean([r["pf"] for r in replicates]))
    covs = [r["cov"] for r in replicates if r["cov"] is not None]
    aggregate = {
        "mean_pf": mean_pf,
        "mean_cov": float(np.mean(covs)) if covs else None,
        "mean_n_eval": float(np.mean([r["n_eval"] for r in replicates])),
    }
    if problem.reference_pf is not None:
        aggregate["reference_pf"] = problem.reference_pf
        aggregate["reference_source"] = problem.reference_source
        aggregate["eps_r"] = relative_error(problem.reference_pf, mean_pf)
    return {
        "method": method,
        "problem": {"name": problem.name, "dim": problem.dim},
        "seed": seed,
        "replicates": replicates,
        "aggregate": aggregate,
    }


def report_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_csv_rows(report):
    """One row per replicate."""
    rows = [("replicate", "pf", "cov", "n_eval", "n_samples")]
    for r in report["replicates"]:
        rows.append((r["replicate"], repr(r["pf"]),
                     "" if r["cov"] is None else repr(r["cov"]),
                     r["n_eval"], r["n_samples"]))
    return rows


def history_rows(report):
    """Tidy per-iteration series: stage, iteration, pf, cov, cumulative
    N_eval — one row per recorded iteration of each stage."""
    rows = [("stage", "iteration", "pf", "cov", "n_eval_cumulative")]
    replicates = report.get("replicates") if isinstance(report, dict) else None
    if not isinstance(replicates, list):
        raise ConfigError("not an s4is report: no top-level 'replicates' list")
    found = False
    for k, r in enumerate(replicates):
        stages = r.get("stages") if isinstance(r, dict) else None
        if not stages:
            continue
        found = True
        for stage_name in ("stage1", "stage2"):
            s = stages.get(stage_name) if isinstance(stages, dict) else None
            missing = [key for key in _HISTORY_KEYS
                       if not isinstance(s, dict) or key not in s]
            if missing:
                raise ConfigError(f"not an s4is report: replicate {k} {stage_name} "
                                  f"has no {', '.join(missing)}")
            series = [s[key] for key in _HISTORY_KEYS]
            if not all(isinstance(x, list) for x in series) or len(set(map(len, series))) > 1:
                raise ConfigError(f"not an s4is report: replicate {k} {stage_name} "
                                  f"{', '.join(_HISTORY_KEYS)} are not lists of one length")
            for i, (pf, cov, n) in enumerate(zip(*series)):
                rows.append((stage_name, i, repr(pf),
                             "" if cov is None else repr(cov), n))
    if not found:
        raise ConfigError("report contains no stage histories "
                          "(only s4is runs record them)")
    return rows


def _check_output(path):
    """Reject an output path that cannot name a file, before any g call."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"cannot write {path}: not a file in an existing directory")


def _write(path, content):
    """Write ``content``, a text or CSV rows, to ``path``, or to stdout when
    there is no path. Newlines are written as given."""
    with open(path, "w", newline="", encoding="utf-8") if path \
            else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            csv.writer(fh).writerows(content)


def cmd_run(args):
    cfg = load_config(args.config)
    for key in ("seed", "replicates", "method"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    validate_config(cfg)  # the overrides obey the config schema too
    out = cfg.get("output", {})
    path = args.output or out.get("path")
    fmt = args.format or out.get("format", "json")
    if fmt == "both" and not path:
        raise ConfigError("format 'both' writes two files and needs an output path")
    targets = {kind: path + "." + kind if fmt == "both" else path
               for kind in ("json", "csv") if fmt in (kind, "both")}
    for target in targets.values():
        _check_output(target)
    report = build_report(cfg)
    render = {"json": report_json, "csv": report_csv_rows}
    for kind, target in targets.items():
        _write(target, render[kind](report))
    return 0


def cmd_reproduce(args):
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be >= 1, got {args.replicates}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    ids = benchmarks.EXAMPLE_IDS if args.example == "all" else (args.example,)
    failed = False
    for example_id in ids:
        exp = benchmarks.reference_table(example_id, replicates=args.replicates)
        rng = np.random.default_rng(args.seed)
        report = benchmarks.run_experiment(exp, rng)
        print(report.format_table())
        print()
        failed = failed or not report.all_passed
    return 1 if failed else 0


def cmd_history(args):
    report = _read_json(args.report)
    _check_output(args.output)
    _write(args.output, history_rows(report))
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="s4is",
        description="Two-stage surrogate-based importance sampling for "
                    "structural reliability analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured analysis")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--replicates", type=int)
    p_run.add_argument("--method", choices=benchmarks.METHODS)
    p_run.add_argument("--output")
    p_run.add_argument("--format", choices=OUTPUT_FORMATS)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce",
                           help="re-run a reference comparison table")
    p_rep.add_argument("example",
                       choices=list(benchmarks.EXAMPLE_IDS) + ["all"])
    p_rep.add_argument("--replicates", type=int, default=10)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.set_defaults(func=cmd_reproduce)

    p_hist = sub.add_parser("history",
                            help="extract per-iteration pf/CoV series as CSV")
    p_hist.add_argument("report")
    p_hist.add_argument("--output")
    p_hist.set_defaults(func=cmd_history)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except S4isError as e:
        print(f"analysis failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
