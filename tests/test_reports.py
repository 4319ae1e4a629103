"""Recorded `build_report` outputs: a refactor that claims to preserve
behaviour must reproduce them.

Each case is a run config; its report is stored under ``tests/data/``.
Strings, integers, booleans and nulls must match exactly, floats to a
relative 1e-9. The two ``mcs`` cases pin crude Monte Carlo at 1e6
samples, on a normal vector and on example5's ten lognormals; the
``form`` case has no CoV, so its replicate's ``cov`` is null. The small
``s4is`` blocks force the rarer paths of the refinement loop: CoV-driven
pool growth, ``max_iterations`` in both stages, and ``pool_exhausted``.

Regenerate the fixtures (only for an intended change of behaviour) with
``PYTHONPATH=src python tests/test_reports.py``.
"""

import json
import math
import pathlib

import pytest

from s4is import benchmarks
from s4is.cli import build_report, report_json, validate_config
from s4is.estimators import ReliabilityEstimate
from s4is.pipeline import S4isResult, StageReport

DATA = pathlib.Path(__file__).parent / "data"


def _cfg(method, builtin, **s4is):
    cfg = {"problem": {"builtin": builtin}, "method": method, "seed": 7}
    if s4is:
        cfg["s4is"] = s4is
    return cfg


def _mcs(builtin):
    return dict(_cfg("mcs", builtin), mcs={"n": 1_000_000})


CASES = {
    "mcs_example1": _mcs({"name": "example1"}),
    "mcs_example5_d10": _mcs({"name": "example5", "d": 10}),
    "form_example1": _cfg("form", {"name": "example1"}),
    "akis_example1": _cfg("akis", {"name": "example1"}),
    "s4is_example1": _cfg("s4is", {"name": "example1"}),
    "s4is_example5_d10": _cfg("s4is", {"name": "example5", "d": 10}),
    "s4is_pool_growth": _cfg("s4is", {"name": "example4", "c": 5},
                             n_c2=200, max_iter2=4, pool_growth_limit=5),
    "s4is_max_iterations": _cfg("s4is", {"name": "example1"},
                                max_iter1=5, max_iter2=5),
    "s4is_pool_exhausted": _cfg("s4is", {"name": "example3"},
                                n_c1=16, n_s1_0=12, n_c2=5),
}


def _assert_same(got, want, path="report"):
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), \
            f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_recording(name):
    cfg = CASES[name]
    validate_config(cfg)
    # Round-trip through JSON so the comparison sees what `s4is run` prints.
    got = json.loads(report_json(build_report(cfg)))
    want = json.loads((DATA / f"report_{name}.json").read_text(encoding="utf-8"))
    _assert_same(got, want)


def test_recordings_cover_the_rare_loop_paths():
    def stages(name):
        report = json.loads((DATA / f"report_{name}.json").read_text(encoding="utf-8"))
        return report["replicates"][0]["stages"]

    assert stages("s4is_example5_d10")["stage1"]["termination"] == "form_seed"
    grown = stages("s4is_pool_growth")["stage2"]["notes"]
    assert grown["pool_enlargements"] > 0 and grown["cov_target_missed"] is True
    capped = stages("s4is_max_iterations")
    assert capped["stage1"]["termination"] == "max_iterations"
    assert capped["stage2"]["termination"] == "max_iterations"
    exhausted = stages("s4is_pool_exhausted")
    assert exhausted["stage1"]["termination"] == "pool_exhausted"
    assert exhausted["stage2"]["termination"] == "pool_exhausted"
    assert exhausted["stage2"]["notes"]["cov_target_missed"] is True


def test_every_nan_in_a_stage_is_written_as_null(monkeypatch):
    # No recorded run has an undefined CoV inside a history: a stand-in
    # run_method returns one, and a NaN note, through the real writer.
    nan = math.nan
    est = ReliabilityEstimate(pf=0.0, variance=0.0, cov=nan, n_eval=3, n_samples=10)
    stage = StageReport([0.0, 0.5, 0.25], [nan, 0.1, nan], [1, 2, 3], est, 3, "converged",
                        initial_pf=nan, notes={"beta": nan, "k_reduced_to": 1})
    result = S4isResult(est, stage, stage)
    monkeypatch.setattr(benchmarks, "run_method", lambda *args: (est, result))
    text = report_json(build_report(_cfg("s4is", {"name": "example1"})))
    assert "NaN" not in text
    replicate = json.loads(text)["replicates"][0]
    assert replicate["cov"] is None and replicate["variance"] == 0.0
    for written in replicate["stages"].values():
        assert written["pf_history"] == [0.0, 0.5, 0.25]
        assert written["cov_history"] == [None, 0.1, None]
        assert written["n_eval_history"] == [1, 2, 3]
        assert written["initial_pf"] is None and written["final"]["cov"] is None
        assert written["notes"] == {"beta": None, "k_reduced_to": 1}
    # The writer leaves the run's own records as they were.
    assert math.isnan(stage.cov_history[0]) and math.isnan(stage.notes["beta"])


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, cfg in CASES.items():
        validate_config(cfg)
        (DATA / f"report_{name}.json").write_text(report_json(build_report(cfg)),
                                                  encoding="utf-8")
