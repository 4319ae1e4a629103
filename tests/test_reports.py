"""Recorded `build_report` outputs: a refactor that claims to preserve
behaviour must reproduce them.

Each case is a run config; its report is stored under ``tests/data/``.
Strings, integers, booleans and nulls must match exactly, floats to a
relative 1e-9. The two ``mcs`` cases pin crude Monte Carlo at 1e6
samples, on a normal vector and on example5's ten lognormals. The small
``s4is`` blocks force the rarer paths of the refinement loop: CoV-driven
pool growth, ``max_iterations`` in both stages, and ``pool_exhausted``.

Regenerate the fixtures (only for an intended change of behaviour) with
``PYTHONPATH=src python tests/test_reports.py``.
"""

import json
import math
import pathlib

import pytest

from s4is.cli import build_report, report_json, validate_config

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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, cfg in CASES.items():
        validate_config(cfg)
        (DATA / f"report_{name}.json").write_text(report_json(build_report(cfg)),
                                                  encoding="utf-8")
