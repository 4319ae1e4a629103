"""Smoke tests of the command-line scripts under scripts/."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_paired_timing_of_a_checkout_against_itself():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired.py"), str(ROOT), "--units", "2"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "unit 0", "unit 1", "this", "other", "this minor faults", "other minor faults",
        "this peak RSS", "other peak RSS", "this / other"]
    for unit in (0, 1):
        assert re.search(rf"^unit {unit}: this [\d.]+ s \d+ faults, other [\d.]+ s \d+ faults$",
                         out, re.MULTILINE)
    for side in ("this", "other"):
        assert re.search(rf"^{side}: median [\d.]+ s \(quartiles [\d.]+ / [\d.]+\)$",
                         out, re.MULTILINE)
        assert re.search(rf"^{side} minor faults: median \d+ per unit \(quartiles \d+ / \d+\)$",
                         out, re.MULTILINE)
        assert re.search(rf"^{side} peak RSS: [\d.]+ MB$", out, re.MULTILINE)
    assert re.search(r"median ratio [\d.]+; this faster in [012] of 2 units$", out)


def test_sweep_all_prints_one_row_per_target():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep.py"), "all", "--seeds", "1-1"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    solves = {"s4is_solve": 8, "example5_d10": 5, "example2": 1, "example3": 1,
              "example4_c3": 1, "example4_c4": 1, "linear_d5": 1, "linear_d8": 1,
              "linear_d10": 1, "sphere_d2": 1, "sphere_d4": 1, "curved_d10": 1,
              "branches_d10": 1}
    number = r"[+-]?[\d.]+"
    rows = re.findall(rf"^(\w+) +(\d+) +(\d+) +(\d+) +({number})% +({number})% +({number}) +"
                      rf"(\d+) +{number}$", out, re.MULTILINE)
    assert {row[0]: int(row[1]) for row in rows} == solves, out
    for _, n, out_of_band, flagged, _, sd, mean_n_eval, max_n_eval in rows:
        assert 0 <= int(out_of_band) <= int(n) and 0 <= int(flagged) <= int(n)
        assert float(sd) == 0.0 or int(n) > 1
        assert 0 < float(mean_n_eval) <= int(max_n_eval)


def test_gate_exits_2_when_git_cannot_archive_the_revision():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gate.py"), "no-such-revision"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done
    assert done.stderr.startswith("git cannot archive no-such-revision: "), done.stderr
    assert done.stdout == ""


def test_gate_exits_3_when_a_report_run_fails():
    # git's empty tree archives, but holds no package for reports.py to run.
    empty_tree = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gate.py"), empty_tree],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done
    assert done.stderr.splitlines()[-1].startswith(
        f"reports.py failed in {empty_tree} with exit status "), done.stderr
    assert done.stdout == ""
