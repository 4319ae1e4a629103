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
        "unit 0", "unit 1", "this", "other", "this / other"]
    for side in ("this", "other"):
        assert re.search(rf"^{side}: median [\d.]+ s \(quartiles [\d.]+ / [\d.]+\)$",
                         out, re.MULTILINE)
    assert re.search(r"median ratio [\d.]+; this faster in [012] of 2 units$", out)
