"""Check that this checkout writes the same reports as revision REV, byte
for byte.

    python3 scripts/gate.py REV

Extracts REV with ``git archive`` into a temporary directory and copies
this checkout's ``scripts/reports.py`` and ``scripts/example3_g.py`` into
that copy, since older revisions lack them. Then runs ``reports.py`` in
both trees (REV's first) and compares every file the two runs wrote. Each
file that differs, or that only one run wrote, is printed. Exits 0 when
every file matches, 1 on any difference, 2 when git cannot archive REV,
and 3 when ``reports.py`` fails in either tree; stderr then names the tree
and the script's exit status, and no files are compared.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("reports.py", "example3_g.py")


def archive(rev, dest):
    """Extract ``rev`` of this checkout's repository into ``dest``; the
    error git printed, or None."""
    try:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    except OSError as exc:
        return str(exc)
    if tar.returncode != 0:
        return tar.stderr.decode(errors="replace").strip()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)
    return None


def write_reports(tree, out):
    """Run ``tree``'s reports.py, writing into ``out``; its exit status."""
    # Its progress goes to stderr, so stdout holds only the verdict. It puts
    # its tree's src/ on the path; an inherited PYTHONPATH could supply the
    # package to a tree that lacks it, so it is dropped.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(tree / "scripts" / "reports.py"), str(out)],
                          stdout=sys.stderr, env=env).returncode


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare the reports of this checkout with those of REV.")
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        other = tmp / "tree"
        other.mkdir()
        error = archive(rev, other)
        if error is not None:
            print(f"git cannot archive {rev}: {error}", file=sys.stderr)
            return 2
        (other / "scripts").mkdir(exist_ok=True)
        for name in COPIED:
            shutil.copyfile(ROOT / "scripts" / name, other / "scripts" / name)
        for tree, out, name in ((other, "rev", rev), (ROOT, "this", "this checkout")):
            status = write_reports(tree, tmp / out)
            if status != 0:
                print(f"reports.py failed in {name} with exit status {status}",
                      file=sys.stderr)
                return 3
        theirs = {p.name: p.read_bytes() for p in (tmp / "rev").iterdir()}
        ours = {p.name: p.read_bytes() for p in (tmp / "this").iterdir()}
    names = sorted(theirs.keys() | ours.keys())
    differ = [name for name in names if theirs.get(name) != ours.get(name)]
    for name in differ:
        if name not in ours:
            print(f"only at {rev}: {name}")
        elif name not in theirs:
            print(f"only in this checkout: {name}")
        else:
            print(f"differs: {name}")
    if differ:
        print(f"{len(differ)} of {len(names)} files differ from {rev}")
        return 1
    print(f"all {len(names)} files byte-identical to {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
