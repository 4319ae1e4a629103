"""Example3's performance function as an external evaluator.

    python3 scripts/example3_g.py

Reads one request ``{"id": n, "theta": [t1, t2]}`` per line on stdin and
writes one reply ``{"id": n, "g": value}`` per line on stdout, the
protocol of ``s4is.evaluation.ExternalEvaluator``, until stdin ends. The
value is that of the built-in example3's component on the same one-row
array, so it has the same bits. With example3's marginals, normal (1.5, 1)
and normal (2.5, 1), it is example3 served by a child process;
``scripts/reports.py`` runs it that way.
"""

import json
import sys

import numpy as np


def g(t):
    t1, t2 = t[:, 0], t[:, 1]
    return -((t1**2 + 4) * (t2 - 1)) / 20 + np.sin(2.5 * t1) + 2


def main():
    for line in sys.stdin.buffer:
        req = json.loads(line)
        value = float(g(np.array([req["theta"]], dtype=float))[0])
        sys.stdout.write(json.dumps({"id": req["id"], "g": value}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
