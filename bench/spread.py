"""Run bench/run.py over several seeds and summarise each metric.

    python3 bench/spread.py --seeds 1-10 [--trace 0|1] [--out bench/baseline.json]

Every workload of BENCHMARK.json runs once per seed, for its ``run_seconds``;
the workloads take turns seed by seed, so a slow spell of the host falls on
all of them. For every workload and metric it prints the median, the
quartiles and the spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``) and flags end-to-end spreads above a
third of the metric's bound. With ``--out`` it writes the summary to the
section of the file that the trace setting names ("end_to_end" or
"per_layer"), together with the environment block of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    """(env block, result object) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    # A spread relative to a median at or below zero (an overhead that read
    # negative, a layer a workload bypasses) means nothing.
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median > 0 else None,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    names = [w["name"] for w in CONFIG["workloads"]]
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}

    env, ok = None, True
    runs = {name: {"attempted": 0, "failed": 0, "incorrect_runs": 0, "values": {}}
            for name in names}
    for seed in args.seeds:
        for workload in names:
            env_here, result = run_once(workload, seed, args.trace)
            env = env or env_here
            ok &= result["correct"]
            r = runs[workload]
            r["attempted"] += result["attempted"]
            r["failed"] += result["failed"]
            r["incorrect_runs"] += not result["correct"]
            for name, m in result["metrics"].items():
                r["values"].setdefault(name, []).append(m["value"])
            values = ", ".join(f"{n}={m['value']:.6g}"
                               for n, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']}, failed "
                  f"{result['failed']}/{result['attempted']}, {values}", flush=True)

    summary = {}
    for workload, r in runs.items():
        metrics = {name: summarise(values) for name, values in r.pop("values").items()}
        summary[workload] = dict(r, metrics=metrics)
        print(f"{workload}: failed {r['failed']}/{r['attempted']}, "
              f"{r['incorrect_runs']} incorrect runs", flush=True)
        for name, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            if name in bounds and (s["spread"] or 0) > bounds[name] / 3:
                spread += f"  > bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {name:<28} median {s['median']:<12.6g} spread {spread}", flush=True)
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["env"] = env
        data["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds, "seconds": CONFIG["run_seconds"], "workloads": summary}
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
