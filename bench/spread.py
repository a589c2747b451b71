"""Repeat ``bench/run.py`` over several seeds and summarise each metric.

    python3 bench/spread.py --runs 10 --seconds 55 [--workload codes ...] [--out FILE]

For every workload it runs the benchmark once per seed (1..runs) untraced,
then once traced, and reports for each end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  ``--out`` writes every run's result line and context
as JSON; ``bench/baseline.json`` was made this way at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(context, result) of one ``run.py`` invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(BENCH_DIR), capture_output=True, text=True, timeout=300,
        check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def summary(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(workloads.COMPOSITES),
                        choices=tuple(workloads.COMPOSITES))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args(argv)

    record = {}
    for workload in args.workload:
        runs = [bench_run(workload, seed, args.seconds, 0)
                for seed in range(1, args.runs + 1)]
        results = [r for _, r in runs]
        entry = {"runs": [{"context": c, "result": r} for c, r in runs],
                 "correct": all(r["correct"] for r in results),
                 "summary": summary(results)}
        for name, s in entry["summary"].items():
            print(f"{workload:10s} {name:12s} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}",
                  flush=True)
        context, traced = bench_run(workload, 0, args.seconds, 1)
        entry["traced"] = {"context": context, "result": traced}
        entry["correct"] = entry["correct"] and traced["correct"]
        print(f"{workload:10s} correct {entry['correct']}", flush=True)
        record[workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if all(e["correct"] for e in record.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
