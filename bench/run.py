"""Benchmark entry point: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload codes --seed 0 --seconds 55 --trace 0

A workload joins two parts (``bench/workloads.py``).  A round runs one pass
of each part, and each pass is a fresh interpreter (``bench/pass_run.py``)
that runs the part's instance list once and checks every output.  With
``--trace 0`` rounds repeat until the next one would overrun ``--seconds``
(at least ``MIN_ROUNDS``), set-up-only processes are interleaved with the
passes, and the run prints the end-to-end metrics as medians.  Both
timings are given at the reference speed of ``bench/speed.py``, which takes
out the host's speed drift; the wall-clock figures are printed beside them.
With ``--trace 1`` one round runs an untraced and a traced pass of each
part, and the run prints the per-layer metrics, ``trace.overhead_frac``
included.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
run context.  ``--record-digests`` instead runs one pass per part and
rewrites ``bench/digests.json`` from the current program's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".bench_out")
PASS_SCRIPT = os.path.join(BENCH_DIR, "pass_run.py")

sys.path.insert(0, BENCH_DIR)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2          # untraced runs; a traced run makes one round
SETUP_PER_PASS = 6      # set-up-only processes before each untraced pass
RUN_LIMIT_S = 170.0     # a run must end well inside 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassFailed(Exception):
    pass


def run_pass(part: str, seed: int, flags: tuple = (), timeout: float = RUN_LIMIT_S,
             env: dict = None) -> dict:
    """Start one pass process with extra ``pass_run.py`` flags, wait for it,
    and return its result with ``setup_s`` (process start to ready) added,
    and ``setup_ref_s``, the same at the reference speed."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, PASS_SCRIPT, "--part", part, "--seed", str(seed), *flags]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PassFailed(f"pass printed no result: {proc.stdout[-500:]!r}") from exc
    result["setup_s"] = result["ready_monotonic"] - started
    result["setup_ref_s"] = result["setup_s"] * speed.PROBE_REF_S / result["setup_probe_s"]
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run the workload's passes and return them by (kind, part), with the
    set-up samples and the instance counts.

    Untraced, rounds of one pass per part repeat until the next round would
    overrun ``seconds`` (at least ``MIN_ROUNDS``), and every pass follows
    ``SETUP_PER_PASS`` set-up-only processes, so the set-up samples spread
    over the whole run.  Traced, one round runs an untraced and a traced pass
    of each part.  A pass that fails ends the run, and all its instances
    count as failed."""
    kinds = ("plain", "traced") if traced else ("plain",)
    parts = workloads.COMPOSITES[workload]
    run = {"passes": {(kind, part): [] for kind in kinds for part in parts},
           "setups": [], "attempted": 0, "failed": 0, "failures": {}}
    rounds = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if traced and rounds:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(rounds) > seconds:
            break
        for kind, part in run["passes"]:
            flags = ()
            if kind == "traced":
                os.makedirs(SPANS_DIR, exist_ok=True)
                flags = ("--trace", os.path.join(SPANS_DIR, f"{part}.spans.jsonl"))
            try:
                if not traced:
                    run["setups"] += [run_pass(part, seed, ("--setup-only",))
                                      for _ in range(SETUP_PER_PASS)]
                result = run_pass(part, seed, flags,
                                  timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - start)))
            except PassFailed as exc:
                lost = len(workloads.instances(part, seed))
                run["attempted"] += lost
                run["failed"] += lost
                run["failures"][f"{kind} pass of {part}"] = str(exc)
                return run
            run["attempted"] += result["attempted"]
            run["failed"] += len(result["failures"])
            run["failures"].update(result["failures"])
            run["passes"][(kind, part)].append(result)
        rounds.append(time.monotonic() - start - elapsed)
    return run


def part_wall(passes: list, key: str) -> float:
    """One pass's time as the sum of each instance's median over the passes,
    which keeps a burst of co-tenant load in one pass from moving the whole
    figure.  ``key`` picks wall-clock (``instance_s``) or reference-speed
    (``instance_ref_s``) instance times."""
    return sum(statistics.median(p[key][i] for p in passes) for i in passes[0][key])


def end_to_end(plain: dict, setups: list) -> tuple:
    """(metrics, wall-clock figures by name).  ``wall_s`` adds the parts'
    pass times, ``setup_s`` is the median over every process started, both
    at the reference speed, and ``peak_rss_mb`` is the largest part's median
    peak."""
    started = setups + [p for passes in plain.values() for p in passes]
    clock = {f"{part}.wall_s": part_wall(passes, "instance_s")
             for part, passes in plain.items()}
    clock["setup_s"] = statistics.median(p["setup_s"] for p in started)
    return {"wall_s": sum(part_wall(passes, "instance_ref_s") for passes in plain.values()),
            "setup_s": statistics.median(p["setup_ref_s"] for p in started),
            "peak_rss_mb": max(statistics.median(p["peak_rss_mb"] for p in passes)
                               for passes in plain.values())}, clock


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from each part's one traced pass, added over the
    parts; ``trace.overhead_frac`` compares its reference-speed time with
    that of the untraced pass of the same round."""
    values = {name: 0 for name, unit in tracing.PER_LAYER.items() if unit != "ratio"}
    for (result,) in traced.values():
        for name in values:
            values[name] += result["per_layer"][name]
    tracing.add_yields(values)
    values["trace.overhead_frac"] = (
        sum(sum(result["instance_ref_s"].values()) for (result,) in traced.values())
        / sum(sum(result["instance_ref_s"].values()) for (result,) in plain.values()) - 1.0)
    return {name: values[name] for name in tracing.PER_LAYER}


def context(seed: int, load_before: tuple, passes: dict) -> dict:
    return {
        "passes": {f"{kind} {part}": len(p) for (kind, part), p in passes.items()},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workload_seed": seed,
    }


def record_digests() -> int:
    digests = {}
    for part in workloads.PARTS:
        result = run_pass(part, 0)
        digests.update(result["digests"])
        print(f"{part}: {len(result['digests'])} documents", file=sys.stderr)
    with open(os.path.join(BENCH_DIR, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.COMPOSITES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stabdyn", "__init__.py")):
        print(f"bench: no stabdyn sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    load_before = os.getloadavg()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for instance, reason in sorted(run["failures"].items()):
        print(f"FAILED {instance}: {reason}", file=sys.stderr)
    by_kind = {kind: {part: p for (k, part), p in run["passes"].items() if k == kind}
               for kind in ("plain", "traced")}
    plain, traced = by_kind["plain"], by_kind["traced"]

    # A failed pass ends the run early, so some part may have no pass to
    # measure; the result line then carries the failures and no metrics.
    name = args.workload
    values, clock = {}, {}
    units = tracing.PER_LAYER if args.trace else END_TO_END_UNITS
    if all(run["passes"].values()):
        if args.trace:
            values = per_layer(plain, traced)
        else:
            values, clock = end_to_end(plain, run["setups"])
    for metric, value in values.items():
        print(f"{name:9s} {metric:44s} {value:.6g} {units[metric]}")
    for metric, value in clock.items():
        print(f"{name:9s} {'wall-clock ' + metric:44s} {value:.6g} s")
    print(f"{name:9s} {'failed_frac':44s} "
          f"{run['failed'] / max(run['attempted'], 1):.6g} ratio "
          f"({run['failed']} of {run['attempted']} instances)")
    print(json.dumps({"context": context(args.seed, load_before, run["passes"])}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
