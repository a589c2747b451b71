"""Self-test of the benchmark itself (not of stabdyn).

    python3 bench/selftest.py [--part split ...]

For each part it checks that
  1. per-layer counts are identical across two traced passes with the same
     PYTHONHASHSEED and across different PYTHONHASHSEED values,
  2. tracing leaves every stdout digest unchanged (traced and untraced
     passes produce the reference digests), and
  3. a deliberately corrupted document is counted as a failed instance.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HASH_SEEDS = ("0", "0", "1", "2")


def counts(result: dict) -> dict:
    return {name: value for name, value in result["per_layer"].items()
            if tracing.PER_LAYER[name] != "s"}


def check_part(part: str, seed: int) -> list:
    problems = []
    spans = os.path.join(run.SPANS_DIR, f"selftest-{part}.spans.jsonl")
    os.makedirs(run.SPANS_DIR, exist_ok=True)

    plain = run.run_pass(part, seed)
    if plain["failures"]:
        problems.append(f"untraced pass failed: {plain['failures']}")

    reference = None
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        traced = run.run_pass(part, seed, ("--trace", spans), env=env)
        if traced["failures"]:
            problems.append(f"traced pass (PYTHONHASHSEED={hash_seed}) failed: "
                            f"{traced['failures']}")
        if traced["digests"] != plain["digests"]:
            problems.append(f"tracing changed a digest (PYTHONHASHSEED={hash_seed})")
        seen = counts(traced)
        if reference is None:
            reference = seen
        for name in sorted(n for n in seen if seen[n] != reference[n]):
            problems.append(f"{name}: {seen[name]} under PYTHONHASHSEED={hash_seed}, "
                            f"{reference[name]} under {HASH_SEEDS[0]}")
    os.remove(spans)

    target = next((i.id for i in workloads.instances(part, seed) if i.argv), None)
    if target is not None:
        corrupted = run.run_pass(part, seed, ("--corrupt", target))
        if set(corrupted["failures"]) != {target}:
            problems.append(f"corrupting {target} gave failures {corrupted['failures']}")
    print(f"{part}: apply calls {reference['codes.apply.calls']}, "
          f"windows {reference['codes.apply.windows']}, "
          f"{len(problems)} problem(s)", flush=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", nargs="*", default=list(workloads.PARTS),
                        choices=workloads.PARTS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    problems = []
    for part in args.part:
        problems += [f"{part}: {p}" for p in check_part(part, args.seed)]
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
