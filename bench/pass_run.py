"""One benchmark pass: a fresh interpreter runs one part's instance list once,
checks every output, and prints one JSON line with its timings.

    PYTHONPATH=src python3 bench/pass_run.py --part split --seed 0 [--trace SPANS]

``bench/run.py`` starts one of these per pass, so module caches start cold as
they do for every CLI invocation.  With ``--trace`` the layers are wrapped by
``bench/tracing.py`` and the spans are written to SPANS when the pass ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads  # noqa: E402

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
PERRON_TOLERANCE = 1e-8


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI invocation; the manifest on
    stderr is discarded."""
    from stabdyn import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def dual_routes(inst: workloads.Instance) -> str:
    """Empty when both spectral dual routes agree on ``inst.matrix``, else the
    disagreement."""
    from stabdyn import sft as sft_mod
    shift = sft_mod.parse_edge_shift(workloads.matrix_text(inst.matrix))
    p, p_cycles = sft_mod.period(shift), sft_mod.period_by_cycles(shift)
    if p != p_cycles:
        return f"period {p} != period_by_cycles {p_cycles}"
    if inst.charpoly:
        lam = sft_mod.entropy(shift).perron_value
        root = sft_mod.perron_root_by_charpoly([list(r) for r in inst.matrix])
        if abs(lam - root) > PERRON_TOLERANCE:
            return f"entropy Perron value {lam!r} != charpoly root {root!r}"
    return ""


def run_instance(inst: workloads.Instance, digests: dict, corrupt: bool = False) -> tuple:
    """(stdout sha256 or None, failure reason or "") for one instance.  An
    instance fails if it raises, exits nonzero, fails a dual-route check or
    mismatches its reference digest.  ``corrupt`` alters the captured document
    before hashing, to show the gate catches it."""
    try:
        if inst.matrix:
            return None, dual_routes(inst)
        code, out = run_cli(inst.argv)
    except Exception as exc:  # any raise is a failed instance, not a crash
        return None, f"raised {type(exc).__name__}: {exc}"
    if corrupt:
        out = out.replace("1", "2", 1) if "1" in out else out + " "
    digest = hashlib.sha256(out.encode()).hexdigest()
    if code != 0:
        return digest, f"exit code {code}"
    expected = digests.get(inst.id)
    if expected is None:
        return digest, "no reference digest"
    if digest != expected:
        return digest, "stdout differs from the reference digest"
    return digest, ""


def run_pass(instances, digests: dict, corrupt: str = "") -> dict:
    """Run and check every instance beside ``speed.SpeedProbe``.
    ``instance_s`` holds each instance's wall-clock time without the probe's
    own time, and ``instance_ref_s`` the same at the reference speed."""
    spans, failures, produced = {}, {}, {}
    with speed.SpeedProbe() as probe:
        for inst in instances:
            t0 = time.perf_counter()
            digest, reason = run_instance(inst, digests, corrupt=inst.id == corrupt)
            spans[inst.id] = (t0, time.perf_counter())
            if digest is not None:
                produced[inst.id] = digest
            if reason:
                failures[inst.id] = reason
    timed = {i: probe.reference(begin, end) for i, (begin, end) in spans.items()}
    return {"instance_s": {i: work for i, (work, _) in timed.items()},
            "instance_ref_s": {i: ref for i, (_, ref) in timed.items()},
            "failures": failures, "digests": produced, "attempted": len(instances)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", required=True, choices=workloads.PARTS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default="", help="write spans to this path")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once ready; only set-up is timed")
    parser.add_argument("--corrupt", default="",
                        help="alter this instance's document before hashing")
    args = parser.parse_args(argv)

    import stabdyn  # noqa: F401  (import time is part of set-up)
    instances = workloads.instances(args.part, args.seed)
    digests = load_digests()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    rating = {"ready_monotonic": ready, "setup_probe_s": speed.setup_probe_s()}
    if args.setup_only:
        sys.stdout.write(json.dumps(rating) + "\n")
        return 0

    result = run_pass(instances, digests, args.corrupt)
    result.update(rating)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.finish()
        result["per_layer"] = tracer.metrics()
        tracer.dump(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
