"""Spans and counters around the public functions of each ``stabdyn`` layer,
installed from outside the program by rebinding module attributes.

A span records name, start, end and the span that caused it.  Hot leaves
(``SlidingBlockCode.apply``, ``canonical_key``, ``wr_mul``) are timed on every
call but aggregated into one record per parent span, so 1.6M ``apply`` calls
cost a counter update each instead of a span object each.  Spans stay in
memory and are written out once, by ``Tracer.dump``, when the pass ends.

Self time of a span is its duration minus the time covered by its child spans
and its aggregated leaves.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# Every per-layer metric the traced run reports, with its unit.  Counts repeat
# exactly between runs; ``*_s`` values are seconds of self time (or of
# instance time, for the two rigidity outcome splits).
PER_LAYER = {
    "codes.apply.calls": "count", "codes.apply.windows": "count",
    "codes.apply.self_s": "s",
    "codes.compose.calls": "count", "codes.compose.rule_entries": "count",
    "codes.compose.self_s": "s",
    "codes.canonical_key.computed": "count", "codes.canonical_key.self_s": "s",
    "codes.enumerate_conjugacies.calls": "count",
    "codes.enumerate_conjugacies.leaves": "count",
    "codes.enumerate_conjugacies.found": "count",
    "codes.enumerate_conjugacies.yield": "ratio",
    "codes.enumerate_conjugacies.self_s": "s",
    "codes.find_inverse.calls": "count", "codes.find_inverse.found": "count",
    "codes.find_inverse.yield": "ratio", "codes.find_inverse.self_s": "s",
    "codes.enumerate_automorphisms.elements": "count",
    "codes.enumerate_automorphisms.self_s": "s",
    "codes.commutes_with_power.calls": "count",
    "codes.commutes_with_power.rejected": "count",
    "codes.commutes_with_power.self_s": "s",
    "codes.partition_action.calls": "count", "codes.partition_action.self_s": "s",
    "codes.to_code.calls": "count", "codes.to_code.self_s": "s",
    "sft.words_of_length.calls": "count", "sft.words_of_length.words": "count",
    "sft.words_of_length.self_s": "s",
    "sft.power_shift.calls": "count", "sft.power_shift.self_s": "s",
    "sft.entropy.calls": "count", "sft.entropy.iterations": "count",
    "sft.entropy.self_s": "s",
    "sft.charpoly_coefficients.calls": "count",
    "sft.charpoly_coefficients.self_s": "s",
    "sft.perron_root_by_charpoly.self_s": "s",
    "spectral.cyclic_partition.self_s": "s",
    "spectral.class_restriction.calls": "count",
    "spectral.class_restriction.self_s": "s",
    "spectral.smale.calls": "count", "spectral.smale.self_s": "s",
    "wreath.wreath_group.calls": "count", "wreath.wreath_group.cells": "count",
    "wreath.wreath_group.self_s": "s",
    "wreath.wr_mul.calls": "count", "wreath.wr_mul.self_s": "s",
    "groups.FiniteGroup.calls": "count", "groups.FiniteGroup.elements": "count",
    "groups.FiniteGroup.self_s": "s",
    "groups.conjugacy_classes.calls": "count", "groups.conjugacy_classes.self_s": "s",
    "groups.is_isomorphic.calls": "count", "groups.is_isomorphic.found": "count",
    "groups.is_isomorphic.self_s": "s",
    "verify.rigidity_rejected_s": "s", "verify.rigidity_isomorphic_s": "s",
    "verify.verify_split_sequence.self_s": "s",
    "verify.verify_quotient_isos.self_s": "s",
    "verify.check_wreath_rigidity.self_s": "s",
    "verify.entropy_ratio.self_s": "s",
    "verify.quotients_inconclusive": "count",
    "cli.main.calls": "count", "cli.main.failed": "count", "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "leaves")

    def __init__(self, id_, parent, name, start):
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.leaves = {}  # leaf name -> [calls, seconds]

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end,
                "leaves": {k: {"calls": c, "s": s} for k, (c, s) in self.leaves.items()}}


class Tracer:
    """In-memory span tree plus named counters for one pass."""

    def __init__(self):
        self.root = Span(0, None, "pass", _clock())
        self.stack = [self.root]
        self.spans = [self.root]
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), self.stack[-1].id, name, _clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> float:
        span.end = _clock()
        self.stack.pop()
        duration = span.end - span.start
        self.stack[-1].child_s += duration
        self.seconds[f"{span.name}.self_s"] += duration - span.child_s
        self.counts[f"{span.name}.calls"] += 1
        return duration

    def leaf(self, name: str, seconds: float) -> None:
        top = self.stack[-1]
        top.child_s += seconds
        agg = top.leaves.get(name)
        if agg is None:
            top.leaves[name] = [1, seconds]
        else:
            agg[0] += 1
            agg[1] += seconds
        self.seconds[f"{name}.self_s"] += seconds
        self.counts[f"{name}.calls"] += 1

    def finish(self) -> None:
        self.root.end = _clock()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record()) + "\n")

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every PER_LAYER metric except ``trace.overhead_frac`` (which needs
        the untraced passes); zero where the workload never reached it."""
        values = {}
        for name, unit in PER_LAYER.items():
            if unit == "s":
                values[name] = self.seconds.get(name, 0.0)
            elif unit == "count":
                values[name] = self.counts.get(name, 0)
        return add_yields(values)


def add_yields(values: dict) -> dict:
    """Fill in the ratio metrics from their counts (found / attempts)."""
    for name, found, attempts in (
            ("codes.enumerate_conjugacies.yield", "codes.enumerate_conjugacies.found",
             "codes.enumerate_conjugacies.leaves"),
            ("codes.find_inverse.yield", "codes.find_inverse.found",
             "codes.find_inverse.calls")):
        values[name] = values[found] / values[attempts] if values[attempts] else 0.0
    return values


# -- installation ---------------------------------------------------------------


def _rebind(original, wrapper) -> None:
    """Point every ``stabdyn`` module attribute that holds ``original`` at
    ``wrapper``, so calls through names imported with ``from .x import f``
    are seen too."""
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "stabdyn" and not mod_name.startswith("stabdyn."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"{original.__qualname__} is bound nowhere in stabdyn")


def _span(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(result, args, seconds)`` adds counters.
    A call that raises counts under ``<name>.failed``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            tracer.counts[f"{name}.failed"] += 1
            raise
        seconds = tracer.close(span)
        if after is not None:
            after(result, args, seconds)
        return result
    return wrapper


def _leaf(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _clock()
        result = fn(*args, **kwargs)
        tracer.leaf(name, _clock() - start)
        if after is not None:
            after(result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the measured public functions of every layer.  Call once per
    process, after ``import stabdyn`` and before the first measured call."""
    from stabdyn import cli, codes, groups, sft, spectral, verify, wreath

    c = tracer.counts
    s = tracer.seconds

    def functions(module, layer: str, table: dict) -> None:
        for fn_name, after in table.items():
            original = getattr(module, fn_name)
            _rebind(original, _span(tracer, f"{layer}.{fn_name}", original, after))

    # codes
    def compose_after(result, args, seconds):
        c["codes.compose.rule_entries"] += len(result.rule)

    def conj_after(result, args, seconds):
        c["codes.enumerate_conjugacies.found"] += len(result)

    def inverse_after(result, args, seconds):
        c["codes.find_inverse.found"] += result is not None

    def autos_after(result, args, seconds):
        c["codes.enumerate_automorphisms.elements"] += len(result)

    def commutes_after(result, args, seconds):
        c["codes.commutes_with_power.rejected"] += not result

    functions(codes, "codes", {
        "compose": compose_after,
        "enumerate_conjugacies": conj_after,
        "find_inverse": inverse_after,
        "enumerate_automorphisms": autos_after,
        "commutes_with_power": commutes_after,
        "partition_action": None,
    })
    code_cls = codes.SlidingBlockCode

    def windows(result):
        c["codes.apply.windows"] += len(result)

    code_cls.apply = _leaf(tracer, "codes.apply", code_cls.apply, windows)

    canonical_key = code_cls.canonical_key

    @functools.wraps(canonical_key)
    def traced_canonical_key(self):
        if self._canonical_key is not None:
            return self._canonical_key
        start = _clock()
        result = canonical_key(self)
        tracer.leaf("codes.canonical_key", _clock() - start)
        c["codes.canonical_key.computed"] += 1
        return result

    code_cls.canonical_key = traced_canonical_key

    code_init = code_cls.__init__

    @functools.wraps(code_init)
    def counted_init(self, *args, **kwargs):
        if tracer.stack[-1].name == "codes.enumerate_conjugacies":
            c["codes.enumerate_conjugacies.leaves"] += 1
        code_init(self, *args, **kwargs)

    code_cls.__init__ = counted_init
    codes.WordMap.to_code = _span(tracer, "codes.to_code", codes.WordMap.to_code)

    # sft
    def words_after(result, args, seconds):
        c["sft.words_of_length.words"] += len(result)

    def entropy_after(result, args, seconds):
        c["sft.entropy.iterations"] += result.iterations

    functions(sft, "sft", {
        "words_of_length": words_after,
        "power_shift": None,
        "entropy": entropy_after,
        "charpoly_coefficients": None,
        "perron_root_by_charpoly": None,
    })

    # spectral
    functions(spectral, "spectral", {
        "cyclic_partition": None, "class_restriction": None, "smale": None})

    # wreath
    def table_after(result, args, seconds):
        c["wreath.wreath_group.cells"] += result.order * result.order

    functions(wreath, "wreath", {"wreath_group": table_after})
    _rebind(wreath.wr_mul, _leaf(tracer, "wreath.wr_mul", wreath.wr_mul))

    # groups
    group_cls = groups.FiniteGroup
    group_init = group_cls.__init__

    def group_after(result, args, seconds):
        c["groups.FiniteGroup.elements"] += args[0].order

    group_cls.__init__ = _span(tracer, "groups.FiniteGroup", group_init, group_after)
    group_cls.conjugacy_classes = _span(tracer, "groups.conjugacy_classes",
                                        group_cls.conjugacy_classes)

    def iso_after(result, args, seconds):
        c["groups.is_isomorphic.found"] += result is not None

    functions(groups, "groups", {"is_isomorphic": iso_after})

    # verify
    def rigidity_after(result, args, seconds):
        key = "isomorphic" if result.isomorphic else "rejected"
        s[f"verify.rigidity_{key}_s"] += seconds

    def quotients_after(result, args, seconds):
        c["verify.quotients_inconclusive"] += result.status == "inconclusive"

    functions(verify, "verify", {
        "verify_split_sequence": None,
        "verify_quotient_isos": quotients_after,
        "check_wreath_rigidity": rigidity_after,
        "entropy_ratio": None,
    })

    # cli
    def main_after(result, args, seconds):
        c["cli.main.failed"] += result != 0

    functions(cli, "cli", {"main": main_after})
