"""Span and counter recorder that wraps lampwalk's public functions from outside.

Modules bind names with ``from .groups import multiply``, so a function is
replaced in every ``lampwalk.*`` namespace that holds it, and methods are
patched on their class.  Boundary calls become spans (name, start, end,
parent); hot leaf calls (multiply, encode, ...) only add to an aggregate of
call count and self time.  Self time is a call's duration minus the time its
wrapped children took, leaves included, so the self times of all wrapped
names add up to the traced time without double counting.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "groups", "setalg", "switchers", "construction", "sampling",
    "analysis", "tvbound", "verify", "cli",
)


class Tracer:
    def __init__(self):
        self.spans = []                                 # (name, start, end, parent index)
        self.calls = defaultdict(int)                   # name -> calls
        self.self_s = defaultdict(float)                # name -> self seconds
        self.total_s = defaultdict(float)               # name -> inclusive seconds
        self.counts = defaultdict(int)                  # named work counters
        self.maxima = defaultdict(int)                  # named high-water marks
        self._stack = []                                # frames: [child_s, name, span index]

    # -- recording ----------------------------------------------------------------

    def _enter(self, name, is_span):
        index = None
        if is_span:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [0.0, name, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        name = frame[1]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        self.total_s[name] += duration
        if frame[2] is not None:
            self.spans[frame[2]][1:3] = [start, end]

    @contextmanager
    def span(self, name):
        frame = self._enter(name, True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter())

    def active(self, name) -> bool:
        return any(f[1] == name for f in self._stack)

    def wrap(self, name, fn, is_span=True, after=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name, is_span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, start, perf_counter())
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------------------

    def patch_function(self, module, attr, name, is_span=True, after=None):
        """Replace ``module.attr`` in every lampwalk namespace that binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, is_span, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lampwalk" or mod_name.startswith("lampwalk."):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr, name, is_span=True, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, is_span, after)))
        else:
            setattr(cls, attr, self.wrap(name, raw, is_span, after))

    # -- summaries --------------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries and hot leaves of an imported lampwalk."""
    from lampwalk import analysis, construction, groups, sampling, setalg, switchers, tvbound, verify

    t = tracer
    leaf = {"is_span": False}

    # groups: hot leaves
    for attr in ("multiply", "inverse", "encode", "decode"):
        t.patch_function(groups, attr, f"groups.{attr}", **leaf)

    # setalg
    def count_power(result, args, kwargs):
        t.counts["setalg.power_set.elements"] += len(result)

    t.patch_function(setalg, "power_set", "setalg.power_set", after=count_power)
    t.patch_method(setalg.SkewBox, "unrank", "setalg.unrank", **leaf)

    # switchers: one span per brute scan; pairs is |A|^2 per sign
    def scan_counter(signs):
        def count(result, args, kwargs):
            t.counts["switchers.scan.pairs"] += signs * len(args[1]) ** 2
        return count

    t.patch_function(switchers, "is_switcher", "switchers.scan", after=scan_counter(1))
    t.patch_function(switchers, "is_superswitcher", "switchers.scan", after=scan_counter(2))

    # construction
    C = construction.Construction

    def count_level(result, args, kwargs):
        t.counts["construction.levels_built"] += 1
        if t.active("sampling.walk"):
            t.counts["construction.levels_lazy"] += 1

    def count_file(result, args, kwargs):
        t.counts["construction.file_bytes"] += os.path.getsize(args[1])

    t.patch_method(C, "build_level", "construction.build_level", after=count_level)
    t.patch_method(C, "serialize", "construction.serialize")
    t.patch_method(C, "save", "construction.save", after=count_file)
    t.patch_method(C, "load", "construction.load")
    t.patch_method(C, "membership_level", "construction.membership_level")

    # sampling
    def count_steps(result, args, kwargs):
        t.counts["sampling.steps"] += len(result.steps)
        t.counts["sampling.steps_materialized"] += sum(1 for s in result.steps if s.x is not None)

    def count_csv(result, args, kwargs):
        t.counts["sampling.csv_bytes"] += os.path.getsize(args[0])

    t.patch_method(sampling.KDistribution, "__init__", "sampling.kdist")
    t.patch_method(sampling.KDistribution, "sample", "sampling.kdist_sample", **leaf)
    t.patch_function(sampling, "walk", "sampling.walk", after=count_steps)
    t.patch_function(sampling, "write_trajectory_csv", "sampling.csv_write", after=count_csv)
    t.patch_function(sampling, "read_trajectory_csv", "sampling.csv_read")
    t.patch_function(sampling, "pmf_eval", "sampling.pmf_eval")

    # analysis: entry points, window index builds and certification
    for attr, name in (
        ("analyze_records", "analysis.records"),
        ("stable_so_far_flags", "analysis.stable_flags"),
        ("dominant_record_times", "analysis.dominant_records"),
        ("detect_stabilization", "analysis.stabilization"),
        ("check_nontriviality_conditions", "analysis.conditions"),
        ("tau_extract", "analysis.tail"),
        ("freeness_test", "analysis.freeness"),
        ("decompose_tracked", "analysis.decompose_tracked"),
        ("decompose_oracle", "analysis.decompose_oracle"),
        ("trajectory_report", "analysis.trajectory_report"),
        ("write_analysis_json", "analysis.write_json"),
    ):
        t.patch_function(analysis, attr, name)

    def count_forms(result, args, kwargs):
        index = args[0]
        t.counts["analysis.window_index.forms"] += sum(len(f.values) for f in index.factors)
        t.counts["analysis.window_index.attempted"] += sum(
            len(index.slices) * len(f.qa_list) * len(f.qb_list) for f in index.factors
        )

    t.patch_method(analysis.WindowIndex, "__init__", "analysis.window_index", after=count_forms)
    t.patch_method(analysis.WindowIndex, "certify_unique", "analysis.certify_unique")

    # tvbound
    def count_cells(result, args, kwargs):
        t.counts["tvbound.bound.dp_cells"] += result.horizon * (result.truncation + 1)

    def support(result, args, kwargs):
        t.maxima["tvbound.convolve.support"] = max(t.maxima["tvbound.convolve.support"], len(result))

    t.patch_function(tvbound, "certified_marginal_bound", "tvbound.bound", after=count_cells)
    t.patch_function(tvbound, "exact_marginal", "tvbound.exact_marginal")
    t.patch_function(tvbound, "convolve", "tvbound.convolve", after=support)

    # verify: the suite and each check it runs
    def count_results(result, args, kwargs):
        t.counts["verify.checks"] += len(result)
        t.counts["verify.checks_failed"] += sum(1 for r in result if not r[1])

    t.patch_function(verify, "run_verification_suite", "verify.suite", after=count_results)
    for attr in [a for a in vars(verify) if a.startswith("_check_")]:
        t.patch_function(verify, attr, "verify." + attr.removeprefix("_check_"))


def _per_s(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(t: Tracer) -> dict:
    """The traced per-layer metrics of one round, by name."""
    n, s, c = t.calls, t.self_s, t.counts
    steps = c["sampling.steps"]
    attempted = c["analysis.window_index.attempted"]
    out = {
        "groups.multiply.calls": n["groups.multiply"],
        "groups.multiply.self_s": s["groups.multiply"],
        "groups.inverse.self_s": s["groups.inverse"],
        "groups.encode.calls": n["groups.encode"],
        "groups.encode.self_s": s["groups.encode"],
        "groups.decode.self_s": s["groups.decode"],
        "setalg.power_set.self_s": s["setalg.power_set"],
        "setalg.power_set.elements": c["setalg.power_set.elements"],
        "setalg.unrank.calls": n["setalg.unrank"],
        "setalg.unrank.self_s": s["setalg.unrank"],
        "switchers.scan.calls": n["switchers.scan"],
        "switchers.scan.self_s": s["switchers.scan"],
        "switchers.scan.pairs": c["switchers.scan.pairs"],
        "switchers.scan.pairs_per_s": _per_s(c["switchers.scan.pairs"], s["switchers.scan"]),
        "construction.levels_built": c["construction.levels_built"],
        "construction.levels_lazy": c["construction.levels_lazy"],
        "construction.build_level.self_s": s["construction.build_level"],
        "construction.serialize.calls": n["construction.serialize"],
        "construction.serialize.self_s": s["construction.serialize"],
        "construction.load.self_s": s["construction.load"],
        "construction.file_bytes": c["construction.file_bytes"],
        "construction.membership_level.self_s": s["construction.membership_level"],
        "sampling.kdist.build_s": t.total_s["sampling.kdist"],
        "sampling.kdist.sample_calls": n["sampling.kdist_sample"],
        "sampling.kdist.sample_s": s["sampling.kdist_sample"],
        "sampling.walk.calls": n["sampling.walk"],
        "sampling.walk.self_s": s["sampling.walk"],
        "sampling.steps": steps,
        "sampling.steps_materialized": c["sampling.steps_materialized"],
        "sampling.materialized_frac": c["sampling.steps_materialized"] / steps if steps else 0.0,
        "sampling.csv_write.self_s": s["sampling.csv_write"],
        "sampling.csv_read.self_s": s["sampling.csv_read"],
        "sampling.csv_bytes": c["sampling.csv_bytes"],
        "sampling.pmf_eval.self_s": s["sampling.pmf_eval"],
        "analysis.records.self_s": s["analysis.records"],
        "analysis.stabilization.self_s": s["analysis.stabilization"],
        "analysis.stable_flags.calls": n["analysis.stable_flags"],
        "analysis.trajectory_report.self_s": s["analysis.trajectory_report"],
        "analysis.freeness.self_s": s["analysis.freeness"],
        "analysis.window_index.builds": n["analysis.window_index"],
        "analysis.window_index.distinct": c["analysis.window_index.forms"] / attempted if attempted else 0.0,
        "analysis.window_index.self_s": s["analysis.window_index"],
        "analysis.window_index.forms": c["analysis.window_index.forms"],
        "analysis.certify_unique.self_s": s["analysis.certify_unique"],
        "tvbound.bound.calls": n["tvbound.bound"],
        "tvbound.bound.self_s": s["tvbound.bound"],
        "tvbound.bound.dp_cells": c["tvbound.bound.dp_cells"],
        "tvbound.bound.cells_per_s": _per_s(c["tvbound.bound.dp_cells"], s["tvbound.bound"]),
        "tvbound.exact_marginal.self_s": s["tvbound.exact_marginal"],
        "tvbound.convolve.support": t.maxima["tvbound.convolve.support"],
        "verify.checks": c["verify.checks"],
        "verify.checks_failed": c["verify.checks_failed"],
        "verify.rebuild.self_s": s["verify.rebuild"],
        "verify.switchers.self_s": s["verify.switchers"],
        "verify.decompositions.self_s": s["verify.decompositions"],
        "verify.disjointness.self_s": s["verify.disjointness"],
        "verify.pmf_symmetry.self_s": s["verify.pmf_symmetry"],
        "trace.spans": len(t.spans),
    }
    for layer, seconds in t.layer_self_s().items():
        out[f"{layer}.self_s"] = seconds
    return out
