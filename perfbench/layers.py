"""Per-layer metrics from the spans and counts that tracer.Tracer wrote.

A span's self time is its duration minus the durations of its direct
child spans.  Counts of several traced processes (the two directions of
transform-q4) add up.  A layer that a workload never enters reports 0.
"""

from __future__ import annotations

import numpy as np

from tracer import read_spans

SELF_S = [
    "stepfn.inner", "stepfn.refine", "stepfn.translate", "stepfn.dilate",
    "stepfn.periodic_inner", "stepfn.load_csv", "stepfn.dump_csv",
    "harmonic.fast_transform", "harmonic.fast_inverse_transform",
    "harmonic.inverse_transform", "framekit.coefficient_row",
    "framekit.two_scale_check", "framekit.frame_ratio",
    "framekit.derive_generators", "framekit.uep_gram", "periodic.member",
    "periodic.scan", "periodic.two_scale", "periodic.tightness",
    "runner.load", "runner.report", "runner.render",
]
CALLS = [
    "stepfn.inner", "stepfn.refine", "stepfn.periodic_inner",
    "harmonic.inverse_transform", "framekit.coefficient_row",
    "framekit.member", "periodic.member",
]
# tracer counter -> metric
COUNTS = {"algebra.element": "algebra.element.count",
          "algebra.uindex": "algebra.uindex.calls",
          "algebra.lambda_element": "algebra.lambda_element.calls"}


def span_totals(path: str) -> tuple[dict, dict, dict, dict]:
    """calls, self seconds, and calls under each parent name, per span
    name, plus the call counts, of one trace file."""
    meta, starts, ends, name_ids, parents = read_spans(path)
    names = meta["span_names"]
    n, k = meta["spans"], len(names)
    starts, ends = np.frombuffer(starts), np.frombuffer(ends)
    name_ids = np.frombuffer(name_ids, dtype=np.intc)
    parents = np.frombuffer(parents, dtype=np.intc)
    dur = ends - starts
    nested = parents >= 0
    child_time = np.bincount(parents[nested], weights=dur[nested], minlength=n)
    self_t = dur - child_time[:n]
    calls = np.bincount(name_ids, minlength=k)
    self_s = np.bincount(name_ids, weights=self_t, minlength=k)
    # calls of name b made directly from a span of name a
    parent_names = np.where(nested, name_ids[np.where(nested, parents, 0)], -1)
    pairs = {}
    for a in range(k):
        under = name_ids[parent_names == a]
        for b, c in enumerate(np.bincount(under, minlength=k)):
            if c:
                pairs[(names[a], names[b])] = int(c)
    return ({names[i]: int(calls[i]) for i in range(k)},
            {names[i]: float(self_s[i]) for i in range(k)},
            pairs, meta["counts"])


def per_layer(paths: list[str]) -> dict[str, float]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    pairs: dict[tuple, int] = {}
    counts: dict[str, int] = {}
    for path in paths:
        c, s, p, n = span_totals(path)
        for total, part in ((calls, c), (self_s, s), (pairs, p), (counts, n)):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value

    out: dict[str, float] = {}
    for name, metric in COUNTS.items():
        out[metric] = counts.get(name, 0)
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_S:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = calls.get("framekit.member", 0)
    builds = pairs.get(("framekit.member", "framekit.system_member"), 0)
    out["framekit.member.builds"] = builds
    out["framekit.member.hit_ratio"] = ratio(lookups - builds, lookups)
    # coefficient_row calls inner once per row entry, on overlapping supports
    out["framekit.coefficient_row.overlap_ratio"] = ratio(
        pairs.get(("framekit.coefficient_row", "stepfn.inner"), 0), lookups)
    lookups = calls.get("periodic.member", 0)
    builds = pairs.get(("periodic.member", "periodic.periodize"), 0)
    out["periodic.member.builds"] = builds
    out["periodic.member.hit_ratio"] = ratio(lookups - builds, lookups)
    return out
