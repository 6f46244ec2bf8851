"""Span arithmetic for the traced runs.

A span is a dict with the keys written by `tracer.py`:

    id, name, start, end (monotonic ns), parent (id or None), run, attrs

A span's self time is its duration minus the part of its interval that
its child spans cover.  Children of one span never overlap in a
single-threaded run, but the union is taken anyway so that a malformed
trace cannot produce negative self time.
"""

from __future__ import annotations

from collections import defaultdict

NS = 1e-9


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Self time in seconds of every span, keyed by (run, id)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        key = (s["run"], s["id"])
        covered = _covered(children.get(key, ()), s["start"], s["end"])
        out[key] = (s["end"] - s["start"] - covered) * NS
    return out


def aggregate(spans) -> dict:
    """Per span name: call count, total self time (s) and summed attrs."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "attrs": defaultdict(float)})
    for s in spans:
        row = table[s["name"]]
        row["calls"] += 1
        row["self_s"] += selfs[(s["run"], s["id"])]
        for key, value in s.get("attrs", {}).items():
            if isinstance(value, (int, float)):
                row["attrs"][key] += value
    return table


def unique_counts(spans, name: str) -> tuple:
    """(distinct keys within each run, summed over runs; calls) for `name`."""
    per_run = defaultdict(set)
    calls = 0
    for s in spans:
        if s["name"] == name:
            calls += 1
            per_run[s["run"]].add(s["attrs"]["key"])
    return sum(len(keys) for keys in per_run.values()), calls
