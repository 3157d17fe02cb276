"""Metric arithmetic of the benchmark, kept free of process handling so it can be tested."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def reference_seconds(wall: float, probe_dts: Sequence[float], ref_probe: float) -> float:
    """Wall time less the probes' own time, scaled to a host whose probe takes ``ref_probe``.

    The scale is the mean of ``ref_probe / dt``: the probes sample the
    host's speed evenly in time, so a span that was slow for half its
    length is scaled by the mean of its two speeds, and one probe delayed
    by a preemption moves the mean by at most its share.
    """
    if not probe_dts or any(dt <= 0 for dt in probe_dts):
        raise ValueError("reference seconds need positive probe times")
    speed = sum(ref_probe / dt for dt in probe_dts) / len(probe_dts)
    return (wall - sum(probe_dts)) * speed


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_totals(trace: dict) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name, from one dumped trace."""
    own = self_times(trace["parent"], trace["start"], trace["end"])
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for nid, t in zip(trace["name"], own):
        name = trace["names"][nid]
        calls[name] += 1
        self_s[name] += t
    return {name: (calls[name], self_s[name]) for name in calls}


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0
