"""Deterministic, bounded time-series recording on the telemetry tick.

The paper argues with trajectories (sending rate tracking capacity,
queuing delay staying flat, the bucket shrinking under Algorithm 1). A
:class:`SeriesRecorder` attached to a :class:`~repro.obs.recorder.
Telemetry` samples every registered gauge and counter, plus pacing-delay
quantiles from the burst analyzer's recent window, on the telemetry tick
into columns that share one time column. It is:

* a pure observer: it reads ``.value`` only, so golden fingerprints hold
  with recording on (``tests/test_sim_regression.py``);
* deterministically bounded: past ``MAX_SAMPLES`` it keeps every other
  sample and doubles its stride, a pure function of the tick sequence;
* decimation-safe: counters are stored cumulative, so the samples left
  still give correct rates (:func:`rate_series`);
* reproducible to render: :func:`m4_downsample` keeps first/min/max/last
  per pixel bin with deterministic tie-breaks.

Shards serialize to JSON (``SeriesFrame.to_dict`` rounds to 9 decimals
and sorts keys) under ``<run_dir>/series/<label>.json``, written
atomically.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .atomicio import atomic_write_text

__all__ = [
    "MAX_SAMPLES",
    "SeriesFrame",
    "SeriesRecorder",
    "load_shard",
    "m4_downsample",
    "max_divergence_window",
    "rate_series",
]

# ~7 minutes of 100ms ticks before the first decimation; bounded memory
# for arbitrarily long runs (stride doubles, count halves).
MAX_SAMPLES = 4096

# Percentiles sampled from the burst analyzer's recent pacing-delay
# window each tick; matches the SLO watchdog's p99 focus plus a median
# for the paper-style quantile band.
PACING_PCTS = (50.0, 99.0)

SHARD_KIND = "repro-series"
SHARD_VERSION = 1


@dataclass
class SeriesFrame:
    """Columnar time-series snapshot: one shared time axis, one value
    column per metric. ``None`` marks ticks where a series had no value
    (gauge never set, column registered late)."""

    t: List[float] = field(default_factory=list)
    series: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def points(self, name: str) -> Tuple[List[float], List[float]]:
        """(t, v) with ``None`` samples dropped — render-ready."""
        ts: List[float] = []
        vs: List[float] = []
        for tt, vv in zip(self.t, self.series.get(name, ())):
            if vv is not None and not math.isnan(vv):
                ts.append(tt)
                vs.append(vv)
        return ts, vs

    def to_dict(self) -> Dict[str, object]:
        def _clean(value: Optional[float]) -> Optional[float]:
            if value is None or (isinstance(value, float) and math.isnan(value)):
                return None
            return round(float(value), 9)

        return {
            "kind": SHARD_KIND,
            "version": SHARD_VERSION,
            "meta": dict(self.meta),
            "t": [round(float(tt), 9) for tt in self.t],
            "series": {
                name: [_clean(v) for v in col]
                for name, col in sorted(self.series.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SeriesFrame":
        if payload.get("kind") != SHARD_KIND:
            raise ValueError(f"not a {SHARD_KIND} shard: kind={payload.get('kind')!r}")
        return cls(
            t=[float(tt) for tt in payload.get("t", [])],
            series={
                str(name): list(col)
                for name, col in dict(payload.get("series", {})).items()
            },
            meta=dict(payload.get("meta", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def write(self, path: str | Path) -> Path:
        """Atomically persist the shard as JSON (satellite: crash-safe
        run-dir artifacts)."""
        return atomic_write_text(path, self.to_json() + "\n")


def load_shard(path: str | Path) -> SeriesFrame:
    return SeriesFrame.from_dict(json.loads(Path(path).read_text()))


class SeriesRecorder:
    """Samples a :class:`~repro.obs.registry.MetricRegistry` into bounded
    columnar series on each telemetry tick.

    Gauges are read from ``.value`` (``Telemetry._tick`` has already run
    ``sample_all()``, so polled gauges are fresh); counters record their
    cumulative value; the optional burst analyzer contributes recent
    pacing-delay percentiles as ``burst.pacing_p{50,99}_s``.
    """

    def __init__(
        self,
        registry,
        *,
        burst=None,
    ) -> None:
        self.registry = registry
        self.burst = burst
        #: Tick-decimation stride; doubles on each compaction so the
        #: retained set depends only on the tick sequence.
        self.stride = 1
        self._ticks = 0
        self.t: List[float] = []
        self.columns: Dict[str, List[Optional[float]]] = {}
        #: ``(column, instrument)`` per registry metric, the pacing
        #: quantiles' columns, and the registry size they were built for.
        self._feeds: List[tuple] = []
        self._pacing: List[List[Optional[float]]] = []
        self._registered = -1

    def sample(self, now: float) -> None:
        """Record one row; a pure read of instruments — never mutates
        the components being observed."""
        tick = self._ticks
        self._ticks = tick + 1
        if tick % self.stride:
            return
        registry = self.registry
        if len(registry.gauges) + len(registry.counters) != self._registered:
            # Metrics registered since the last row get a column, backfilled
            # with None so every column stays aligned with the time axis; a
            # counter shadows a gauge of its name, the quantiles both.
            self._registered = len(registry.gauges) + len(registry.counters)
            sources = {**registry.gauges, **registry.counters}
            if self.burst is not None:
                sources.update(dict.fromkeys(
                    f"burst.pacing_p{pct:g}_s" for pct in PACING_PCTS))
            feeds = [(self.columns.setdefault(name, [None] * len(self.t)),
                      source) for name, source in sources.items()]
            self._feeds = [feed for feed in feeds if feed[1] is not None]
            self._pacing = [column for column, source in feeds
                            if source is None]
        self.t.append(now)
        for column, instrument in self._feeds:
            column.append(instrument.value)
        if self._pacing:
            for column, value in zip(
                self._pacing, self.burst.pacing_percentiles(PACING_PCTS)
            ):
                column.append(value)
        if len(self.t) > MAX_SAMPLES:
            self._compact()

    def _compact(self) -> None:
        # Keep samples 0, 2, 4, ... and double the stride: deterministic
        # given the tick sequence, keeps the earliest sample, and halves
        # memory while preserving full-run coverage.
        del self.t[1::2]
        for column in self.columns.values():
            del column[1::2]
        self.stride *= 2

    def frame(self, meta: Optional[Dict[str, object]] = None) -> SeriesFrame:
        merged: Dict[str, object] = {"stride": self.stride, "samples": len(self.t)}
        if meta:
            merged.update(meta)
        return SeriesFrame(
            t=list(self.t),
            series={name: list(col) for name, col in self.columns.items()},
            meta=merged,
        )


def m4_downsample(
    t: Sequence[float], v: Sequence[Optional[float]], width: int
) -> Tuple[List[float], List[float]]:
    """Reduce ``(t, v)`` to at most ``4 * width`` points keeping the
    first, min, max, and last sample of each of ``width`` equal-time
    bins (the M4 reduction). ``None``/NaN samples are skipped. Ties in
    a bin's min/max resolve to the earliest sample, so the output is a
    pure function of the input — same shard + same width is always the
    same polyline.
    """
    if width <= 0:
        return [], []
    pts = [
        (float(tt), float(vv))
        for tt, vv in zip(t, v)
        if vv is not None and not math.isnan(vv)
    ]
    if len(pts) <= 4 * width:
        return [p[0] for p in pts], [p[1] for p in pts]

    t0 = pts[0][0]
    span = pts[-1][0] - t0
    if span <= 0.0:
        pts = pts[:1] + pts[-1:]
        return [p[0] for p in pts], [p[1] for p in pts]

    # Per-bin indices into pts: [first, min, max, last].
    bins: Dict[int, List[int]] = {}
    for idx, (tt, vv) in enumerate(pts):
        b = min(width - 1, int((tt - t0) / span * width))
        slot = bins.get(b)
        if slot is None:
            bins[b] = [idx, idx, idx, idx]
            continue
        if vv < pts[slot[1]][1]:
            slot[1] = idx
        if vv > pts[slot[2]][1]:
            slot[2] = idx
        slot[3] = idx

    keep = sorted({idx for slot in bins.values() for idx in slot})
    return [pts[i][0] for i in keep], [pts[i][1] for i in keep]


def rate_series(
    t: Sequence[float],
    cumulative: Sequence[Optional[float]],
    *,
    scale: float = 8.0,
) -> Tuple[List[float], List[float]]:
    """Per-interval rate from a cumulative counter column. The default
    ``scale`` of 8 turns cumulative *bytes* into *bits/s*. Intervals
    with no elapsed time or a missing endpoint are skipped; counter
    resets (negative deltas) clamp to zero rather than plotting a
    nonsense negative rate.
    """
    out_t: List[float] = []
    out_v: List[float] = []
    prev_t: Optional[float] = None
    prev_v: Optional[float] = None
    for tt, vv in zip(t, cumulative):
        if vv is None or (isinstance(vv, float) and math.isnan(vv)):
            continue
        if prev_t is not None and tt > prev_t:
            delta = max(0.0, float(vv) - float(prev_v))
            out_t.append(float(tt))
            out_v.append(delta * scale / (float(tt) - prev_t))
        prev_t, prev_v = float(tt), float(vv)
    return out_t, out_v


def value_at(
    t: Sequence[float], v: Sequence[float], when: float
) -> Optional[float]:
    """Sample-and-hold lookup: the value of the last sample at or before
    ``when`` (None before the first sample)."""
    idx = bisect_right(t, when) - 1
    if idx < 0:
        return None
    return v[idx]


def max_divergence_window(
    candidate: SeriesFrame,
    reference: SeriesFrame,
    *,
    window_s: float = 1.0,
    names: Optional[Iterable[str]] = None,
) -> Optional[Dict[str, object]]:
    """Find the time window where two runs' series diverge the most.

    Series are aligned sample-and-hold on the candidate's time axis
    (runs tick on the same schedule but decimation strides may differ).
    Each series' absolute differences are normalized by the pair's
    value scale so "queue grew by 40 KB" and "rate fell by 4 Mbps" are
    comparable, then a sliding window of ``window_s`` seconds picks the
    worst mean divergence across all common series (earliest window on
    ties — exact, via prefix sums).

    Returns ``None`` when there is nothing to compare, else a dict with
    ``series``, ``start``/``end`` (seconds), ``divergence`` (normalized
    mean over the window), and the window's candidate/reference means.
    """
    if names is None:
        common = sorted(set(candidate.series) & set(reference.series))
    else:
        common = sorted(set(names) & set(candidate.series) & set(reference.series))

    best: Optional[Dict[str, object]] = None
    for name in common:
        ct, cv = candidate.points(name)
        rt, rv = reference.points(name)
        if len(ct) < 2 or len(rt) < 2:
            continue
        lo = max(ct[0], rt[0])
        hi = min(ct[-1], rt[-1])
        if hi <= lo:
            continue

        ts: List[float] = []
        diffs: List[float] = []
        ref_vals: List[float] = []
        cand_vals: List[float] = []
        for tt, vv in zip(ct, cv):
            if tt < lo or tt > hi:
                continue
            rr = value_at(rt, rv, tt)
            if rr is None:
                continue
            ts.append(tt)
            diffs.append(abs(vv - rr))
            ref_vals.append(rr)
            cand_vals.append(vv)
        if len(ts) < 2:
            continue

        # Normalize by the larger of the two runs' scales: an all-zero
        # reference (e.g. drops only in the candidate) must not divide
        # the diff by epsilon and drown every other series.
        scale = max(max(abs(r) for r in ref_vals),
                    max(abs(c) for c in cand_vals), 1e-9)
        norm = [d / scale for d in diffs]

        # Prefix sums make equal windows compare exactly (no running-sum
        # float drift), so ties resolve to the earliest window.
        n = len(ts)
        pre_norm = [0.0] * (n + 1)
        pre_ref = [0.0] * (n + 1)
        pre_cand = [0.0] * (n + 1)
        for k in range(n):
            pre_norm[k + 1] = pre_norm[k] + norm[k]
            pre_ref[k + 1] = pre_ref[k] + ref_vals[k]
            pre_cand[k + 1] = pre_cand[k] + cand_vals[k]

        # Sliding window over sample indices: [i, j) spans <= window_s.
        j = 0
        for i in range(n):
            if j < i + 1:
                j = i
            while j < n and ts[j] - ts[i] <= window_s:
                j += 1
            count = j - i
            mean = (pre_norm[j] - pre_norm[i]) / count
            if best is None or mean > best["divergence"]:
                best = {
                    "series": name,
                    "start": ts[i],
                    "end": ts[j - 1],
                    "divergence": mean,
                    "candidate_mean": (pre_cand[j] - pre_cand[i]) / count,
                    "reference_mean": (pre_ref[j] - pre_ref[i]) / count,
                }
    return best
