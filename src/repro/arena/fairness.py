"""Fairness accounting for multi-flow arena runs.

Computes the quantities the paper's fairness discussion (web cross-
traffic, Fig. 24) suggests for RTC-vs-RTC sharing: Jain's fairness
index over per-flow throughput, per-flow shares of throughput/latency/
quality over a trailing window, and time-to-convergence for late
joiners. Everything works off per-flow
:class:`~repro.rtc.metrics.SessionMetrics` — no simulator state is
needed, so these helpers also apply to recorded results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.rtc.metrics import SessionMetrics, percentile


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal shares; ``1/n`` means one flow has
    everything. Edge conventions: an empty sequence or all-zero shares
    are vacuously fair (1.0) — nobody is being starved relative to
    anybody else. Negative values are invalid.
    """
    vals = [float(v) for v in values]
    if any(v < 0 for v in vals):
        raise ValueError("Jain's index is defined for non-negative shares")
    if not vals:
        return 1.0
    total = sum(vals)
    square_sum = sum(v * v for v in vals)
    if square_sum == 0.0:
        return 1.0
    return (total * total) / (len(vals) * square_sum)


def window_throughput_bps(metrics: SessionMetrics, t0: float,
                          t1: float) -> float:
    """Mean send rate (bits/s) over ``[t0, t1)`` from send events."""
    if t1 <= t0:
        return 0.0
    log = metrics.send_events
    lo, hi = log.times.searchsorted((t0, t1))
    return int(log.sizes[lo:hi].sum()) * 8.0 / (t1 - t0)


@dataclass
class FlowShare:
    """One flow's slice of the bottleneck over the report window."""

    flow_id: int
    baseline: str
    throughput_bps: float
    #: fraction of the summed throughput across flows (0 when idle).
    share: float
    p95_latency_s: float
    mean_vmaf: float
    fps: float


@dataclass
class FairnessReport:
    """Fairness summary over the trailing ``window_s`` of a run."""

    window_s: float
    t0: float
    t1: float
    shares: List[FlowShare] = field(default_factory=list)
    jain_throughput: float = 1.0
    #: seconds from each flow's join until its rate settled, or None if
    #: it never converged (keyed by flow id; only measured flows appear).
    convergence_s: Dict[int, Optional[float]] = field(default_factory=dict)

    @property
    def worst_p95_latency_s(self) -> float:
        finite = [s.p95_latency_s for s in self.shares
                  if not math.isnan(s.p95_latency_s)]
        return max(finite) if finite else float("nan")

    @classmethod
    def from_flows(cls, flows: Dict[int, SessionMetrics],
                   duration: float,
                   baselines: Optional[Dict[int, str]] = None,
                   starts: Optional[Dict[int, float]] = None,
                   window_s: float = 10.0) -> "FairnessReport":
        """Build the report over the final ``window_s`` of the run."""
        t1 = duration
        t0 = max(0.0, t1 - window_s)
        report = cls(window_s=t1 - t0, t0=t0, t1=t1)
        rates = {fid: window_throughput_bps(m, t0, t1)
                 for fid, m in flows.items()}
        total = sum(rates.values())
        for fid in sorted(flows):
            m = flows[fid]
            window_lat = [f.e2e_latency for f in m.displayed_frames()
                          if t0 <= f.displayed_at < t1 + 1.0]
            shown = sum(1 for f in m.displayed_frames()
                        if t0 <= f.displayed_at < t1)
            report.shares.append(FlowShare(
                flow_id=fid,
                baseline=(baselines or {}).get(fid, "?"),
                throughput_bps=rates[fid],
                share=rates[fid] / total if total > 0 else 0.0,
                p95_latency_s=percentile(window_lat, 95),
                mean_vmaf=_window_vmaf(m, t0, t1),
                fps=shown / (t1 - t0) if t1 > t0 else 0.0,
            ))
        report.jain_throughput = jain_index(list(rates.values()))
        for fid, m in flows.items():
            start = (starts or {}).get(fid, 0.0)
            report.convergence_s[fid] = time_to_convergence(
                m, start=start, duration=duration)
        return report

    def rows(self) -> List[dict]:
        """Plain-dict rows for tables / JSON summaries."""
        out = []
        for s in self.shares:
            conv = self.convergence_s.get(s.flow_id)
            out.append({
                "flow_id": s.flow_id,
                "baseline": s.baseline,
                "throughput_mbps": s.throughput_bps / 1e6,
                "share": s.share,
                "p95_latency_ms": s.p95_latency_s * 1e3,
                "mean_vmaf": s.mean_vmaf,
                "fps": s.fps,
                "convergence_s": conv,
            })
        return out


def _window_vmaf(metrics: SessionMetrics, t0: float, t1: float) -> float:
    frames = [f.quality_vmaf for f in metrics.displayed_frames()
              if t0 <= f.displayed_at < t1]
    if not frames:
        return float("nan")
    return float(sum(frames) / len(frames))


def time_to_convergence(metrics: SessionMetrics, start: float = 0.0,
                        duration: Optional[float] = None,
                        bin_s: float = 1.0,
                        tolerance: float = 0.2) -> Optional[float]:
    """Seconds from ``start`` until the flow's send rate settled.

    The send-event series is binned into ``bin_s`` buckets from the
    flow's join time; the steady-state rate is the mean over the final
    three bins. Convergence is the earliest bin after which *every*
    subsequent bin stays within ``tolerance`` (relative) of that steady
    rate. Returns ``None`` when the flow never settles, and ``0.0``
    when it is within tolerance from its very first bin.
    """
    if duration is None:
        duration = metrics.duration
    span = duration - start
    log = metrics.send_events
    if span < 2 * bin_s or not log:
        return None
    nbins = int(span // bin_s)
    # Same floor division, same per-packet terms, summed in send order.
    idx = (log.times - start) // bin_s
    keep = (idx >= 0) & (idx < nbins)
    bins = np.bincount(idx[keep].astype(np.int64),
                       weights=log.sizes[keep] * 8.0 / bin_s,
                       minlength=nbins).tolist()
    tail = bins[-3:] if nbins >= 3 else bins
    steady = sum(tail) / len(tail)
    if steady <= 0:
        return None
    band = tolerance * steady
    converged_from = None
    for i, rate in enumerate(bins):
        if abs(rate - steady) <= band:
            if converged_from is None:
                converged_from = i
        else:
            converged_from = None
    if converged_from is None:
        return None
    return converged_from * bin_s
