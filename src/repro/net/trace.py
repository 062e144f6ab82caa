"""Bandwidth traces and synthetic trace generators.

The paper replays real Wi-Fi and cellular traces (from the Zhuge
dataset) through Mahimahi; each trace is a series of available-bandwidth
samples at 200 ms intervals, with a median of 55 Mbps and 25th/75th
percentiles of 29/125 Mbps across the sampled traces. We reproduce that
format and those aggregate statistics with synthetic generators, one per
network class, each with the qualitative character the paper describes:

* Wi-Fi — high mean, slow fading plus occasional sharp dips (contention).
* 4G  — lower mean, frequent deep drops (handover / scheduler stalls).
* 5G  — very high but volatile (beam/blockage swings).
* campus — diurnal Wi-Fi used for the real-world experiment (Fig. 26).
* weak — canteen/coffee-shop/airport-style traces used for Table 3.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.sim.rng import RngStream

#: Paper trace format: one bandwidth sample every 200 ms.
TRACE_INTERVAL_S = 0.2


@dataclass
class BandwidthTrace:
    """Piecewise-constant available-bandwidth schedule.

    ``timestamps`` are sample start times in seconds; ``rates_bps`` the
    available bandwidth (bits/second) from that time until the next
    sample. The trace loops if queried past its end, matching how
    Mahimahi replays trace files.
    """

    timestamps: Sequence[float]
    rates_bps: Sequence[float]
    name: str = "trace"

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.rates_bps):
            raise ValueError("timestamps and rates must be the same length")
        if len(self.timestamps) == 0:
            raise ValueError("trace must contain at least one sample")
        ts = list(self.timestamps)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("timestamps must be strictly increasing")
        if any(r < 0 for r in self.rates_bps):
            raise ValueError("rates must be non-negative")
        self._ts = np.asarray(self.timestamps, dtype=float)
        self._rates = np.asarray(self.rates_bps, dtype=float)
        self._ts_list = [float(x) for x in self._ts]
        self._rates_list = [float(r) for r in self._rates]
        #: monotonic lookup cursor: simulation time only moves forward,
        #: so consecutive rate_at() calls resolve in O(1) from here.
        self._cursor = 0
        #: flat traces answer every lookup with the same value; skip the
        #: cursor machinery entirely for them (constant-rate benches).
        rates = self._rates_list
        self._flat_rate = rates[0] if all(r == rates[0] for r in rates) else None
        if len(self._ts) == 1:
            self._duration = TRACE_INTERVAL_S
        else:
            # Assume the final sample lasts as long as the median interval.
            step = float(np.median(np.diff(self._ts)))
            self._duration = float(self._ts[-1] - self._ts[0] + step)

    def rate_at(self, t: float) -> float:
        """Available bandwidth (bps) at simulation time ``t`` (loops).

        Fast path: a monotonic cursor. The simulator queries with
        non-decreasing ``t``, so the target sample is almost always the
        cursor's or the next one; backward jumps (a trace-loop wraparound
        or an out-of-order analysis query) fall back to bisect.
        """
        flat = self._flat_rate
        if flat is not None:
            return flat
        if t < 0:
            t = 0.0
        span = self._duration
        ts = self._ts_list
        local = ts[0] + math.fmod(t, span) if span > 0 else ts[0]
        i = self._cursor
        if ts[i] <= local:
            n = len(ts) - 1
            while i < n and ts[i + 1] <= local:
                i += 1
        else:
            i = bisect.bisect_right(ts, local) - 1
            if i < 0:
                i = 0
        self._cursor = i
        return self._rates_list[i]

    def next_change_after(self, t: float) -> float:
        """Absolute simulation time of the next rate change after ``t``.

        The batch engine serializes whole packet trains at one sampled
        rate; this bound tells it how far that sample stays valid. Flat
        traces never change (``inf``). Looping is honoured: past the end
        of the trace the boundaries repeat with the trace period.
        """
        flat = self._flat_rate
        if flat is not None:
            return math.inf
        if t < 0:
            t = 0.0
        span = self._duration
        ts = self._ts_list
        if span <= 0 or len(ts) == 1:
            return math.inf
        base = t - math.fmod(t, span)
        local = ts[0] + (t - base)
        # First sample boundary strictly after ``local`` (bisect keeps
        # this O(log n); the call sits outside the per-packet hot path).
        i = bisect.bisect_right(ts, local)
        if i < len(ts):
            return base + (ts[i] - ts[0])
        # Wraps: the next boundary is the start of the next loop.
        return base + span

    @classmethod
    def constant(cls, rate_bps: float, duration: float = 60.0,
                 name: str = "constant") -> "BandwidthTrace":
        """A flat trace — handy for unit tests and calibration."""
        n = max(2, int(duration / TRACE_INTERVAL_S))
        return cls(
            timestamps=[i * TRACE_INTERVAL_S for i in range(n)],
            rates_bps=[rate_bps] * n,
            name=name,
        )


def _ou_series(rng: RngStream, n: int, mean: float, volatility: float,
               reversion: float) -> np.ndarray:
    """Mean-reverting (Ornstein-Uhlenbeck-like) series in log-space.

    Modelling bandwidth in log-space keeps samples positive and makes
    multiplicative dips natural.
    """
    log_mean = math.log(mean)
    x = np.empty(n)
    x[0] = log_mean + rng.normal(0.0, volatility)
    for i in range(1, n):
        x[i] = x[i - 1] + reversion * (log_mean - x[i - 1]) + rng.normal(0.0, volatility)
    return np.exp(x)


def _apply_dips(rng: RngStream, rates: np.ndarray, dip_prob: float,
                dip_depth: float, dip_len: int) -> np.ndarray:
    """Overlay sharp multiplicative dips (handover, contention bursts)."""
    out = rates.copy()
    i = 0
    while i < len(out):
        if rng.random() < dip_prob:
            depth = dip_depth * (0.5 + rng.random())
            depth = min(depth, 0.95)
            length = max(1, int(dip_len * (0.5 + rng.random())))
            out[i:i + length] *= (1.0 - depth)
            i += length
        else:
            i += 1
    return out


def make_wifi_trace(rng: RngStream, duration: float = 120.0,
                    mean_mbps: float = 80.0, name: str = "wifi") -> BandwidthTrace:
    """Synthetic Wi-Fi: high mean, slow fading, occasional contention dips."""
    n = max(2, int(duration / TRACE_INTERVAL_S))
    rates = _ou_series(rng, n, mean_mbps * 1e6, volatility=0.10, reversion=0.08)
    rates = _apply_dips(rng, rates, dip_prob=0.01, dip_depth=0.5, dip_len=5)
    return BandwidthTrace(
        timestamps=[i * TRACE_INTERVAL_S for i in range(n)],
        rates_bps=rates.tolist(),
        name=name,
    )


def make_4g_trace(rng: RngStream, duration: float = 120.0,
                  mean_mbps: float = 35.0, name: str = "4g") -> BandwidthTrace:
    """Synthetic 4G: moderate mean, frequent deep drops."""
    n = max(2, int(duration / TRACE_INTERVAL_S))
    rates = _ou_series(rng, n, mean_mbps * 1e6, volatility=0.16, reversion=0.10)
    rates = _apply_dips(rng, rates, dip_prob=0.03, dip_depth=0.7, dip_len=8)
    return BandwidthTrace(
        timestamps=[i * TRACE_INTERVAL_S for i in range(n)],
        rates_bps=rates.tolist(),
        name=name,
    )


def make_5g_trace(rng: RngStream, duration: float = 120.0,
                  mean_mbps: float = 130.0, name: str = "5g") -> BandwidthTrace:
    """Synthetic 5G: very high but volatile (blockage swings).

    Blockage dips are sharp but floored around the cell's 4G anchor —
    real NSA deployments fall back to LTE rather than to near-zero, and
    the Zhuge corpus' 25th percentile sits at ~29 Mbps.
    """
    n = max(2, int(duration / TRACE_INTERVAL_S))
    rates = _ou_series(rng, n, mean_mbps * 1e6, volatility=0.15, reversion=0.06)
    rates = _apply_dips(rng, rates, dip_prob=0.02, dip_depth=0.5, dip_len=4)
    floor = 0.15 * mean_mbps * 1e6
    rates = np.maximum(rates, floor)
    return BandwidthTrace(
        timestamps=[i * TRACE_INTERVAL_S for i in range(n)],
        rates_bps=rates.tolist(),
        name=name,
    )


def make_campus_wifi_trace(rng: RngStream, duration: float = 200.0,
                           hour_of_day: float = 14.0,
                           name: str = "campus") -> BandwidthTrace:
    """Campus Wi-Fi with diurnal load: busier at midday, quieter at night.

    Used by the Fig. 26 real-world substitution — the 24-hour sweep in
    that bench varies ``hour_of_day``.
    """
    # Peak contention ~13:00-19:00; load factor in [0, 1].
    load = 0.5 + 0.5 * math.cos((hour_of_day - 16.0) / 24.0 * 2 * math.pi)
    mean_mbps = 90.0 - 55.0 * load
    dip_prob = 0.01 + 0.05 * load
    n = max(2, int(duration / TRACE_INTERVAL_S))
    rates = _ou_series(rng, n, mean_mbps * 1e6, volatility=0.12, reversion=0.08)
    rates = _apply_dips(rng, rates, dip_prob=dip_prob, dip_depth=0.6, dip_len=6)
    return BandwidthTrace(
        timestamps=[i * TRACE_INTERVAL_S for i in range(n)],
        rates_bps=rates.tolist(),
        name=f"{name}-{hour_of_day:04.1f}h",
    )


def make_weak_network_trace(rng: RngStream, duration: float = 120.0,
                            venue: str = "canteen",
                            name: str | None = None) -> BandwidthTrace:
    """Weak-network traces for the production experiment (Table 3).

    The paper collected these in canteens, coffee shops, and airports —
    congested shared Wi-Fi / cellular with low means and violent swings.
    """
    params = {
        "canteen": dict(mean_mbps=20.0, volatility=0.15, dip_prob=0.03, dip_depth=0.55),
        "coffee_shop": dict(mean_mbps=24.0, volatility=0.12, dip_prob=0.025, dip_depth=0.5),
        "airport": dict(mean_mbps=16.0, volatility=0.18, dip_prob=0.035, dip_depth=0.6),
    }
    if venue not in params:
        raise ValueError(f"unknown venue {venue!r}; choose from {sorted(params)}")
    p = params[venue]
    n = max(2, int(duration / TRACE_INTERVAL_S))
    rates = _ou_series(rng, n, p["mean_mbps"] * 1e6, volatility=p["volatility"],
                       reversion=0.10)
    rates = _apply_dips(rng, rates, dip_prob=p["dip_prob"],
                        dip_depth=p["dip_depth"], dip_len=8)
    rates = np.maximum(rates, 0.2 * p["mean_mbps"] * 1e6)
    return BandwidthTrace(
        timestamps=[i * TRACE_INTERVAL_S for i in range(n)],
        rates_bps=rates.tolist(),
        name=name or f"weak-{venue}",
    )


def make_step_trace(high_mbps: float, low_mbps: float, step_at: float,
                    duration: float = 20.0, recover_at: float | None = None,
                    name: str = "step") -> BandwidthTrace:
    """Bandwidth step (drop then optional recovery) for CC reaction tests."""
    n = max(2, int(duration / TRACE_INTERVAL_S))
    timestamps = [i * TRACE_INTERVAL_S for i in range(n)]
    rates = []
    for t in timestamps:
        if t < step_at:
            rates.append(high_mbps * 1e6)
        elif recover_at is not None and t >= recover_at:
            rates.append(high_mbps * 1e6)
        else:
            rates.append(low_mbps * 1e6)
    return BandwidthTrace(timestamps=timestamps, rates_bps=rates, name=name)


#: the synthetic trace classes, by name.
TRACE_CLASSES = {"wifi": make_wifi_trace, "4g": make_4g_trace,
                 "5g": make_5g_trace, "campus": make_campus_wifi_trace}


def trace_by_kind(kind: str, rng: RngStream,
                  duration: float) -> BandwidthTrace:
    """A trace by class name, ``weak:<venue>`` or ``const:<mbps>`` (named
    ``const:<mbps:g>``, so two rates are two grid cells); a synthetic
    one draws from ``rng``. A kind no maker takes raises ``ValueError``
    with a one-line message naming it."""
    if kind.startswith("const:"):
        try:
            mbps = float(kind.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"trace {kind!r}: 'const:<mbps>' wants a "
                             "number of Mbps") from None
        return BandwidthTrace.constant(mbps * 1e6, duration=duration,
                                       name=f"const:{mbps:g}")
    if kind.startswith("weak:"):
        try:
            return make_weak_network_trace(rng, duration=duration,
                                           venue=kind.split(":", 1)[1])
        except ValueError as exc:        # an unknown venue
            raise ValueError(f"trace {kind!r}: {exc}") from None
    if kind not in TRACE_CLASSES:
        raise ValueError(
            f"unknown trace {kind!r}: choose from {sorted(TRACE_CLASSES)}, "
            "'const:<mbps>', or 'weak:<venue>'")
    return TRACE_CLASSES[kind](rng, duration=duration)


@dataclass
class TraceLibrary:
    """The nine-trace corpus used by the main experiments.

    Mirrors the paper's sampling of the Zhuge dataset: three traces per
    network class, tuned so the cross-trace median bandwidth is ~55 Mbps
    with 25th/75th percentiles near 29/125 Mbps.
    """

    seed: int = 1
    duration: float = 120.0
    traces: dict[str, list[BandwidthTrace]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.traces:
            self.traces = {"wifi": [], "4g": [], "5g": []}
            makers = {"wifi": make_wifi_trace, "4g": make_4g_trace, "5g": make_5g_trace}
            means = {
                "wifi": [55.0, 80.0, 110.0],
                "4g": [25.0, 35.0, 50.0],
                "5g": [90.0, 130.0, 170.0],
            }
            for cls, maker in makers.items():
                for i, mean in enumerate(means[cls]):
                    rng = RngStream(self.seed, f"trace.{cls}.{i}")
                    self.traces[cls].append(
                        maker(rng, duration=self.duration, mean_mbps=mean,
                              name=f"{cls}-{i}")
                    )

    def by_class(self, cls: str) -> list[BandwidthTrace]:
        if cls not in self.traces:
            raise KeyError(f"unknown trace class {cls!r}")
        return list(self.traces[cls])
