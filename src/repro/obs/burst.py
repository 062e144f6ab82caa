"""Online sending-burstiness analyzer.

The paper's subject is *sending burstiness*: how tightly packet
releases cluster on the wire and how long packets sit in the pacer
before release. This module turns the telemetry layer's columnar
``wire`` rows (:class:`repro.obs.recorder.WireRows`, one per packet
leaving the pacer) into streaming views of those distributions, a batch
of rows at a time:

* ``burst.ipg_s`` — inter-packet gaps (a paced flow concentrates mass
  near ``packet_bytes / pacing_rate``, a bursty one in the first bucket);
* ``burst.train_packets`` / ``_bytes`` / ``_duration_s`` — burst
  trains, maximal runs of sends separated by gaps ≤ ``TRAIN_GAP_S``
  (QUIC Steps compares pacer implementations with the same construction);
* ``burst.pacing_delay_s`` — enqueue → wire, the paper's pacing latency;
* windowed exact p50/p99 of pacing delays (nearest rank), for
  heartbeats and the series recorder.

Everything is deterministic (fixed buckets, no randomness) and observe-
only, so golden fingerprints hold with it on. The instruments live in
the session's :class:`~repro.obs.registry.MetricRegistry`, so export and
``repro trace`` pick them up with no extra wiring.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs.quantiles import SampleWindow
from repro.obs.registry import MetricRegistry

__all__ = [
    "BurstAnalyzer",
    "TRAIN_GAP_S",
    "IPG_BUCKETS_S",
    "TRAIN_SIZE_BUCKETS",
    "TRAIN_DURATION_BUCKETS_S",
    "PACING_DELAY_BUCKETS_S",
]

#: a gap longer than this closes the current burst train. 2 ms is
#: ~1/3 of a 60 fps frame interval and well above back-to-back socket
#: writes, so trains capture "burst emitted at line rate" rather than
#: "packets of the same frame".
TRAIN_GAP_S = 0.002

#: inter-packet-gap buckets (seconds): 100 us resolution at the bottom
#: where pacing differences live, stretching to one frame interval.
IPG_BUCKETS_S = (0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.004,
                 0.008, 0.0167, 0.033, 0.1)

#: burst-train size buckets (packets). ACE's token bucket caps trains
#: near bucket_bytes/packet_bytes, default 10 packets — the layout
#: brackets that regime.
TRAIN_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0)

#: burst-train duration buckets (seconds).
TRAIN_DURATION_BUCKETS_S = (0.0005, 0.001, 0.002, 0.004, 0.008,
                            0.0167, 0.033, 0.1)

#: pacing-delay buckets (seconds): finer than the generic latency
#: buckets at the low end — a healthy pacer keeps delays in the
#: low milliseconds and the tail is the whole story.
PACING_DELAY_BUCKETS_S = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                          0.05, 0.1, 0.25, 0.5, 1.0)

#: recent-window ring size for the exact windowed pacing quantiles.
#: 2048 packets is ~1 s of wire time at 20 Mbps with 1200 B packets.
WINDOW = 2048


class BurstAnalyzer:
    """Streaming burstiness statistics over the ``wire`` probe rows.

    One instance per session, owned by :class:`~repro.obs.recorder.
    Telemetry`, which hands :meth:`on_rows` every batch of new rows
    (wire timestamp, size, and the pacing delay the pacer measured) at
    the telemetry tick or on first read. Batch boundaries are invisible:
    any split of the same row sequence leaves identical state.
    """

    __slots__ = ("registry",
                 "_h_ipg", "_h_train_packets", "_h_train_bytes",
                 "_h_train_duration", "_h_pacing",
                 "_c_packets", "_c_trains",
                 "_g_last_train_packets", "_g_last_train_bytes",
                 "_last_t", "_train_start", "_train_packets", "_train_bytes",
                 "_recent_pacing")

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry
        self._h_ipg = registry.histogram(
            "burst.ipg_s", buckets=IPG_BUCKETS_S,
            help="Inter-packet gap on the wire (seconds)")
        self._h_train_packets = registry.histogram(
            "burst.train_packets", buckets=TRAIN_SIZE_BUCKETS,
            help="Packets per burst train (gap <= train_gap_s)")
        self._h_train_bytes = registry.histogram(
            "burst.train_bytes",
            buckets=tuple(b * 1200.0 for b in TRAIN_SIZE_BUCKETS),
            help="Bytes per burst train")
        self._h_train_duration = registry.histogram(
            "burst.train_duration_s", buckets=TRAIN_DURATION_BUCKETS_S,
            help="First-to-last wire time of a burst train (seconds)")
        self._h_pacing = registry.histogram(
            "burst.pacing_delay_s", buckets=PACING_DELAY_BUCKETS_S,
            help="Per-packet pacing delay, enqueue to wire (seconds)")
        # record=False: these bump per packet / per train — aggregate
        # only, like the histograms, so the record store keeps its
        # span-level signal-to-noise.
        self._c_packets = registry.counter(
            "burst.packets", record=False,
            help="Packets seen by the burst analyzer")
        self._c_trains = registry.counter(
            "burst.trains", record=False,
            help="Completed burst trains")
        self._g_last_train_packets = registry.gauge(
            "burst.last_train_packets", record=False,
            help="Size of the most recently completed burst train")
        self._g_last_train_bytes = registry.gauge(
            "burst.last_train_bytes", record=False,
            help="Bytes in the most recently completed burst train")
        #: wire time of the last row seen; with the three ``_train_*``
        #: fields it is the in-progress train carried between batches.
        self._last_t: Optional[float] = None
        self._train_start = 0.0
        self._train_packets = 0
        self._train_bytes = 0.0
        self._recent_pacing = SampleWindow(WINDOW)

    # -- feeding ---------------------------------------------------------

    def on_rows(self, t: np.ndarray, sizes: np.ndarray,
                pacing_delays: np.ndarray) -> None:
        """Consume a batch of wire rows (``t`` nondecreasing; a NaN
        pacing delay means "not measured")."""
        n = len(t)
        if not n:
            return
        self._c_packets.inc(float(n))
        unmeasured = np.isnan(pacing_delays)
        if unmeasured.any():
            pacing_delays = pacing_delays[~unmeasured]
        self._h_pacing.observe_many(pacing_delays)
        self._recent_pacing.extend(pacing_delays)
        # gaps[i] is the gap in front of row i; a gap above TRAIN_GAP_S
        # starts a new train there. The very first row has no gap.
        gaps = np.empty(n)
        np.subtract(t[1:], t[:-1], out=gaps[1:])
        prev_t = self._last_t
        if prev_t is None:
            gaps = gaps[1:]
            starts = (gaps > TRAIN_GAP_S).nonzero()[0] + 1
        else:
            gaps[0] = t[0] - prev_t
            starts = (gaps > TRAIN_GAP_S).nonzero()[0]
        self._h_ipg.observe_many(gaps)
        self._last_t = float(t[-1])
        # Segment k spans rows [begins[k], ends[k]); the first continues
        # the carried train, all but the last close inside this batch.
        cuts = np.concatenate(((0,), starts, (n,)))
        begins, ends = cuts[:-1], cuts[1:]
        cum = np.concatenate(((0.0,), sizes.cumsum(dtype=np.float64)))
        packets = (ends - begins).astype(np.float64)
        nbytes = cum[ends] - cum[begins]
        first = t[begins]
        last = t[ends - 1]
        if self._train_packets:
            packets[0] += self._train_packets
            nbytes[0] += self._train_bytes
            first[0] = self._train_start
            if not ends[0]:
                last[0] = prev_t
        elif not ends[0]:
            # Nothing carried (first rows after flush()) and row 0 opens
            # a train: there is no train to close in front of it.
            packets, nbytes = packets[1:], nbytes[1:]
            first, last = first[1:], last[1:]
        if len(packets) > 1:
            self._h_train_packets.observe_many(packets[:-1])
            self._h_train_bytes.observe_many(nbytes[:-1])
            self._h_train_duration.observe_many((last - first)[:-1])
            self._c_trains.inc(float(len(packets) - 1))
            self._g_last_train_packets.set(float(packets[-2]))
            self._g_last_train_bytes.set(float(nbytes[-2]))
        self._train_packets = int(packets[-1])
        self._train_bytes = float(nbytes[-1])
        self._train_start = float(first[-1])

    def on_packet(self, now: float, size_bytes: float,
                  pacing_delay: Optional[float] = None) -> None:
        """Record one wire emission at time ``now``: a batch of one."""
        self.on_rows(np.array((now,), dtype=np.float64),
                     np.array((size_bytes,), dtype=np.float64),
                     np.array((np.nan if pacing_delay is None
                               else pacing_delay,), dtype=np.float64))

    def flush(self) -> None:
        """Close the in-progress train (end of session)."""
        if self._train_packets:
            packets = float(self._train_packets)
            self._h_train_packets.observe(packets)
            self._h_train_bytes.observe(self._train_bytes)
            self._h_train_duration.observe(self._last_t - self._train_start)
            self._c_trains.inc()
            self._g_last_train_packets.set(packets)
            self._g_last_train_bytes.set(self._train_bytes)
            self._train_packets = 0
            self._train_bytes = 0.0

    # -- reading ---------------------------------------------------------

    def pacing_percentiles(self, pcts=(50.0, 99.0)):
        """Windowed exact pacing-delay percentiles."""
        return self._recent_pacing.percentiles(pcts)

    def recent_pacing(self) -> np.ndarray:
        """The windowed pacing delays themselves, oldest first (the live
        fleet pools every session's tail)."""
        return self._recent_pacing.values
