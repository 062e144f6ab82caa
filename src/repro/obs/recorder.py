"""Telemetry recorder: structured records, probe rows, flight ring, tick.

:class:`Telemetry` is the session-scoped hub the instrumented stack
writes into. It is *opt-in*: components hold ``telemetry = None`` by
default and guard every emission with a ``None`` check, so a session
without telemetry pays one attribute read per instrumented site and the
perf gate (``scripts/check_perf.py``) holds that to the committed
baseline.

Two streams, one emission order. Frame stages, metric samples and
annotations are :class:`TelemetryRecord` objects. The per-packet
``wire`` stream is columnar (:class:`WireRows`): the reference loop and
live mode append a row per :meth:`Telemetry.packet_wire` call, the batch
engine a release train per :meth:`Telemetry.wire_train`, and the
consumers (burst analyzer, span ``wire_first``/``wire_last``) take
pending rows in bulk at the telemetry tick or on first read. The event
log (unless ``keep_events=False``) and the bounded
:class:`FlightRecorder` ring — the window the invariant auditor dumps on
a violation and ``repro fuzz`` attaches to shrunk reproductions — are
views that materialise rows as records on demand, in emission order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.obs.burst import BurstAnalyzer
from repro.obs.registry import MetricRegistry
from repro.obs.spans import SpanBook

if TYPE_CHECKING:
    from repro.live.clock import Clock, ScheduledCall
    from repro.obs.slo import SloRule, SloWatchdog

#: default flight-recorder depth (records, not seconds).
DEFAULT_FLIGHT_CAPACITY = 512
#: default metric sampling cadence (seconds).
DEFAULT_TICK_INTERVAL_S = 0.1
#: pending wire rows are consumed at the tick or on first read, and at
#: the latest when this many wait (no tick, no reader: still bounded).
MAX_PENDING_ROWS = 4096
_NAN = float("nan")


@dataclass(slots=True)
class TelemetryRecord:
    """One structured telemetry event.

    ``kind`` is the stream it belongs to: ``"span"`` (frame-stage
    stamps), ``"metric"`` (registry samples), ``"event"`` (free-form
    annotations, e.g. audit violations).
    """

    time: float
    kind: str
    name: str
    fields: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {"t": round(self.time, 9), "kind": self.kind, "name": self.name}
        obj.update(self.fields)
        return obj


def _stack(chunks) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(column) for column in zip(*chunks))


class WireRows:
    """Append-only columnar store of the ``wire`` stream: one row per
    fresh media packet leaving the pacer (DESIGN §10 maps each column to
    its paper quantity).

    * ``t`` — wire time: differences are the inter-packet gaps, maximal
      runs of small gaps the burst trains; per frame, its first/last are
      the span's ``wire_first``/``wire_last``.
    * ``frame_id``, ``size`` — the frame carried, bytes on the wire.
    * ``delay`` — pacer enqueue → wire, the paper's pacing latency (NaN
      when the pacer did not measure it).
    * ``index`` — emission index: how many records were emitted before
      the row, which places it in the event log.

    Two producers: one row at a time straight onto the column lists (the
    per-packet hot path), or a whole train of arrays via :meth:`extend`.
    :meth:`take` hands the consumers everything new as one batch;
    ``keep`` bounds what stays readable afterwards to the last rows.
    """

    __slots__ = ("t", "frame_id", "size", "delay", "index", "keep",
                 "_chunks", "_fresh", "_sealed", "_taken")

    def __init__(self, keep: Optional[int] = None) -> None:
        self.t: list[float] = []
        self.frame_id: list[int] = []
        self.size: list[float] = []
        self.delay: list[float] = []
        self.index: list[int] = []
        self.keep = keep
        #: array chunks, oldest first; the last ``_fresh`` are not taken.
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._fresh = 0
        self._sealed = 0  # rows ever moved into chunks
        self._taken = 0   # rows ever handed out by take()

    def __len__(self) -> int:
        """Rows ever appended (retained or not)."""
        return self._sealed + len(self.t)

    @property
    def pending(self) -> int:
        return self._sealed - self._taken + len(self.t)

    def _push(self, chunk: tuple[np.ndarray, ...]) -> None:
        self._chunks.append(chunk)
        self._fresh += 1
        self._sealed += len(chunk[0])

    def _seal(self) -> None:
        """Move the column lists into an array chunk."""
        if self.t:
            self._push((np.asarray(self.t, dtype=np.float64),
                        np.asarray(self.frame_id, dtype=np.int64),
                        np.asarray(self.size),
                        np.asarray(self.delay, dtype=np.float64),
                        np.asarray(self.index, dtype=np.int64)))
            for column in (self.t, self.frame_id, self.size, self.delay,
                           self.index):
                column.clear()

    def extend(self, frame_id: int, t: np.ndarray, size: np.ndarray,
               delay: np.ndarray, index: int) -> None:
        """Append one frame's release train (arrays kept, not copied)."""
        self._seal()
        n = len(t)
        self._push((t, np.full(n, frame_id), size, delay, np.full(n, index)))

    def take(self) -> Optional[tuple[np.ndarray, ...]]:
        """Everything appended since the last call, as one batch
        (``None`` when there is nothing new)."""
        self._seal()
        fresh = self._fresh
        if not fresh:
            return None
        batch = self._chunks[-1] if fresh == 1 else _stack(
            self._chunks[-fresh:])
        self._chunks[-fresh:] = [batch]
        self._fresh = 0
        self._taken = self._sealed
        if self.keep is not None:
            self._chunks = [tuple(c[-self.keep:]
                                  for c in _stack(self._chunks))]
        return batch

    def columns(self) -> tuple[np.ndarray, ...]:
        """Every readable row, oldest first."""
        self._seal()
        if not self._chunks:
            return tuple(np.empty(0, dtype=np.int64) for _ in range(5))
        return _stack(self._chunks)


def _merge(records, first: int, rows) -> list[TelemetryRecord]:
    """Interleave ``records`` (emitted ``first``-th, ``first+1``-th, ...)
    with wire ``rows`` materialised as records, in emission order."""
    t, frame_id, size, _delay, index = rows
    out: list[TelemetryRecord] = []
    done = 0
    for when, fid, nbytes, position in zip(t.tolist(), frame_id.tolist(),
                                           size.tolist(), index.tolist()):
        stop = position - first
        if stop > done:
            out.extend(records[done:stop])
            done = stop
        out.append(TelemetryRecord(when, "span", "wire",
                                   {"frame_id": fid, "size": nbytes}))
    out.extend(records[done:])
    return out


class FlightRecorder:
    """Bounded ring of the most recent telemetry records.

    ``rows`` is the session's :class:`WireRows`, if any: the window then
    covers both streams, materialised by :meth:`records`.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 rows: Optional[WireRows] = None) -> None:
        self.capacity = capacity
        self._ring: deque[TelemetryRecord] = deque(maxlen=capacity)
        self._rows = rows
        #: records appended so far — the emission index of the next row.
        self.appended = 0

    @property
    def total_seen(self) -> int:
        return self.appended + (len(self._rows) if self._rows is not None
                                else 0)

    def append(self, record: TelemetryRecord) -> None:
        self.appended += 1
        self._ring.append(record)

    def records(self) -> list[TelemetryRecord]:
        ring = list(self._ring)
        if self._rows is None or not len(self._rows):
            return ring
        tail = tuple(c[-self.capacity:] for c in self._rows.columns())
        return _merge(ring, self.appended - len(ring),
                      tail)[-self.capacity:]

    def dump(self) -> str:
        """Human-readable dump of the window (newest last)."""
        from repro.obs.export import render_record
        ring = self.records()
        dropped = self.total_seen - len(ring)
        header = (f"flight recorder: last {len(ring)} of {self.total_seen} "
                  f"records ({dropped} older records rotated out)")
        return "\n".join([header] + [f"  {render_record(r)}" for r in ring])

    def __len__(self) -> int:
        return min(self.capacity, self.total_seen)


class Telemetry:
    """Session telemetry hub: registry + spans + event log + flight ring.

    ``clock`` may be attached lazily (:meth:`attach_clock`) — sim
    sessions construct their loop first, live sessions their wall clock
    inside ``run()``. Records carry the clock's ``now`` unless an
    explicit stamp is given.

    ``registry``, ``spans``, ``burst`` and ``events`` are properties
    that first consume pending wire rows: readers never see stale state.
    """

    def __init__(self, clock: Optional["Clock"] = None,
                 flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 tick_interval: Optional[float] = DEFAULT_TICK_INTERVAL_S,
                 keep_events: bool = True, burst: bool = True) -> None:
        self.clock = clock
        self.tick_interval = tick_interval
        self.keep_events = keep_events
        registry = self._registry = MetricRegistry(record=self._record_metric)
        self._spans = SpanBook()
        self._records: list[TelemetryRecord] = []
        self._events: tuple[tuple[int, int], list[TelemetryRecord]] = (
            (0, 0), [])
        #: ``wire`` probe rows (flight window's worth without event log).
        self.wire = WireRows(keep=None if keep_events else flight_capacity)
        self.flight = FlightRecorder(flight_capacity, self.wire)
        self._tick_handle: Optional["ScheduledCall"] = None
        #: streaming burstiness analyzer over the wire rows (observe-only,
        #: so it rides along whenever telemetry itself is on).
        self._burst: Optional[BurstAnalyzer] = (
            BurstAnalyzer(registry) if burst else None)
        #: set by ``BatchPipeline.install``: answers the occupancy gauges
        #: the batch engine holds in arrays (see obs.wiring).
        self.pipeline = None
        #: optional SLO watchdog evaluated on the telemetry tick.
        self.watchdog: Optional["SloWatchdog"] = None
        #: optional time-series recorder sampled on the telemetry tick.
        self.series = None
        #: displayed spans whose pacing component waits for wire rows.
        self._displayed: list = []
        self._frames_encoded = registry.counter(
            "frames.encoded", help="Frames produced by the encoder")
        self._frames_displayed = registry.counter(
            "frames.displayed", help="Frames that reached display")
        self._e2e_hist = registry.histogram(
            "frame.e2e_s", help="End-to-end frame latency in seconds")
        self._pacing_hist = registry.histogram(
            "frame.pacing_s", help="Pacer-residence time per frame in seconds")

    # ------------------------------------------------------------------
    # clock / tick plumbing
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    def attach_clock(self, clock: "Clock") -> "Telemetry":
        self.clock = clock
        return self

    def start_tick(self) -> None:
        """Begin the periodic gauge-sampling tick (no-op if disabled).

        The tick only *reads* component state through non-mutating
        sample functions, so scheduling it changes nothing about the
        simulated packet timeline.
        """
        if (self.clock is None or self.tick_interval is None
                or self._tick_handle is not None):
            return
        self._tick_handle = self.clock.call_later(
            self.tick_interval, self._tick, name="obs.tick")

    def stop_tick(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    def _tick(self) -> None:
        if self.watchdog is not None or self.series is not None:
            self._sync()  # the tick's own readers; else rows wait for one
        self._registry.sample_all()
        if self.watchdog is not None:
            self.watchdog.evaluate(self.now)
        if self.series is not None:
            self.series.sample(self.now)
        self._tick_handle = self.clock.call_later(
            self.tick_interval, self._tick, name="obs.tick")

    # ------------------------------------------------------------------
    # SLO watchdog
    # ------------------------------------------------------------------
    def attach_watchdog(self, rules: Optional[list["SloRule"]] = None, *,
                        pacing_p99_s: float = 0.25) -> "SloWatchdog":
        """Attach an SLO watchdog evaluated on every telemetry tick.

        Default rules watch the burst analyzer's pacing-delay tail and
        pacer-backlog drift (:func:`repro.obs.slo.session_slo_rules`).
        The watchdog publishes its ``slo.*`` mirror instruments into
        this registry, and every firing/cleared transition lands in the
        event log and flight ring as an ``slo.alert`` annotation.
        """
        from repro.obs.slo import SloWatchdog, session_slo_rules

        if rules is None:
            rules = session_slo_rules(pacing_p99_s=pacing_p99_s)

        def _on_alert(event: dict) -> None:
            fields = {k: v for k, v in event.items() if k != "kind"}
            self.annotate("slo.alert", **fields)

        self.watchdog = SloWatchdog(rules, source=self._registry,
                                    publish=self._registry,
                                    on_alert=_on_alert)
        return self.watchdog

    # ------------------------------------------------------------------
    # time-series recording
    # ------------------------------------------------------------------
    def attach_series(self, *, max_samples: Optional[int] = None):
        """Attach a bounded time-series recorder sampled on every tick.

        Each tick appends one row of gauge/counter values (and burst
        pacing quantiles) to columnar arrays — a pure observer, so
        fixed-seed fingerprints stay bit-identical with recording on.
        Idempotent: a second call returns the existing recorder.
        """
        from repro.obs.timeseries import DEFAULT_MAX_SAMPLES, SeriesRecorder

        if self.series is None:
            self.series = SeriesRecorder(
                self._registry, burst=self._burst,
                max_samples=(DEFAULT_MAX_SAMPLES if max_samples is None
                             else max_samples))
        return self.series

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, kind: str, name: str, at: Optional[float] = None,
               **fields) -> TelemetryRecord:
        rec = TelemetryRecord(self.now if at is None else at, kind, name,
                              fields)
        if self.keep_events:
            self._records.append(rec)
        self.flight.append(rec)
        return rec

    def _record_metric(self, kind: str, name: str, value: float) -> None:
        self.record(kind, name, value=value)

    def annotate(self, name: str, **fields) -> None:
        """Free-form marker (audit violations, session phases, ...)."""
        self.record("event", name, **fields)

    # ------------------------------------------------------------------
    # frame lifecycle
    # ------------------------------------------------------------------
    def frame_stage(self, frame_id: int, stage: str,
                    at: Optional[float] = None) -> None:
        """Stamp one span stage and emit the matching span record."""
        t = self.now if at is None else at
        span = self._spans.stage(frame_id, stage, t)
        self.record("span", stage, at=t, frame_id=frame_id)
        if stage == "encode_end":
            self._frames_encoded.inc()
        elif stage == "displayed":
            self._frames_displayed.inc()
            e2e = span.e2e()
            if e2e is not None:
                self._e2e_hist.observe(e2e)
            # The pacing component ends at wire_last, which the frame's
            # wire rows stamp when they are consumed (_sync).
            self._displayed.append(span)

    def packet_wire(self, frame_id: int, size_bytes: int,
                    pacing_delay: Optional[float] = None) -> None:
        """A fresh media packet left the pacer onto the wire: append one
        ``wire`` row. ``pacing_delay`` is the enqueue-to-wire residence
        the pacer measured; span brackets and burst statistics follow
        when rows are next consumed.
        """
        rows = self.wire
        clock = self.clock
        rows.t.append(clock.now if clock is not None else 0.0)
        rows.frame_id.append(frame_id)
        rows.size.append(size_bytes)
        rows.delay.append(_NAN if pacing_delay is None else pacing_delay)
        rows.index.append(self.flight.appended)
        if len(rows.t) >= MAX_PENDING_ROWS:
            self._sync()

    def wire_train(self, frame_id: int, times: np.ndarray,
                   sizes: np.ndarray, pacing_delays: np.ndarray) -> None:
        """Bulk twin of :meth:`packet_wire`: one frame's release train,
        straight from the batch engine's arrays."""
        rows = self.wire
        rows.extend(frame_id, times, sizes, pacing_delays,
                    self.flight.appended)
        if rows.pending >= MAX_PENDING_ROWS:
            self._sync()

    def _sync(self) -> None:
        """Consume pending wire rows: span brackets, burst statistics,
        and the pacing component of frames displayed meanwhile."""
        batch = self.wire.take()
        if batch is not None:
            t, frame_id, size, delay, _index = batch
            # Rows of one frame are contiguous runs (the pacer is FIFO);
            # a frame split across runs keeps its earliest wire_first.
            cuts = ((frame_id[1:] != frame_id[:-1]).nonzero()[0]
                    + 1).tolist()
            stage = self._spans.stage
            for head, tail in zip([0] + cuts, cuts + [len(t)]):
                stage(int(frame_id[head]), "wire_last",
                      float(t[tail - 1])).stamps.setdefault(
                          "wire_first", float(t[head]))
            if self._burst is not None:
                self._burst.on_rows(t, size, delay)
        if self._displayed:
            for span in self._displayed:
                pacing = span.durations().get("pacing")
                if pacing is not None:
                    self._pacing_hist.observe(pacing)
            self._displayed.clear()

    def flush(self) -> None:
        """End of session: consume what is pending and close the burst
        analyzer's in-progress train."""
        self._sync()
        if self._burst is not None:
            self._burst.flush()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricRegistry:
        self._sync()
        return self._registry

    @property
    def spans(self) -> SpanBook:
        self._sync()
        return self._spans

    @property
    def burst(self) -> Optional[BurstAnalyzer]:
        self._sync()
        return self._burst

    @property
    def events(self) -> list[TelemetryRecord]:
        """The event log, wire rows materialised, in emission order
        (empty with ``keep_events=False``)."""
        if not self.keep_events:
            return []
        key = (len(self._records), len(self.wire))
        if self._events[0] != key:
            self._events = (key, _merge(self._records, 0,
                                        self.wire.columns()))
        return self._events[1]

    def flight_dump(self) -> str:
        return self.flight.dump()

    def metric_series(self, name: str) -> list[tuple[float, float]]:
        """(time, value) samples of one metric from the event log."""
        return [(r.time, r.fields["value"]) for r in self._records
                if r.kind == "metric" and r.name == name]
