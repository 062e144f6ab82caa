"""Telemetry recorder: structured records, probe rows, flight window, tick.

:class:`Telemetry` is the session-scoped hub the instrumented stack
writes into. It is *opt-in*: components hold ``telemetry = None`` by
default and guard every emission with a ``None`` check, so a session
without telemetry pays one attribute read per instrumented site.

Two streams, one emission order, one store each. Frame stages, metric
samples and annotations are ``(time, kind, name, fields)`` rows in the
event log or, with ``keep_events=False``, in a ring of the last
:data:`FLIGHT_CAPACITY`. The per-packet ``wire`` stream is columnar
(:class:`WireRows`), consumed in bulk by the burst analyzer and the span
brackets at the tick or on first read. The event log and the flight
window (the tail the invariant auditor dumps on a violation) materialise
both as :class:`TelemetryRecord` objects on demand, in emission order.
With the log off, a displayed frame's span goes once its pacing is
observed, so every store is bounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice, starmap
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.obs.burst import BurstAnalyzer
from repro.obs.registry import MetricRegistry
from repro.obs.spans import SpanBook

if TYPE_CHECKING:
    from repro.live.clock import Clock
    from repro.obs.slo import SloWatchdog
    from repro.sim.events import Event

#: flight-window depth (records, not seconds).
FLIGHT_CAPACITY = 512
#: metric sampling cadence (seconds).
TICK_INTERVAL_S = 0.1
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


def _frame_runs(t: np.ndarray, frame_id) -> list[tuple[int, float, float]]:
    """``(frame id, first, last wire time)`` of each run of one frame's
    rows in a chunk (a train is one run)."""
    if type(frame_id) is int:
        return [(frame_id, float(t[0]), float(t[-1]))]
    cuts = ((frame_id[1:] != frame_id[:-1]).nonzero()[0] + 1).tolist()
    return [(int(frame_id[head]), float(t[head]), float(t[tail - 1]))
            for head, tail in zip([0] + cuts, cuts + [len(t)])]


class WireRows:
    """Append-only columnar store of the ``wire`` stream: one row per
    fresh media packet leaving the pacer, in columns ``t`` (wire time),
    ``frame_id``, ``size``, ``delay`` (pacer enqueue → wire, NaN when
    not measured) and ``index`` (records emitted before the row); DESIGN
    §14 maps each to its paper quantity.

    Two producers: one row at a time straight onto the column lists (the
    per-packet hot path, sealed into an array chunk when read), or a
    whole train via :meth:`extend`, whose chunk keeps its arrays and its
    frame id and emission index as one int each. :meth:`take` hands the
    consumers everything new as one batch; ``keep`` bounds what stays
    readable afterwards to the last rows.
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
        #: chunks, oldest first; the last ``_fresh`` are not taken.
        self._chunks: list[tuple] = []
        self._fresh = 0
        self._sealed = 0  # rows ever moved into chunks
        self._taken = 0   # rows ever handed out by take()

    def __len__(self) -> int:
        """Rows ever appended (retained or not)."""
        return self._sealed + len(self.t)

    @property
    def pending(self) -> int:
        return self._sealed - self._taken + len(self.t)

    def _push(self, chunk: tuple) -> None:
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
        self._push((t, int(frame_id), size, delay, int(index)))

    def take(self) -> Optional[tuple]:
        """Everything appended since the last call, or None: ``(t, size,
        delay)`` over the new rows and each new chunk's frame runs."""
        self._seal()
        fresh = self._fresh
        if not fresh:
            return None
        chunks = self._chunks[-fresh:]
        self._fresh = 0
        self._taken = self._sealed
        if self.keep is not None:   # drop old chunks, cut the oldest left
            excess = sum(len(chunk[0]) for chunk in self._chunks) - self.keep
            while excess > 0 and len(self._chunks[0][0]) <= excess:
                excess -= len(self._chunks.pop(0)[0])
            if excess > 0:
                self._chunks[0] = tuple(c if type(c) is int else c[excess:]
                                        for c in self._chunks[0])
        runs = [run for chunk in chunks for run in _frame_runs(*chunk[:2])]
        return (*(chunks[0][j] if fresh == 1 else
                  np.concatenate([chunk[j] for chunk in chunks])
                  for j in (0, 2, 3)), runs)

    def columns(self) -> tuple[np.ndarray, ...]:
        """Every readable row, oldest first (a train's frame id and
        emission index spread over its rows)."""
        self._seal()
        if not self._chunks:
            return tuple(np.empty(0, dtype=np.int64) for _ in range(5))
        return tuple(np.concatenate(
            [np.full(len(chunk[0]), c) if type(c) is int else c
             for chunk, c in zip(self._chunks, column)])
            for column in zip(*self._chunks))


def _merge(records, first: int, rows) -> list[TelemetryRecord]:
    """Materialise stored ``records`` (``(time, kind, name, fields)``,
    emitted ``first``-th, ``first+1``-th, ...) interleaved with wire
    ``rows``, in emission order."""
    t, frame_id, size, _delay, index = rows
    out: list[TelemetryRecord] = []
    done = 0
    for when, fid, nbytes, position in zip(t.tolist(), frame_id.tolist(),
                                           size.tolist(), index.tolist()):
        stop = position - first
        if stop > done:
            out.extend(starmap(TelemetryRecord, records[done:stop]))
            done = stop
        out.append(TelemetryRecord(when, "span", "wire",
                                   {"frame_id": fid, "size": nbytes}))
    out.extend(starmap(TelemetryRecord, records[done:]))
    return out


class Telemetry:
    """Session telemetry hub: registry + spans + one record store.

    ``clock`` may be attached lazily (:meth:`attach_clock`) — sim
    sessions construct their loop first, live sessions their wall clock
    inside ``run()``. Records carry the clock's ``now`` unless an
    explicit stamp is given.

    ``registry``, ``spans``, ``burst`` and ``events`` are properties
    that first consume pending wire rows: readers never see stale state.
    """

    def __init__(self, clock: Optional["Clock"] = None,
                 keep_events: bool = True) -> None:
        self.clock = clock
        self.keep_events = keep_events
        registry = self._registry = MetricRegistry(record=self._record_metric)
        self._spans = SpanBook()
        #: the record store: the event log, or a flight window's ring, of
        #: ``(time, kind, name, fields)`` rows, made records when read.
        self._records = [] if keep_events else deque(maxlen=FLIGHT_CAPACITY)
        #: records emitted so far — the emission index of the next row.
        self._recorded = 0
        self._events: tuple = ((0, 0), [])   # (log size, materialised)
        #: ``wire`` probe rows (a flight window's worth without the log).
        self.wire = WireRows(keep=None if keep_events else FLIGHT_CAPACITY)
        self._tick_handle: Optional["Event"] = None
        self._burst = BurstAnalyzer(registry)
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
        """Begin the periodic gauge-sampling tick (no-op without a clock).

        The tick only *reads* component state through non-mutating
        sample functions, so scheduling it changes nothing about the
        simulated packet timeline.
        """
        if self.clock is None or self._tick_handle is not None:
            return
        self._tick_handle = self.clock.call_later(
            TICK_INTERVAL_S, self._tick, name="obs.tick")

    def _tick(self) -> None:
        if self.watchdog is not None or self.series is not None:
            self._sync()  # the tick's own readers; else rows wait for one
        self._registry.sample_all()
        if self.watchdog is not None:
            self.watchdog.evaluate(self.now)
        if self.series is not None:
            self.series.sample(self.now)
        self._tick_handle = self.clock.call_later(
            TICK_INTERVAL_S, self._tick, name="obs.tick")

    # ------------------------------------------------------------------
    # SLO watchdog
    # ------------------------------------------------------------------
    def attach_watchdog(self, *, pacing_p99_s: float = 0.25) -> "SloWatchdog":
        """Attach an SLO watchdog evaluated on every telemetry tick.

        The session rules watch the burst analyzer's pacing-delay tail
        (p99 bound ``pacing_p99_s``) and pacer-backlog drift
        (:func:`repro.obs.slo.session_slo_rules`). The watchdog
        publishes its ``slo.*`` mirror instruments into this registry,
        and every firing/cleared transition lands in the record store as
        an ``slo.alert`` annotation.
        """
        from repro.obs.slo import SloWatchdog, session_slo_rules

        def _on_alert(event: dict) -> None:
            fields = {k: v for k, v in event.items() if k != "kind"}
            self.annotate("slo.alert", **fields)

        self.watchdog = SloWatchdog(
            session_slo_rules(pacing_p99_s=pacing_p99_s),
            source=self._registry, publish=self._registry,
            on_alert=_on_alert)
        return self.watchdog

    # ------------------------------------------------------------------
    # time-series recording
    # ------------------------------------------------------------------
    def attach_series(self):
        """Attach a bounded time-series recorder sampled on every tick.

        Each tick appends one row of gauge/counter values (and burst
        pacing quantiles) to columnar arrays — a pure observer, so
        fixed-seed fingerprints stay bit-identical with recording on.
        Idempotent: a second call returns the existing recorder.
        """
        from repro.obs.timeseries import SeriesRecorder

        if self.series is None:
            self.series = SeriesRecorder(self._registry, burst=self._burst)
        return self.series

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, kind: str, name: str, at: Optional[float] = None,
               **fields) -> TelemetryRecord:
        row = (self.now if at is None else at, kind, name, fields)
        self._records.append(row)
        self._recorded += 1
        return TelemetryRecord(*row)

    def _record_metric(self, kind: str, name: str, value: float) -> None:
        self._records.append((self.now, kind, name, {"value": value}))
        self._recorded += 1

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
        self._records.append((t, "span", stage, {"frame_id": frame_id}))
        self._recorded += 1
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
        rows.index.append(self._recorded)
        if len(rows.t) >= MAX_PENDING_ROWS:
            self._sync()

    def wire_train(self, frame_id: int, times: np.ndarray,
                   sizes: np.ndarray, pacing_delays: np.ndarray) -> None:
        """Bulk twin of :meth:`packet_wire`: one frame's release train,
        straight from the batch engine's arrays."""
        rows = self.wire
        rows.extend(frame_id, times, sizes, pacing_delays, self._recorded)
        if rows.pending >= MAX_PENDING_ROWS:
            self._sync()

    def _sync(self) -> None:
        """Consume pending wire rows: span brackets, burst statistics,
        and the pacing component of frames displayed meanwhile."""
        batch = self.wire.take()
        if batch is not None:
            t, size, delay, runs = batch
            # Rows of one frame are contiguous runs (the pacer is FIFO);
            # a frame split across runs keeps its earliest wire_first.
            stage = self._spans.stage
            for frame_id, first, last in runs:
                stage(frame_id, "wire_last", last).stamps.setdefault(
                    "wire_first", first)
            self._burst.on_rows(t, size, delay)
        if self._displayed:
            spans = self._spans.spans
            for span in self._displayed:
                pacing = span.durations().get("pacing")
                if pacing is not None:
                    self._pacing_hist.observe(pacing)
                if not self.keep_events:    # its last reader is done
                    spans.pop(span.frame_id, None)
            self._displayed.clear()

    def flush(self) -> None:
        """End of session: consume what is pending and close the burst
        analyzer's in-progress train."""
        self._sync()
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
    def burst(self) -> BurstAnalyzer:
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

    @property
    def emitted(self) -> int:
        """Records and wire rows emitted so far, retained or not."""
        return self._recorded + len(self.wire)

    def flight_window(self) -> list[TelemetryRecord]:
        """The last :data:`FLIGHT_CAPACITY` records of both streams: the
        record store's tail merged with the wire rows', in emission order."""
        capacity = FLIGHT_CAPACITY
        tail = list(islice(reversed(self._records), capacity))[::-1]
        rows = tuple(column[-capacity:] for column in self.wire.columns())
        return _merge(tail, self._recorded - len(tail), rows)[-capacity:]

    def flight_dump(self) -> str:
        """Human-readable dump of the flight window (newest last)."""
        from repro.obs.export import render_record
        window = self.flight_window()
        seen = self.emitted
        header = (f"flight recorder: last {len(window)} of {seen} records "
                  f"({seen - len(window)} older records rotated out)")
        return "\n".join([header]
                         + [f"  {render_record(r)}" for r in window])

    def metric_series(self, name: str) -> list[tuple[float, float]]:
        """(time, value) samples of one metric from the event log
        (empty with ``keep_events=False``)."""
        log = self._records if self.keep_events else ()
        return [(time, fields["value"]) for time, kind, metric, fields in log
                if kind == "metric" and metric == name]
