"""Vectorized macro-step batch engine (DESIGN §11).

Between decision boundaries — frame captures, encode completions,
feedback arrivals, skip timers — the pacer→link→queue pipeline is
piecewise linear: token-bucket drain, link serialization, and drop-tail
occupancy all evolve in closed form. This engine exploits that: instead
of one heap event per packet hop, it advances the pipeline over whole
packet trains with numpy array operations, handing control back to the
reference event loop at every boundary so all *decisions* (congestion
control, ACE-N/ACE-C, rate control, retransmission) run the unmodified
reference code on the unmodified state.

Structure:

* :class:`BatchEngine` — the :class:`~repro.sim.engine.SimulationEngine`
  implementation. ``prepare`` checks eligibility and installs the
  pipeline hooks; ``advance`` runs the macro loop (deliver pipeline work
  up to the next heap event, then dispatch that event), writing each
  committed train to the sender's send log as it is released.
* :class:`BatchPipeline` — array-structured pacer and delivery state.
  Media frames travel as :class:`FrameBurst` column records; only
  retransmissions (and drops, which need ``Packet`` objects for the
  loss bookkeeping) take a scalar lane through the *reference* pacer
  and path machinery.

The pipeline is a scheduler, not a model: *when* a queued train leaves
is the pacer's own closed form (``Pacer.release_train``; the scalar lane
asks the same pacer's ``_take``), and what the bottleneck
admits and when it departs is the session's own
``path.link.server`` (:class:`repro.net.link.DropTailServer`), which the
pipeline feeds ahead of the clock — the objects the reference loop and
the live runtime run, so this module names no pacer class, keeps no link
state and restates neither policy. Nor does it keep a retransmission
table: each burst is registered in the sender's frame table
(``Sender.remember_frame``) with :meth:`BatchPipeline.materialize` as its
packet builder, so a NACK is answered, and a displayed frame forgotten,
where the reference loop does it.

Configurations outside the fast path's model (random/contention loss,
delay jitter, cross traffic, FEC, audio, audit or profiler hooks on the
loop, a pacer without ``release_train``) fall back to reference
semantics: ``advance`` simply runs the event loop, producing
bit-identical results to ``--engine reference``. The fallback reason is
kept on the engine (and on the returned metrics) for tests and
diagnostics.

Telemetry stays on the fast path: the pipeline appends each release
train to the session's ``wire`` probe rows straight from its arrays and
stamps the frame stages the reference sender/receiver would, and the
telemetry tick is an ordinary heap event — a non-deferrable boundary —
so it reads a pipeline that ``run_until(t)`` has just flushed.

Numerical contract: the fast path reorders float arithmetic (closed
forms and cumulative sums instead of sequential per-packet updates), so
batch results are *statistically* identical to reference results, not
bit-identical — see DESIGN §11 for the documented tolerances and the
differential tests that enforce them.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.packet import Packet
from repro.transport.pacer.base import Pacer

if TYPE_CHECKING:
    from repro.rtc.session import RtcSession
    from repro.rtc.sender import Sender
    from repro.video.frame import EncodedFrame

#: mirrors Pacer.MIN_PUMP_DELAY_S for the scalar-lane release emulation.
_MIN_PUMP = Pacer.MIN_PUMP_DELAY_S


class FrameBurst:
    """Column-oriented record of one packetized frame in the pacer."""

    __slots__ = ("frame_id", "seq0", "count", "sizes", "cum", "total_bytes",
                 "enqueue_time", "prev_sent_frame_id", "metrics", "sent")

    def __init__(self, frame_id: int, seq0: int, sizes: np.ndarray,
                 enqueue_time: float, prev_sent_frame_id: Optional[int],
                 metrics) -> None:
        self.frame_id = frame_id
        self.seq0 = seq0
        self.count = len(sizes)
        self.sizes = sizes
        self.cum = np.cumsum(sizes, dtype=np.float64)
        self.total_bytes = int(self.cum[-1])
        self.enqueue_time = enqueue_time
        self.prev_sent_frame_id = prev_sent_frame_id
        self.metrics = metrics
        #: packets released from the pacer so far.
        self.sent = 0


def ineligible_reason(session: "RtcSession") -> Optional[str]:
    """Why the fast path cannot model ``session`` (None = eligible)."""
    path = session.path
    sender = session.sender
    pacer = sender.pacer
    from repro.net.aqm import DropTailQueue
    if type(path.link.queue) is not DropTailQueue:
        return ("non-default queue discipline "
                f"{type(path.link.queue).__name__}")
    if path._lossy:
        return "random/contention loss enabled"
    if path._jitter_enabled:
        return "forward delay jitter enabled"
    if session.cross_traffic is not None:
        return "cross traffic enabled"
    if sender.fec is not None:
        return "FEC enabled"
    if sender.audio is not None:
        return "audio substream enabled"
    if session.loop.on_event is not None:
        return "event hook attached (audit/tracing)"
    if session.loop.profiler is not None:
        return "loop profiler attached"
    if type(pacer).release_train is Pacer.release_train:
        # A pacer is batchable iff it states its closed form.
        return f"unsupported pacer type {type(pacer).__name__}"
    return None


class BatchEngine:
    """Macro-stepping engine; see the module docstring."""

    name = "batch"

    def __init__(self) -> None:
        self._pipeline: Optional[BatchPipeline] = None
        #: why the run fell back to reference semantics (None = fast).
        self.fallback_reason: Optional[str] = None

    @property
    def lane_packets(self) -> Optional[tuple[int, int]]:
        p = self._pipeline
        return None if p is None else (p.vector_packets, p.scalar_packets)

    def prepare(self, session: "RtcSession") -> None:
        self.fallback_reason = ineligible_reason(session)
        if self.fallback_reason is not None:
            return
        self._pipeline = BatchPipeline(session)
        self._pipeline.install()

    def advance(self, session: "RtcSession", until: float) -> None:
        pipe = self._pipeline
        loop = session.loop
        if pipe is None:
            loop.run(until=until)
            return
        next_time = loop.next_time      # inf when no work is queued
        next_event = loop.next_event
        run_until = pipe.run_until
        drain_to = pipe.drain_to
        while True:
            t = next_time()
            if t > until:
                # No decision boundary left inside the horizon: flush
                # the pipeline to the horizon. Delivery callbacks may
                # schedule new events inside it (skip timers), so
                # re-check before declaring the advance done.
                run_until(until)
                if next_time() <= until:
                    continue
                if until > loop.now:
                    loop.now = until
                return
            head = next_event()     # None: a hop (path.feedback)
            if head is not None and head.name == "sender.encoded":
                # Encode-completion boundaries only append to the pacer
                # queue — no RNG draw, no receiver-derived read — so the
                # delivery flush can be deferred. No other boundary is
                # deferrable: captures draw from the codec RNG stream
                # that display-time decode draws interleave with, and
                # feedback arrivals read the RTX table that each display
                # prunes, inside the delivery that completes the frame.
                drain_to(t)
            else:
                run_until(t)
                if next_time() < t:
                    # A delivery callback scheduled something earlier
                    # than the boundary we were heading for; restart.
                    continue
            head = next_event()
            if head is not None and head.name == "pacer.pump":
                # The pipeline drains the pacer in closed form; pump
                # events are decision-free and are discarded. Marking
                # them cancelled keeps Pacer._schedule_pump's "a pump is
                # already pending" fast path from suppressing future
                # pumps against a dead handle (next_event() pops it).
                head.cancelled = True
                continue
            loop.step()

    def finalize(self, session: "RtcSession") -> None:
        """Never called (nothing is deferred); a no-op kept because
        ``perfbench/trace.py`` wraps it by name."""


class BatchPipeline:
    """Array-structured pacer and delivery state for one session; the
    link between them is the session's own ``path.link.server``."""

    def __init__(self, session: "RtcSession") -> None:
        self.session = session
        self.loop = session.loop
        self.sender = session.sender
        self.receiver = session.receiver
        self.pacer = session.sender.pacer
        self.path = session.path
        self.link = session.path.link
        #: the session's own bottleneck (an eligible path is a lone
        #: closed-form drop-tail hop), fed ahead of the clock.
        self.server = self.link.server
        self.telemetry = session.telemetry
        self.half_hop = session.path._half_hop
        # --- pacer state -------------------------------------------------
        #: bursts with unreleased packets, FIFO (the media queue).
        self._media: deque[FrameBurst] = deque()
        #: time of the most recent pacer release (priority floor).
        self._last_release = 0.0
        #: media packets committed on the vector lane / walked one by
        #: one on the scalar lane (drops included).
        self.vector_packets = 0
        self.scalar_packets = 0
        # --- receiver-bound work -----------------------------------------
        #: FIFO of pending deliveries in arrival order:
        #: [a_arr, send_arr, sizes_arr, burst, lo, pos] or (arrival, pkt).
        self._deliveries: deque = deque()

    def install(self) -> None:
        self.sender.batch_sink = self
        self.path.intercept = self._on_scalar_packet
        if self.telemetry is not None:
            self.telemetry.pipeline = self

    # ------------------------------------------------------------------
    # occupancy view (the obs.wiring gauge; a pure read at the tick)
    # ------------------------------------------------------------------
    @property
    def pacer_queued_packets(self) -> int:
        """Twin of ``Pacer.queued_packets``: media waits in bursts."""
        return (sum(b.count - b.sent for b in self._media)
                + len(self.pacer._rtx_queue))

    # ------------------------------------------------------------------
    # sender sink (replaces packetize + pacer.enqueue for media)
    # ------------------------------------------------------------------
    def on_frame_encoded(self, sender: "Sender", encoded: "EncodedFrame") -> None:
        packetizer = sender.packetizer
        size_bytes = encoded.size_bytes
        count = packetizer.packet_count(size_bytes)
        seq0 = packetizer.reserve(count)
        payload = packetizer.payload_bytes
        sizes = np.full(count, payload, dtype=np.int64)
        sizes[-1] = size_bytes - payload * (count - 1)
        now = self.loop.now
        burst = FrameBurst(encoded.frame_id, seq0, sizes, now,
                           sender._last_sent_frame_id,
                           sender.frame_metrics[encoded.frame_id])
        sender._last_sent_frame_id = encoded.frame_id
        burst.metrics.pacer_enqueue = now
        tel = self.telemetry
        if tel is not None:
            tel.frame_stage(encoded.frame_id, "packetize")
            tel.frame_stage(encoded.frame_id, "pacer_enqueue")
        if sender.ace_n is not None:
            sender.ace_n.on_frame_enqueued(size_bytes)
        pacer = self.pacer
        pacer._queued_bytes += burst.total_bytes
        stats = pacer.stats
        stats.enqueued_packets += count
        stats.enqueued_bytes += burst.total_bytes
        stats.occupancy_samples.append((now, pacer._queued_bytes))
        self._media.append(burst)
        sender.remember_frame(encoded.frame_id, seq0, count,
                              partial(BatchPipeline.materialize, burst))

    @staticmethod
    def materialize(burst: FrameBurst, index: int) -> Packet:
        """The Packet the packetizer would have built for ``burst[index]``,
        on demand: a NACKed packet (the sender's RTX lookup) or a tail
        drop (the loss bookkeeping wants an object)."""
        packet = Packet(
            size_bytes=int(burst.sizes[index]),
            seq=burst.seq0 + index,
            frame_id=burst.frame_id,
            frame_packet_index=index,
            frame_packet_count=burst.count,
            t_enqueue_pacer=burst.enqueue_time,
        )
        if index == 0 and burst.prev_sent_frame_id is not None:
            packet.prev_sent_frame_id = burst.prev_sent_frame_id
        return packet

    # ------------------------------------------------------------------
    # macro step
    # ------------------------------------------------------------------
    def run_until(self, target: float) -> None:
        """Advance pacer releases and deliveries to ``target``."""
        if self._media or self.pacer._rtx_queue:
            self._drain_pacer(target)
        if self._deliveries:
            self._deliver(target)

    def drain_to(self, target: float) -> None:
        """Advance pacer releases only (delivery flush deferred)."""
        if self._media or self.pacer._rtx_queue:
            self._drain_pacer(target)

    # ------------------------------------------------------------------
    # pacer drain
    # ------------------------------------------------------------------
    def _drain_pacer(self, target: float) -> None:
        loop = self.loop
        pacer = self.pacer
        floor = self._last_release
        if floor < loop.now:
            floor = loop.now
        rtx = pacer._rtx_queue
        while rtx:
            # Scalar lane: retransmissions go through the unmodified
            # reference release machinery (the pacer's own policy,
            # timestamps, stats, token consumption) one packet at a
            # time, the clock standing where the pump would: a wait is a
            # wake-up, and the pump asks again there.
            head = rtx[0]
            loop.now = floor
            delay = pacer._take(head)
            while delay > 0.0:
                wake = floor + (delay if delay > _MIN_PUMP else _MIN_PUMP)
                if wake > target:
                    # Head blocked beyond this advance; media must not
                    # overtake it (strict queue priority).
                    self._last_release = floor
                    return
                loop.now = floor = wake
                delay = pacer._take(head)
            rtx.popleft()
            pacer._release(head)
        media = self._media
        while media:
            # Vector lane: the pacer's own closed form says which prefix
            # of the head train leaves by ``target``, and has committed
            # it (DESIGN §11, *Macro-step math*).
            burst = media[0]
            sent = burst.sent
            cum = burst.cum[sent:]
            if sent:
                cum = cum - burst.cum[sent - 1]
            d = pacer.release_train(burst.sizes[sent:], cum, floor, target)
            n = len(d)
            if n == 0:
                break
            self._release_media(burst, sent, n, d, cum[:n])
            floor = float(d[-1])
            if burst.sent < burst.count:
                break
            media.popleft()
        self._last_release = floor

    def _release_media(self, burst: FrameBurst, lo: int, n: int,
                       d: np.ndarray, cum_bytes: np.ndarray) -> None:
        """Bulk twin of Pacer._release + Sender._packet_leaves_pacer."""
        hi = lo + n
        sizes = burst.sizes[lo:hi]
        chunk_bytes = int(cum_bytes[-1])
        pacer = self.pacer
        pacer._queued_bytes -= chunk_bytes
        stats = pacer.stats
        stats.sent_packets += n
        stats.sent_bytes += chunk_bytes
        if self.telemetry is not None:
            self.telemetry.wire_train(burst.frame_id, d, sizes,
                                      d - burst.enqueue_time)
        burst.metrics.pacer_last_exit = float(d[-1])
        burst.sent = hi
        self.sender.send_events.add_train(d, sizes)
        self._feed_link_train(d + self.half_hop, d, sizes, cum_bytes,
                              burst, lo)

    # ------------------------------------------------------------------
    # bottleneck feed
    # ------------------------------------------------------------------
    def _feed_link_train(self, e: np.ndarray, send_times: np.ndarray,
                         sizes: np.ndarray, cum_bytes: np.ndarray,
                         burst: FrameBurst, lo: int) -> None:
        """Offer a media train to the bottleneck; entry times ``e`` are
        nondecreasing and follow all previously fed entries (FIFO).

        The server takes the packets ahead of the train's first tail
        drop in one piece (the vector lane); what follows is offered one
        by one, admitted runs queued for delivery as they close and each
        drop materialized for the loss path.
        """
        server = self.server
        half_hop = self.half_hop
        finishes = server.offer_train(e, sizes, cum_bytes, half_hop)
        k = len(finishes)
        if k:
            self._deliveries.append(
                [finishes + self.half_hop, send_times[:k], sizes[:k], burst,
                 lo, 0, int(cum_bytes[k - 1])])
            self.vector_packets += k
        n = len(sizes)
        self.scalar_packets += n - k
        run: list[float] = []       # finishes of the open admitted run
        for i in range(k, n):
            finish = server.offer(float(e[i]), int(sizes[i]), half_hop)
            if finish is not None:
                run.append(finish)
                continue
            self._queue_run(run, i, send_times, sizes, burst, lo)
            packet = self.materialize(burst, lo + i)
            packet.t_leave_pacer = float(send_times[i])
            packet.t_enter_queue = float(e[i])
            self.link.report_drop(packet)
        self._queue_run(run, n, send_times, sizes, burst, lo)

    def _queue_run(self, run: list[float], end: int, send_times: np.ndarray,
                   sizes: np.ndarray, burst: FrameBurst, lo: int) -> None:
        """Queue the delivery of train packets ``[end - len(run), end)``,
        admitted one by one with finish times ``run``, and close the run."""
        if not run:
            return
        first = end - len(run)
        run_sizes = sizes[first:end]
        self._deliveries.append(
            [np.array(run) + self.half_hop, send_times[first:end], run_sizes,
             burst, lo + first, 0, int(run_sizes.sum())])
        run.clear()

    # ------------------------------------------------------------------
    # scalar lane (retransmissions released through the reference pacer)
    # ------------------------------------------------------------------
    def _on_scalar_packet(self, packet: Packet) -> None:
        """NetworkPath.intercept target: loop.now is the departure."""
        entry = self.loop.now + self.half_hop
        packet.t_enter_queue = entry
        finish = self.server.offer(entry, packet.size_bytes, self.half_hop)
        if finish is None:
            self.link.report_drop(packet)
            return
        packet.t_leave_queue = finish
        self._deliveries.append((finish + self.half_hop, packet))

    # ------------------------------------------------------------------
    # deliveries
    # ------------------------------------------------------------------
    def _deliver(self, barrier: float) -> None:
        deliveries = self._deliveries
        loop = self.loop
        session = self.session
        receiver = self.receiver
        while deliveries:
            head = deliveries[0]
            if type(head) is tuple:
                arrival, packet = head
                if arrival > barrier:
                    return
                deliveries.popleft()
                loop.now = arrival
                packet.t_arrival = arrival
                session._on_arrival(packet)
                continue
            a_arr, send_arr, sizes_arr, burst, lo, pos, entry_bytes = head
            n_arr = len(a_arr)
            if a_arr[-1] <= barrier:
                hi = n_arr
            else:
                hi = int(np.searchsorted(a_arr, barrier, side="right"))
                if hi <= pos:
                    return
            index0 = lo + pos
            if pos == 0 and hi == n_arr:
                chunk_sizes = sizes_arr
                chunk_bytes = entry_bytes
                chunk_sends = send_arr
                chunk_arrivals = a_arr
            else:
                chunk_sizes = sizes_arr[pos:hi]
                chunk_bytes = int(chunk_sizes.sum())
                chunk_sends = send_arr[pos:hi]
                chunk_arrivals = a_arr[pos:hi]
            receiver.on_media_chunk(
                burst.frame_id,
                burst.seq0 + index0,
                index0,
                burst.count,
                burst.prev_sent_frame_id if index0 == 0 else None,
                chunk_sends,
                chunk_arrivals,
                chunk_sizes,
                chunk_bytes,
            )
            if hi == n_arr:
                deliveries.popleft()
            else:
                head[5] = hi
                return
