"""Vectorized macro-step batch engine (DESIGN §10).

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
  up to the next heap event, then dispatch that event); ``finalize``
  flushes deferred bookkeeping.
* :class:`BatchPipeline` — array-structured pacer/link/delivery state.
  Media frames travel as :class:`FrameBurst` column records; only
  retransmissions (and drops, which need ``Packet`` objects for the
  loss bookkeeping) take a scalar lane through the *reference* pacer
  and path machinery.

The pipeline owns the walk, not the laws: *when* a queued train leaves
is the pacer's own closed form (``Pacer.release_train``; the scalar lane
asks the same pacer's ``_next_send_delay``), and *when* a packet the
bottleneck accepted departs is ``repro.net.link.serve`` — the functions
the reference loop and the live runtime run, so this module names no
pacer class and restates neither policy.

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
bit-identical — see DESIGN §10 for the documented tolerances and the
differential tests that enforce them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.link import serve
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
        heap = loop._heap
        live = loop._live       # discards cancelled heads; True = work queued
        run_until = pipe.run_until
        drain_to = pipe.drain_to
        while True:
            if not live() or heap[0][0] > until:
                # No decision boundary left inside the horizon: flush
                # the pipeline to the horizon. Delivery callbacks may
                # schedule new events inside it (skip timers), so
                # re-check before declaring the advance done.
                run_until(until)
                if live() and heap[0][0] <= until:
                    continue
                if until > loop.now:
                    loop.now = until
                return
            t = heap[0][0]
            head = heap[0][2]   # None: a handle-free hop (path.feedback)
            if head is not None and head.name == "sender.encoded":
                # Encode-completion boundaries only append to the pacer
                # queue — no RNG draw, no receiver-derived read — so the
                # delivery flush can be deferred. No other boundary is
                # deferrable: captures draw from the codec RNG stream
                # that display-time decode draws interleave with, and
                # feedback arrivals read the sent-packet table that
                # DisplaySync.sync prunes from delivery callbacks.
                drain_to(t)
            else:
                run_until(t)
                if not live() or heap[0][0] < t:
                    # A delivery callback scheduled something earlier
                    # than the boundary we were heading for; restart.
                    continue
            head = heap[0][2]
            if head is not None and head.name == "pacer.pump":
                # The pipeline drains the pacer in closed form; pump
                # events are decision-free and are discarded. Marking
                # them cancelled keeps Pacer._schedule_pump's "a pump is
                # already pending" fast path from suppressing future
                # pumps against a dead handle (live() pops it next turn).
                head.cancelled = True
                continue
            loop.step()

    def finalize(self, session: "RtcSession") -> None:
        if self._pipeline is not None:
            self._pipeline.finalize()


class BatchPipeline:
    """Array-structured pacer → link → delivery state for one session."""

    def __init__(self, session: "RtcSession") -> None:
        self.session = session
        self.loop = session.loop
        self.sender = session.sender
        self.receiver = session.receiver
        self.pacer = session.sender.pacer
        self.path = session.path
        self.link = session.path.link
        self.trace = session.path.link.trace
        self.telemetry = session.telemetry
        self.half_hop = session.path._half_hop
        self.capacity = self.link.queue.capacity_bytes
        # --- pacer state -------------------------------------------------
        #: bursts with unreleased packets, FIFO (the media queue).
        self._media: deque[FrameBurst] = deque()
        #: all bursts ever enqueued, for NACK materialization.
        self._bursts: dict[int, FrameBurst] = {}
        self._seq0s: list[int] = []
        self._burst_list: list[FrameBurst] = []
        #: time of the most recent pacer release (priority floor).
        self._last_release = 0.0
        # --- link state --------------------------------------------------
        #: link busy-until (finish time of the last served packet).
        self._busy_until = 0.0
        #: bytes entered but not yet finished (drop-tail occupancy).
        self._q_bytes = 0
        #: media packets committed on the vector lane / walked one by
        #: one on the scalar lane (drops included).
        self.vector_packets = 0
        self.scalar_packets = 0
        #: FIFO of finish-time records: [f_arr, cumsizes, pos] chunks for
        #: vector trains, (finish, size) tuples for scalar packets.
        self._fin: deque = deque()
        # --- receiver-bound work -----------------------------------------
        #: FIFO of pending deliveries in arrival order:
        #: [a_arr, send_arr, sizes_arr, burst, lo, pos] or (arrival, pkt).
        self._deliveries: deque = deque()
        # --- deferred bookkeeping ----------------------------------------
        self._send_event_chunks: list[tuple[np.ndarray, np.ndarray]] = []

    def install(self) -> None:
        self.sender.batch_sink = self
        self.path.intercept = self._on_scalar_packet
        if self.telemetry is not None:
            self.telemetry.pipeline = self

    # ------------------------------------------------------------------
    # occupancy views (obs.wiring gauges; pure reads at the tick)
    # ------------------------------------------------------------------
    @property
    def pacer_queued_packets(self) -> int:
        """Twin of ``Pacer.queued_packets``: media waits in bursts."""
        return (sum(b.count - b.sent for b in self._media)
                + len(self.pacer._rtx_queue))

    @property
    def link_queued_bytes(self) -> int:
        """Twin of ``Link.queued_bytes`` at ``loop.now``.

        Trains are served ahead of the clock, so occupancy *now* is read
        off the pending deliveries: a packet is in the queue from its
        entry (send + half hop) until its finish (arrival - half hop).
        """
        now = self.loop.now
        half_hop = self.half_hop
        queued = 0
        for head in self._deliveries:
            if type(head) is tuple:
                packet = head[1]
                if packet.t_enter_queue <= now < packet.t_leave_queue:
                    queued += packet.size_bytes
                continue
            arrivals, sends, sizes = head[0], head[1], head[2]
            left = int(np.searchsorted(arrivals - half_hop, now,
                                       side="right"))
            entered = int(np.searchsorted(sends + half_hop, now,
                                          side="right"))
            if entered > left:
                queued += int(sizes[left:entered].sum())
        return queued

    # ------------------------------------------------------------------
    # sender sink (replaces packetize + pacer.enqueue for media)
    # ------------------------------------------------------------------
    def on_frame_encoded(self, sender: "Sender", encoded: "EncodedFrame") -> None:
        packetizer = sender.packetizer
        size_bytes = encoded.size_bytes
        count = packetizer.packet_count(size_bytes)
        seq0 = packetizer._next_seq
        packetizer._next_seq = seq0 + count
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
        self._bursts[encoded.frame_id] = burst
        self._seq0s.append(seq0)
        self._burst_list.append(burst)

    def materialize(self, seq: int) -> Optional[Packet]:
        """Rebuild the original Packet for ``seq`` (NACK handling)."""
        idx = bisect_right(self._seq0s, seq) - 1
        if idx < 0:
            return None
        burst = self._burst_list[idx]
        offset = seq - burst.seq0
        if offset >= burst.count:
            return None
        return self._packet(burst, offset)

    @staticmethod
    def _packet(burst: FrameBurst, index: int) -> Packet:
        """The Packet the packetizer would have built for ``burst[index]``."""
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

    def forget_frame(self, sender: "Sender", frame_id: int) -> None:
        """Drop RTX state for a displayed frame (burst-mode twin)."""
        burst = self._bursts.get(frame_id)
        if burst is None:
            return
        sent_packets = sender._sent_packets
        rtx_last = sender._rtx_last_sent
        if not sent_packets and not rtx_last:
            return  # nothing materialized (loss-free so far): no state to drop
        for seq in range(burst.seq0, burst.seq0 + burst.count):
            sent_packets.pop(seq, None)
            rtx_last.pop(seq, None)

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
            # timestamps, stats, token consumption, send hooks) one
            # packet at a time, the clock standing where the pump would.
            head = rtx[0]
            loop.now = floor
            delay = pacer._next_send_delay(head)
            if delay > 0.0:
                release_at = floor + (delay if delay > _MIN_PUMP
                                      else _MIN_PUMP)
            else:
                release_at = floor
            if release_at > target:
                # Head blocked beyond this advance; media must not
                # overtake it (strict queue priority).
                self._last_release = floor
                return
            rtx.popleft()
            loop.now = release_at
            pacer._release(head)
            floor = release_at
        media = self._media
        while media:
            # Vector lane: the pacer's own closed form says which prefix
            # of the head train leaves by ``target``, and has committed
            # it (DESIGN §10, *Macro-step math*).
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
        pacing_delays = d - burst.enqueue_time
        stats.pacing_delays.extend(pacing_delays.tolist())
        if self.telemetry is not None:
            self.telemetry.wire_train(burst.frame_id, d, sizes,
                                      pacing_delays)
        # One occupancy sample per train (reference: one per packet).
        stats.occupancy_samples.append((float(d[-1]), pacer._queued_bytes))
        burst.metrics.pacer_last_exit = float(d[-1])
        burst.sent = hi
        self._send_event_chunks.append((d, sizes))
        self._feed_link_train(d + self.half_hop, d, sizes, cum_bytes,
                              chunk_bytes, burst, lo)

    # ------------------------------------------------------------------
    # link walk
    # ------------------------------------------------------------------
    def _feed_link_train(self, e: np.ndarray, send_times: np.ndarray,
                         sizes: np.ndarray, cum_bytes: np.ndarray,
                         total_bytes: int, burst: FrameBurst,
                         lo: int) -> None:
        """Serve a media train; entry times ``e`` are nondecreasing and
        follow all previously fed entries (FIFO).

        The packets ahead of the train's first tail drop are committed
        in one piece on the vector lane; the rest — the whole train in
        an outage, or when one trace-rate sample does not cover those
        service starts — takes the per-packet walk, which makes every
        drop decision.
        """
        entry0 = float(e[0])
        self._pop_finished(entry0)
        n, k = len(sizes), 0
        busy = self._busy_until
        start0 = max(entry0, busy)
        rate = self.trace.rate_at(start0)
        if rate > 0.0:
            # Lindley-recursion finish times at this one rate sample.
            ser = sizes * (8.0 / rate)
            cs = np.cumsum(ser)
            base = e - cs
            base += ser
            if busy > base[0]:
                base[0] = busy
            f = np.maximum.accumulate(base)
            f += cs
            # No drop is possible even if nothing drains while the whole
            # train enters — skip the occupancy scan.
            k = (n if self._q_bytes + total_bytes <= self.capacity
                 else self._first_drop(e, f, cum_bytes))
            if k and (float(f[k - 1]) - float(ser[k - 1])
                      >= self.trace.next_change_after(start0)):
                k = 0       # rate change before the last service start
        if k:
            f = f[:k]
            prefix_bytes = int(cum_bytes[k - 1])
            self._busy_until = float(f[-1])
            self._q_bytes += prefix_bytes
            self._fin.append([f, cum_bytes[:k], 0])
            stats = self.link.stats
            stats.enqueued_packets += k
            stats.enqueued_bytes += prefix_bytes
            stats.delivered_packets += k
            stats.delivered_bytes += prefix_bytes
            stats.busy_time += float(cs[k - 1])
            stats.occupancy_samples.append((entry0, self._q_bytes))
            self._deliveries.append(
                [f + self.half_hop, send_times[:k], sizes[:k], burst, lo, 0,
                 prefix_bytes])
            self.vector_packets += k
        if k < n:
            self.scalar_packets += n - k
            self._feed_scalar_train(e[k:], send_times[k:], sizes[k:], burst,
                                    lo + k)

    def _first_drop(self, e: np.ndarray, f: np.ndarray,
                    cum_bytes: np.ndarray) -> int:
        """Index of the train's first tail drop (``len(e)`` if none).

        Packet ``i`` meets the bytes queued at ``e[0]`` plus the train's
        bytes ahead of it, less what has finished by ``e[i]`` — own
        packets and older pending records alike, ``finish <= entry``
        counting as gone (``_pop_finished``'s tie rule); every term is
        integer-valued. That takes packets ``< i`` as admitted, true up
        to and including the first drop, and ``f[j]`` depends only on
        packets ``<= j``: the prefix before that index is exact.
        """
        old_f, old_cum = [], [0.0]
        for record in self._fin:
            if type(record) is tuple:
                old_f.append(record[0])
                old_cum.append(old_cum[-1] + record[1])
            else:
                rf, rcum, pos = record
                rcum = rcum[pos:] + (
                    old_cum[-1] - (rcum[pos - 1] if pos else 0.0))
                old_f += rf[pos:].tolist()
                old_cum += rcum.tolist()
        left = (np.concatenate(([0.0], cum_bytes))[
                    np.searchsorted(f, e, side="right")]
                + np.array(old_cum)[np.searchsorted(old_f, e, side="right")])
        over = np.flatnonzero(
            self._q_bytes + cum_bytes - left > self.capacity)
        return int(over[0]) if len(over) else len(e)

    def _feed_scalar_train(self, e: np.ndarray, send_times: np.ndarray,
                           sizes: np.ndarray, burst: FrameBurst,
                           lo: int) -> None:
        """Per-packet walk: exact drop-tail decisions, any trace shape."""
        run_start = -1
        run_f: list[float] = []
        n = len(e)
        for i in range(n):
            entry = float(e[i])
            finish = self._serve_scalar(entry, int(sizes[i]))
            if finish is None:
                if run_f:
                    self._flush_run(run_f, run_start, send_times, sizes,
                                    burst, lo)
                    run_f = []
                run_start = -1
                packet = self._packet(burst, lo + i)
                packet.t_leave_pacer = float(send_times[i])
                packet.t_enter_queue = entry
                self._drop(packet)
                continue
            if run_start < 0:
                run_start = i
            run_f.append(finish)
        if run_f:
            self._flush_run(run_f, run_start, send_times, sizes, burst, lo)

    def _serve_scalar(self, entry: float, size: int) -> Optional[float]:
        """One packet through the drop-tail queue: its finish time by the
        link's own law, or None — a tail drop, for the caller to report."""
        self._pop_finished(entry)
        if self._q_bytes + size > self.capacity:
            return None
        start, finish = serve(self._busy_until, entry, size,
                              self.trace.rate_at)
        stats = self.link.stats
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        stats.delivered_packets += 1
        stats.delivered_bytes += size
        stats.busy_time += finish - start
        self._busy_until = finish
        self._q_bytes += size
        self._fin.append((finish, size))
        return finish

    def _flush_run(self, run_f: list[float], run_start: int,
                   send_times: np.ndarray, sizes: np.ndarray,
                   burst: FrameBurst, lo: int) -> None:
        hi = run_start + len(run_f)
        arrivals = np.array(run_f)
        arrivals += self.half_hop
        run_sizes = sizes[run_start:hi]
        self._deliveries.append(
            [arrivals, send_times[run_start:hi], run_sizes,
             burst, lo + run_start, 0, int(run_sizes.sum())])

    def _drop(self, packet: Packet) -> None:
        """Tail drop: a burst packet is materialized for the loss path."""
        packet.dropped = True
        stats = self.link.stats
        stats.dropped_packets += 1
        stats.dropped_bytes += packet.size_bytes
        self.link.on_drop(packet)

    def _pop_finished(self, t: float) -> None:
        """Retire link departures with finish time <= ``t`` (occupancy)."""
        fin = self._fin
        q = self._q_bytes
        while fin:
            head = fin[0]
            if type(head) is tuple:
                if head[0] <= t:
                    q -= head[1]
                    fin.popleft()
                    continue
                break
            f, cum, pos = head
            if f[-1] <= t:
                k = len(f)
            else:
                k = int(np.searchsorted(f, t, side="right"))
            if k > pos:
                q -= int(cum[k - 1]) - (int(cum[pos - 1]) if pos else 0)
                if k == len(f):
                    fin.popleft()
                    continue
                head[2] = k
            break
        self._q_bytes = q

    # ------------------------------------------------------------------
    # scalar lane (retransmissions released through the reference pacer)
    # ------------------------------------------------------------------
    def _on_scalar_packet(self, packet: Packet) -> None:
        """NetworkPath.intercept target: loop.now is the departure."""
        departure = self.loop.now
        entry = departure + self.half_hop
        packet.t_enter_queue = entry
        finish = self._serve_scalar(entry, packet.size_bytes)
        if finish is None:
            self._drop(packet)
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
        sync = session._display_sync
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
            if sync.pending:
                sync.sync()
            if hi == n_arr:
                deliveries.popleft()
            else:
                head[5] = hi
                return

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Materialize deferred send events in chronological order."""
        sender = self.sender
        chunks = self._send_event_chunks
        if chunks:
            merged: list[tuple[float, int]] = []
            for d, sizes in chunks:
                merged.extend(zip(d.tolist(), sizes.tolist()))
            scalar = sender.send_events
            if scalar:
                merged.extend(scalar)
                merged.sort(key=_event_time)
            sender.send_events = merged
            self._send_event_chunks = []


def _event_time(event: tuple[float, int]) -> float:
    return event[0]
