"""RTC sender: capture -> (ACE-C) -> encode -> packetize -> pacer -> network.

The sender owns the encoder pipeline and the transport send side. It is
assembled from pluggable pieces so every baseline in §6.1 is a
configuration, not a fork:

* any codec model + rate control (WebRTC* = x264 ABR+VBV, CBR, VP8...),
* any pacer (leaky bucket, burst, token bucket),
* any congestion controller (GCC, BBR),
* optional ACE-C complexity control and ACE-N bucket adaptation,
* optional Salsify-style dual-version encoding, FEC parity and audio.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.ace_c import AceCController
from repro.core.ace_n import AceNController
from repro.net.packet import Packet
from repro.rtc.metrics import FrameMetrics, SendLog
from repro.transport.cc.base import CongestionController

if TYPE_CHECKING:
    from repro.live.clock import Clock
from repro.transport.feedback import FeedbackMessage
from repro.transport.audio import AudioSource
from repro.transport.fec import FecEncoder
from repro.transport.pacer.base import Pacer
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer
from repro.transport.rtp import Packetizer
from repro.video.codec.model import CodecModel
from repro.video.codec.rate_control import RateControl
from repro.video.frame import EncodedFrame, RawFrame


#: fraction of the BWE given to the encoder as target bitrate.
MEDIA_RATE_FRACTION = 0.95
#: Salsify's two candidate sizes, as multiples of the planned size.
SALSIFY_LOW_FACTOR, SALSIFY_HIGH_FACTOR = 0.65, 1.35
#: minimum interval between retransmissions of the same seq.
RTX_MIN_INTERVAL = 0.06
#: size multiple allotted to a PLI-triggered keyframe (bounded so one
#: refresh does not blow the pacer up; quality dips briefly instead, as
#: real encoders do).
KEYFRAME_SIZE_FACTOR = 2.0


class Sender:
    """Drives the capture/encode/send pipeline on a :class:`Clock`.

    ``loop`` is any clock satisfying the scheduling protocol — the sim
    ``EventLoop`` or a live ``WallClock``. Packets leave through the
    pacer's ``send_fn``; ``reverse_delay`` is the one-way delay the
    sender adds to each report's forward delay to estimate its RTT.
    ``fps``, ``salsify`` (dual-version encoding) and the encoder-target
    cap ``max_target_bitrate_bps`` come from the spec and run config;
    each optional component (``ace_c``, ``ace_n``, ``fec``, ``audio``)
    is off when None. ``FlowStack`` builds them all.
    """

    def __init__(self, loop: "Clock", source, codec: CodecModel,
                 rate_control: RateControl, pacer: Pacer,
                 cc: CongestionController, reverse_delay: float,
                 fps: float, salsify: bool,
                 max_target_bitrate_bps: Optional[float],
                 ace_c: Optional[AceCController] = None,
                 ace_n: Optional[AceNController] = None,
                 fec: Optional[FecEncoder] = None,
                 audio: Optional[AudioSource] = None) -> None:
        self.loop = loop
        #: optional :class:`repro.obs.Telemetry`; every emission below is
        #: guarded by a None check so disabled telemetry costs one
        #: attribute read (held to baseline by the perf gate).
        self.telemetry = None
        self.source = source
        self.codec = codec
        self.rate_control = rate_control
        self.pacer = pacer
        self.cc = cc
        self.reverse_delay = reverse_delay
        self.fps = fps
        self.salsify = salsify
        self.max_target_bitrate_bps = max_target_bitrate_bps
        self.ace_c = ace_c
        self.ace_n = ace_n
        self.fec = fec
        self.audio = audio
        #: honor picture-loss indications by encoding the next frame as a
        #: keyframe (decoder refresh). Off by default — the paper's
        #: evaluation disables frame dropping, so skips (and hence PLIs)
        #: play no role there; enable for realistic recovery studies.
        self.keyframe_on_pli = False
        #: temporal layers: 1 = never drop (the paper's evaluation
        #: setting); 2 = under sustained pacer backlog, skip
        #: enhancement-layer (odd) frames — WebRTC's graceful fps
        #: degradation.
        self.temporal_layers = 1
        #: pacer queue time (seconds) above which enhancement frames drop.
        self.frame_drop_queue_time = 0.15
        self.packetizer = Packetizer()
        self._parity_seq = -1
        self._loss_seen = 0
        self._reports_seen = 0
        self.frame_metrics: dict[int, FrameMetrics] = {}
        self.encoded_frames: list[EncodedFrame] = []
        #: the RTX table: ``(frame_id, first seq, count, packet_at)`` per
        #: frame sent and not yet displayed (see :meth:`remember_frame`),
        #: in send order — ascending in frame id and in seq alike.
        self._rtx_frames: list[tuple] = []
        #: seq -> time of its latest retransmission.
        self._rtx_last_sent: dict[int, float] = {}
        #: batch-engine frame sink: when set, encoded frames are handed
        #: to it as column-oriented bursts instead of being packetized
        #: into per-packet objects (see repro.sim.batch).
        self.batch_sink = None
        self.retransmissions = 0
        self.keyframes_sent = 0
        self.frames_dropped = 0
        self._last_sent_frame_id: Optional[int] = None
        self._pli_pending = False
        self._stopped = False
        self._encoding_busy_until = 0.0
        # Wire pacer output into the path and keep send-event records.
        self._orig_send_fn = pacer.send_fn
        pacer.send_fn = self._packet_leaves_pacer
        self.send_events = SendLog()
        if self.ace_n is not None and isinstance(pacer, TokenBucketPacer):
            pacer.set_bucket_size(self.ace_n.bucket_bytes)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.loop.call_later(0.0, self._capture_tick, name="sender.capture")
        if self.audio is not None:
            self.audio.start()

    def stop(self) -> None:
        self._stopped = True
        if self.audio is not None:
            self.audio.stop()

    # ------------------------------------------------------------------
    # capture/encode pipeline
    # ------------------------------------------------------------------
    @property
    def frame_interval(self) -> float:
        return 1.0 / self.fps

    def target_bitrate_bps(self) -> float:
        target = self.cc.target_bitrate_bps() * MEDIA_RATE_FRACTION
        if self.max_target_bitrate_bps is not None:
            target = min(target, self.max_target_bitrate_bps)
        # WebRTC-style pacer pushback: once the pacer holds more than a
        # couple hundred ms of data, the media allocation is reduced so
        # the encoder stops feeding a queue the network cannot drain.
        queue_time = self.pacer.queued_bytes * 8 / max(self.cc.bwe_bps, 1.0)
        if queue_time > 0.2:
            target *= max(0.3, 1.0 - 0.7 * (queue_time - 0.2))
        return target

    def _capture_tick(self) -> None:
        if self._stopped:
            return
        frame = self.source.next_frame()
        if self._should_drop(frame):
            self.frames_dropped += 1
        else:
            self._encode_frame(frame)
        self.loop.call_later(self.frame_interval, self._capture_tick,
                             name="sender.capture")

    def _should_drop(self, frame: RawFrame) -> bool:
        """Temporal-layer degradation: skip enhancement frames under
        sustained backlog (off at temporal_layers=1)."""
        if self.temporal_layers < 2:
            return False
        if frame.frame_id % 2 == 0:
            return False  # base layer always flows
        queue_time = self.pacer.queued_bytes * 8 / max(self.cc.bwe_bps, 1.0)
        return queue_time > self.frame_drop_queue_time

    def _encode_frame(self, frame: RawFrame) -> None:
        target_bps = self.target_bitrate_bps()
        fps = self.fps
        level = 0
        if self.ace_c is not None:
            # Only a severe pacer backlog (a large multiple of the frame
            # budget) waives the oversize gate: then any size saving
            # shortens queueing directly. Kept rare so the elevated
            # fraction stays near the paper's few percent.
            frame_budget = target_bps / fps / 8.0
            backlogged = self.pacer.queued_bytes > 8 * frame_budget
            level = self.ace_c.select_complexity(
                frame.frame_id, self.codec.rc_satd(frame),
                self.codec.rc_satd_mean, now=self.loop.now,
                backlogged=backlogged)

        tel = self.telemetry
        if tel is not None:
            tel.frame_stage(frame.frame_id, "capture", at=frame.capture_time)

        is_keyframe = False
        if self._pli_pending and self.keyframe_on_pli:
            is_keyframe = True
            self._pli_pending = False
            self.keyframes_sent += 1

        planned = self.rate_control.plan_bytes(self.codec, frame, target_bps, fps)
        if is_keyframe:
            planned *= KEYFRAME_SIZE_FACTOR
        c0_plan = planned
        if level > 0 and self.ace_c is not None:
            # §5.1 "Interaction with Rate Control": shrink the planned
            # size by the level's compression factor so the higher
            # complexity yields a smaller frame at similar quality.
            planned *= (1.0 - self.ace_c.phi[level])

        if self.salsify:
            encoded = self._salsify_encode(frame, planned, target_bps, fps)
        else:
            encoded = self.codec.encode(frame, planned, level,
                                        encode_start=self.loop.now,
                                        is_keyframe=is_keyframe)

        # The software encoder is serial: a frame whose predecessor is
        # still encoding waits (matters for Salsify's double encodes).
        start = max(self.loop.now, self._encoding_busy_until)
        finish = start + encoded.encode_time
        self._encoding_busy_until = finish
        encoded.encode_start = start
        encoded.encode_end = finish
        self.encoded_frames.append(encoded)
        if tel is not None:
            tel.frame_stage(encoded.frame_id, "encode_start", at=start)
            tel.frame_stage(encoded.frame_id, "encode_end", at=finish)

        self.rate_control.on_encoded(encoded.size_bytes, target_bps, fps)
        if self.ace_c is not None:
            target_frame_bytes = target_bps / fps / 8.0
            self.ace_c.on_encoded(frame.frame_id, encoded.size_bytes,
                                  target_frame_bytes, encoded.encode_time,
                                  c0_plan_bytes=c0_plan)

        metrics = FrameMetrics(
            frame_id=encoded.frame_id,
            capture_time=encoded.capture_time,
            size_bytes=encoded.size_bytes,
            quality_vmaf=encoded.quality_vmaf,
            complexity_level=encoded.complexity_level,
            encode_time=finish - frame.capture_time
            if finish > frame.capture_time else encoded.encode_time,
            satd=encoded.satd,
            planned_bytes=encoded.planned_bytes,
        )
        self.frame_metrics[encoded.frame_id] = metrics
        self.loop.call_at(finish, lambda e=encoded: self._frame_encoded(e),
                          name="sender.encoded")

    def _salsify_encode(self, frame: RawFrame, planned: float,
                        target_bps: float, fps: float) -> EncodedFrame:
        """Encode two candidate sizes; keep the best that fits the budget.

        Salsify's execution-state codec produces a lower- and a higher-
        quality version of each frame and lets the transport pick. Our
        budget test: the larger version is kept only when the pacer is
        empty (nothing backlogged) — otherwise the smaller one ships.
        """
        low = self.codec.encode(frame, planned * SALSIFY_LOW_FACTOR, 0,
                                encode_start=self.loop.now)
        high = self.codec.encode(frame, planned * SALSIFY_HIGH_FACTOR, 0,
                                 encode_start=self.loop.now)
        # Salsify keeps the larger version only when it fits what the
        # network can absorb this frame interval: the per-frame budget
        # minus whatever is still backlogged at the sender.
        frame_budget = target_bps / fps / 8.0
        budget_ok = high.size_bytes + self.pacer.queued_bytes <= frame_budget * 1.25
        chosen = high if budget_ok else low
        # Two encodes cost two encode times (Fig. 23: Salsify slowest).
        chosen.encode_time = low.encode_time + high.encode_time
        return chosen

    def _frame_encoded(self, encoded: EncodedFrame) -> None:
        if self._stopped:
            return
        if self.batch_sink is not None:
            self.batch_sink.on_frame_encoded(self, encoded)
            return
        packets = self.packetizer.packetize(
            encoded, prev_sent_frame_id=self._last_sent_frame_id)
        self._last_sent_frame_id = encoded.frame_id
        self.remember_frame(encoded.frame_id, packets[0].seq, len(packets),
                            packets.__getitem__)
        if self.fec is not None:
            packets = self.fec.protect(packets)
            for packet in packets:
                if packet.seq < 0:
                    # Parity flows in its own sequence space (FlexFEC has
                    # its own SSRC): never NACKed, never a media gap.
                    self._parity_seq -= 1
                    packet.seq = self._parity_seq
        metrics = self.frame_metrics[encoded.frame_id]
        metrics.pacer_enqueue = self.loop.now
        tel = self.telemetry
        if tel is not None:
            tel.frame_stage(encoded.frame_id, "packetize")
            tel.frame_stage(encoded.frame_id, "pacer_enqueue")
        if self.ace_n is not None:
            self.ace_n.on_frame_enqueued(encoded.size_bytes)
        self.pacer.enqueue(packets)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _packet_leaves_pacer(self, packet: Packet) -> None:
        now = self.loop.now
        self.send_events.add((now, packet.size_bytes))
        if packet.retransmission_of is None:
            # Pacing latency tracks fresh media only; retransmissions
            # leaving later must not rewrite the frame's pacer-exit time
            # (their cost shows up in the network/retransmit component).
            metrics = self.frame_metrics.get(packet.frame_id)
            if metrics is not None:
                metrics.pacer_last_exit = now
            if self.telemetry is not None and packet.frame_id >= 0:
                enq = packet.t_enqueue_pacer
                self.telemetry.packet_wire(
                    packet.frame_id, packet.size_bytes,
                    None if enq is None else now - enq)
        self._orig_send_fn(packet)

    # ------------------------------------------------------------------
    # feedback handling
    # ------------------------------------------------------------------
    def on_feedback(self, message: FeedbackMessage) -> None:
        now = self.loop.now
        reverse = self.reverse_delay
        if hasattr(self.cc, "observe_reverse_delay"):
            self.cc.observe_reverse_delay(reverse)
        reports = message.reports
        if reports.arrays:
            if len(reports):
                self.cc.observe_rtt_array(
                    reports.arrival_times - reports.send_times + reverse)
        else:
            observe_rtt = self.cc.observe_rtt
            for send, arrival in zip(reports.send_times,
                                     reports.arrival_times):
                observe_rtt(arrival - send + reverse)
        self.cc.on_feedback(message, now)
        if self.fec is not None:
            self._reports_seen += len(message.reports)
            new_loss = message.cumulative_lost - self._loss_seen
            self._loss_seen = message.cumulative_lost
            accounted = len(message.reports) + max(new_loss, 0)
            if accounted > 0:
                self.fec.observe_loss_rate(max(new_loss, 0) / accounted)
        self.pacer.set_pacing_rate(self.cc.bwe_bps)
        if self.ace_n is not None:
            self.ace_n.on_feedback(message, now, reverse_delay=reverse)
            if isinstance(self.pacer, TokenBucketPacer):
                frame_budget = self.target_bitrate_bps() / self.fps / 8.0
                self.pacer.rate_factor = self.ace_n.rate_factor(frame_budget)
                self.pacer.set_pacing_rate(self.cc.bwe_bps)
                self.pacer.set_bucket_size(self.ace_n.bucket_bytes)
        if message.pli_requested:
            self._pli_pending = True
        self._handle_nacks(message.nacked_seqs)

    def remember_frame(self, frame_id: int, seq0: int, count: int,
                       packet_at: Callable[[int], Packet]) -> None:
        """Enter a frame just handed to the pacer into the RTX table.

        Its media packets carry the contiguous seqs ``seq0 .. seq0 +
        count - 1``; ``packet_at(k)`` returns the k-th of them — the
        packet list's ``__getitem__``, or for a batch-engine burst a
        builder that makes the Packet on demand. One entry per frame, so
        a loss-free run does no per-packet work here.
        """
        self._rtx_frames.append((frame_id, seq0, count, packet_at))

    def _handle_nacks(self, seqs: list[int]) -> None:
        now = self.loop.now
        frames = self._rtx_frames
        for seq in seqs:
            i = bisect_right(frames, seq, key=_BY_FIRST_SEQ) - 1
            if i < 0:
                continue
            _fid, seq0, count, packet_at = frames[i]
            if seq - seq0 >= count:
                continue    # frame displayed and forgotten, or an RTX's seq
            last = self._rtx_last_sent.get(seq)
            if last is not None and now - last < RTX_MIN_INTERVAL:
                continue
            self._rtx_last_sent[seq] = now
            rtx = packet_at(seq - seq0).clone_for_retransmission()
            self.packetizer.assign_seq(rtx)
            self.retransmissions += 1
            self.pacer.enqueue_retransmission(rtx)

    def forget_frame(self, frame_id: int) -> None:
        """Drop RTX state for a frame that has been displayed."""
        frames = self._rtx_frames
        i = bisect_left(frames, frame_id, key=_BY_FRAME_ID)
        if i == len(frames) or frames[i][0] != frame_id:
            return
        _fid, seq0, count, _packet_at = frames.pop(i)
        rtx_last = self._rtx_last_sent
        if rtx_last:
            for seq in range(seq0, seq0 + count):
                rtx_last.pop(seq, None)


#: sort keys of a ``Sender._rtx_frames`` entry.
_BY_FRAME_ID, _BY_FIRST_SEQ = itemgetter(0), itemgetter(1)
