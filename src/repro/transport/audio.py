"""Audio substream: Opus-style constant-cadence packets with pacer priority.

Real RTC sessions multiplex audio with video. Audio is tiny (an Opus
frame every 20 ms, ~160 bytes) but latency-critical, and WebRTC's pacer
gives it strict priority over video. That priority is what protects
speech when an oversized video frame backlogs the pacer — and a useful
lens on burstiness control: a pacer stuffed with video hurts audio only
as much as its head-of-line packet.

The audio stream rides the existing media machinery: packets carry
``frame_id = -1`` (not video-frame bookkeeping) and their own
``audio_seq`` numbering; the receiver records per-packet mouth-to-ear
delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import Packet, PacketType

if TYPE_CHECKING:
    from repro.live.clock import Clock

#: Opus defaults: one frame every 20 ms, ~64 kbps -> 160 B payloads.
AUDIO_INTERVAL_S = 0.020
AUDIO_PAYLOAD_BYTES = 160


@dataclass
class AudioStats:
    sent: int = 0
    received: int = 0
    #: mouth-to-ear delays (capture -> arrival), seconds.
    delays: list = field(init=False, default_factory=list)


class AudioSource:
    """Generates the audio packet cadence on the event loop.

    ``enqueue_fn`` receives each packet; the sender wires it into the
    pacer's priority queue.
    """

    def __init__(self, loop: "Clock",
                 enqueue_fn: Callable[[Packet], None]) -> None:
        self.loop = loop
        self.enqueue_fn = enqueue_fn
        self.stats = AudioStats()
        self._seq = 0
        self._stopped = False

    def start(self) -> None:
        self.loop.call_later(0.0, self._tick, name="audio.capture")

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        packet = Packet(
            size_bytes=AUDIO_PAYLOAD_BYTES,
            ptype=PacketType.VIDEO,   # shares the media path
            seq=-1,                   # not in the video NACK space
            frame_id=-1,
        )
        packet.audio_seq = self._seq          # type: ignore[attr-defined]
        packet.audio_capture = self.loop.now  # type: ignore[attr-defined]
        self._seq += 1
        self.stats.sent += 1
        self.enqueue_fn(packet)
        self.loop.call_later(AUDIO_INTERVAL_S, self._tick, name="audio.capture")


class AudioReceiver:
    """Collects mouth-to-ear delays for arriving audio packets."""

    def __init__(self, loop: "Clock") -> None:
        self.loop = loop
        self.stats = AudioStats()

    def on_packet(self, packet: Packet) -> bool:
        """Returns True when the packet was an audio packet (consumed)."""
        if packet.frame_id >= 0:
            # Video/RTX/parity packets all carry a frame id; only audio
            # uses -1. Rejecting here skips the getattr fallback (an
            # AttributeError per packet on slotted Packets).
            return False
        capture = getattr(packet, "audio_capture", None)
        if capture is None:
            return False
        self.stats.received += 1
        self.stats.delays.append(self.loop.now - capture)
        return True

    def p95_delay(self) -> float:
        if not self.stats.delays:
            return float("nan")
        import numpy as np

        return float(np.percentile(self.stats.delays, 95))
