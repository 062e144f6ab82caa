"""Forward error correction (XOR parity) for the RTC pipeline.

The paper leaves co-designing ACE with loss recovery as future work
(§8: "our strategy ACE-N takes loss as input; random loss which should
be dealt with by FEC may be noise to our algorithm"). This module
provides that substrate: a WebRTC-FlexFEC-style XOR parity scheme so
random wireless loss can be repaired without NACK round trips, plus an
adaptive redundancy controller driven by the observed loss rate.

Scheme: each frame's packet train is split into groups of up to
``group_size`` packets; each group gets one parity packet (the XOR of
the group). Any single loss within a group is recoverable immediately;
burst losses within a group still fall back to NACK retransmission.
Only metadata is simulated (packet contents never exist), so "XOR" here
is bookkeeping: a parity packet knows which sequence numbers it covers
and the receiver reconstructs a missing packet when all other group
members plus the parity have arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.net.packet import Packet, PacketType


class FecEncoder:
    """Sender-side parity generation over each frame's packet train."""

    #: media packets covered per parity packet at start (smaller = more
    #: overhead, more single-loss protection); the observed loss rate
    #: then scales it between the bounds.
    GROUP_SIZE = 10
    MIN_GROUP_SIZE = 4
    MAX_GROUP_SIZE = 20
    #: loss EWMA smoothing for the adaptive controller.
    LOSS_ALPHA = 0.3

    def __init__(self) -> None:
        self._group_size = self.GROUP_SIZE
        self._loss_ewma = 0.0
        self.parity_sent = 0

    def observe_loss_rate(self, loss_rate: float) -> None:
        """Adapt redundancy to the observed loss rate."""
        self._loss_ewma = (self.LOSS_ALPHA * loss_rate
                           + (1 - self.LOSS_ALPHA) * self._loss_ewma)
        # Aim for parity spacing such that the expected losses per group
        # stay below ~1: group ~= 1 / (2 * loss).
        if self._loss_ewma < 1e-4:
            self._group_size = self.MAX_GROUP_SIZE
        else:
            target = int(1.0 / (2 * self._loss_ewma))
            self._group_size = min(max(target, self.MIN_GROUP_SIZE),
                                   self.MAX_GROUP_SIZE)

    def protect(self, packets: list[Packet]) -> list[Packet]:
        """Interleave parity packets into a frame's packet train.

        Returns the full train (media + parity) in send order; parity
        packets carry ``fec_covers`` metadata listing the sequence
        numbers they repair.
        """
        out: list[Packet] = []
        group: list[Packet] = []
        for packet in packets:
            out.append(packet)
            group.append(packet)
            if len(group) >= self._group_size:
                out.append(self._parity_for(group))
                group = []
        if group:
            out.append(self._parity_for(group))
        return out

    def _parity_for(self, group: list[Packet]) -> Packet:
        parity = Packet(
            size_bytes=max(p.size_bytes for p in group),
            ptype=PacketType.PROBE,  # non-media; reuse probe plumbing
            frame_id=group[0].frame_id,
            frame_packet_index=-1,
            frame_packet_count=group[0].frame_packet_count,
        )
        parity.fec_covers = [p.seq for p in group]  # type: ignore[attr-defined]
        # Reconstruction metadata: what each covered packet *was* (a real
        # parity packet carries this in its FlexFEC header + XOR payload).
        parity.fec_meta = {  # type: ignore[attr-defined]
            p.seq: (p.frame_id, p.frame_packet_index,
                    p.frame_packet_count, p.size_bytes)
            for p in group
        }
        self.parity_sent += 1
        return parity


@dataclass
class FecStats:
    parity_received: int = 0
    repairs: int = 0


class FecDecoder:
    """Receiver-side single-loss repair from parity packets.

    The decoder watches media arrivals and parity arrivals; when a
    parity packet's coverage set is missing exactly one member and the
    rest have arrived, the missing packet is reconstructed and handed to
    ``on_repair`` as if it had arrived.
    """

    def __init__(self, on_repair: Callable[[int], None]) -> None:
        self.on_repair = on_repair
        self.stats = FecStats()
        self._received: set[int] = set()
        #: parity coverage sets still waiting for repairs.
        self._pending: list[list[int]] = []

    def on_media(self, seq: int) -> None:
        self._received.add(seq)
        if self._pending:
            self._try_repairs()

    def on_parity(self, covers: Iterable[int]) -> None:
        self.stats.parity_received += 1
        self._pending.append(list(covers))
        self._try_repairs()

    def _try_repairs(self) -> None:
        still_pending: list[list[int]] = []
        for covers in self._pending:
            missing = [seq for seq in covers if seq not in self._received]
            if not missing:
                continue  # fully received; parity no longer needed
            if len(missing) == 1:
                seq = missing[0]
                self._received.add(seq)
                self.stats.repairs += 1
                self.on_repair(seq)
                continue
            still_pending.append(covers)
        self._pending = still_pending

