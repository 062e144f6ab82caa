"""A live session on the simulator's clock is the simulated session.

``LiveSession.run`` builds its flow and path with ``Session._single_flow``
on a ``WallClock`` between two ``UdpTransport``s. Here the same step
builds it on an ``EventLoop`` between two ``UdpTransport``s whose
``_sendto`` hands each datagram to the peer's ``_receive``: every media
packet and feedback message is encoded and decoded by
:mod:`repro.live.wire`, but nothing waits on a socket or a timer. The
simulator's own driver (``Session.run``) then runs it, and the result
must carry ``RtcSession``'s fingerprint bit for bit, so the live wiring
and the wire codec are pinned end to end without timing flakiness.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.live import LiveConfig, build_live_session
from repro.live.transport import UdpTransport
from repro.net.trace import trace_by_kind
from repro.rtc import SessionConfig, build_session
from repro.rtc.session import Session
from repro.sim import EventLoop, RngStream
from tests.test_sim_regression import fingerprint

DURATION = 4.0
SEED = 2


class MemoryTransport(UdpTransport):
    """A socketless ``UdpTransport``: each datagram it sends is read by
    its peer at once."""

    peer: "MemoryTransport"
    datagrams = 0

    def _sendto(self, data: bytes) -> None:
        self.datagrams += 1
        self.peer._receive(data)


def memory_pair(clock) -> tuple[MemoryTransport, MemoryTransport]:
    """(receiver end, sender end), peered with each other."""
    recv_end, send_end = MemoryTransport(clock), MemoryTransport(clock)
    recv_end.peer, send_end.peer = send_end, recv_end
    return recv_end, send_end


@pytest.mark.parametrize("baseline,kind,loss", list(product(
    ("ace", "webrtc-star"), ("const:20", "wifi"), (0.0, 0.01))))
def test_a_live_session_on_the_sim_clock_is_the_simulated_session(
        baseline, kind, loss):
    trace = trace_by_kind(kind, RngStream(11, "trace"), DURATION + 10)
    simulated = build_session(baseline, trace, SessionConfig(
        duration=DURATION, seed=SEED, random_loss_rate=loss)).run()

    live = build_live_session(baseline, LiveConfig(
        duration=DURATION, seed=SEED, random_loss_rate=loss), trace)
    loop = EventLoop()
    recv_end, send_end = ends = memory_pair(loop)
    live._single_flow(loop, ends)
    metrics = Session.run(live)[0]

    assert fingerprint(metrics) == fingerprint(simulated)
    # Every packet the path delivered crossed the wire codec, and so did
    # the feedback; none failed to decode.
    assert send_end.datagrams == \
        metrics.packets_sent - metrics.packets_lost > 0
    assert recv_end.datagrams > 0
    assert recv_end.malformed == send_end.malformed == 0
