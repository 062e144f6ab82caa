"""repro.live — wall-clock runtime for the ACE stack over real sockets.

The simulator answers "is the control logic right?"; this package
answers "does it survive contact with an operating system?" — real UDP
sockets, real asyncio timers, real scheduling jitter. It provides:

* :mod:`repro.live.clock` — the :class:`Clock` scheduling protocol
  (the simulator's ``EventLoop`` satisfies it natively) and its asyncio
  implementation :class:`WallClock`;
* :mod:`repro.live.transport` — the :class:`Transport` surface and its
  :class:`UdpTransport` datagram endpoint (in simulation the
  ``NetworkPath`` itself has the surface);
* :mod:`repro.live.wire` — the binary datagram format;
* :mod:`repro.live.impairment` — the in-process bottleneck shim that
  substitutes for Mahimahi/netem on the loopback path;
* :mod:`repro.live.session` — :class:`LiveSession` /
  :func:`build_live_session` / :func:`run_live`;
* :mod:`repro.live.server` — :class:`SessionSupervisor` /
  :func:`run_load`: N concurrent sessions on one event loop with
  sharded telemetry, failure isolation, and graceful drain;
* :mod:`repro.live.stats` — the shared loopback HTTP snapshot endpoint.

``LiveSession``/``SessionSupervisor`` and friends are re-exported
lazily: the clock module is imported on its own (the core stack's type
annotations, timer probes), and that should not load the session,
supervisor and telemetry stack.
"""

from __future__ import annotations

from repro.live.clock import Clock, WallClock, WallTimer
from repro.live.impairment import LoopbackImpairment
from repro.live.transport import Transport, UdpTransport

__all__ = [
    "Clock", "WallClock", "WallTimer",
    "LoopbackImpairment",
    "Transport", "UdpTransport",
    "LiveConfig", "LiveSession", "build_live_session", "run_live",
    "LoadConfig", "SessionRecord", "SessionSpec", "SessionSupervisor",
    "build_load_specs", "run_load", "run_load_async",
]

_LAZY_SESSION = {"LiveConfig", "LiveSession", "build_live_session",
                 "run_live"}
_LAZY_SERVER = {"LoadConfig", "SessionRecord", "SessionSpec",
                "SessionSupervisor", "build_load_specs", "run_load",
                "run_load_async"}


def __getattr__(name: str):
    if name in _LAZY_SESSION:
        from repro.live import session
        return getattr(session, name)
    if name in _LAZY_SERVER:
        from repro.live import server
        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
