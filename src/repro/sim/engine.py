"""Simulation engine seam: interchangeable session-advancing strategies.

A session owns an :class:`~repro.sim.events.EventLoop` and a network
path; *how* simulated time is advanced between the session's start and
its horizon is an engine concern. Two engines ship:

* ``reference`` — the discrete-event loop itself: every packet hop is a
  heap event. This is the bit-exact baseline the golden fingerprints in
  ``tests/test_sim_regression.py`` are pinned to.
* ``batch`` — :class:`~repro.sim.batch.BatchEngine`: macro-steps the
  pacer→link→queue pipeline between decision boundaries with vectorized
  closed forms (see DESIGN §10), falling back to reference semantics for
  configurations the fast path does not model.

Engines are deliberately tiny: ``prepare`` installs any hooks,
``advance`` moves the session's clock to ``until`` (inclusive, like
``EventLoop.run``), ``finalize`` flushes deferred bookkeeping before
metrics collection.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Optional, Protocol, Type,
                    runtime_checkable)

if TYPE_CHECKING:
    from repro.rtc.session import RtcSession


@runtime_checkable
class SimulationEngine(Protocol):
    """Strategy for advancing a session's simulated clock."""

    #: registry key and the value recorded in fleet manifests.
    name: str
    #: why the run used reference semantics instead (None = it did not).
    fallback_reason: Optional[str]
    #: media packets on the fast path's (vector, scalar) link lanes.
    lane_packets: Optional[tuple[int, int]]

    def prepare(self, session: "RtcSession") -> None:
        """Install hooks on a fully-wired session, before it starts."""

    def advance(self, session: "RtcSession", until: float) -> None:
        """Advance simulated time to ``until`` (inclusive)."""

    def finalize(self, session: "RtcSession") -> None:
        """Flush deferred state before metrics collection."""


class ReferenceEngine:
    """The discrete-event loop, unchanged: one heap event per hop."""

    name = "reference"
    fallback_reason = None
    lane_packets = None

    def prepare(self, session: "RtcSession") -> None:  # pragma: no cover
        pass

    def advance(self, session: "RtcSession", until: float) -> None:
        session.loop.run(until=until)

    def finalize(self, session: "RtcSession") -> None:  # pragma: no cover
        pass


def _batch_engine_cls() -> Type:
    # Imported lazily: batch.py needs numpy and pulls in transport
    # modules; the reference path must not pay for that import.
    from repro.sim.batch import BatchEngine

    return BatchEngine


ENGINE_NAMES = ("reference", "batch")


def get_engine(name: str) -> SimulationEngine:
    """Instantiate the engine registered under ``name``.

    Engines are stateful (the batch engine carries its pipeline), so
    every call returns a fresh instance.
    """
    if name == "reference":
        return ReferenceEngine()
    if name == "batch":
        return _batch_engine_cls()()
    raise ValueError(
        f"unknown engine {name!r}; expected one of {ENGINE_NAMES}")
