"""Arena topology: a chain of shared bottleneck routers.

The single-flow :class:`~repro.net.path.NetworkPath` models the paper's
Mahimahi setup — one trace-driven bottleneck between sender and
receiver. The arena generalizes that to a *chain* of one or more
bottleneck routers, each with its own trace and pluggable queue
discipline (:mod:`repro.net.aqm`), shared by N concurrent flows.

:class:`ArenaPath` subclasses ``NetworkPath`` so the first router reuses
the exact ingress scheduling (loss/contention checks, ``half_hop``
propagation, jitter on final delivery). With a single drop-tail router
and no per-flow routes, an ``ArenaPath`` produces the same event
sequence as a plain ``NetworkPath`` — that invariant is what makes
:class:`~repro.arena.session.ArenaSession` a faithful superset of a
single shared-bottleneck session.

Per-flow routes (``flow_routes[fid] -> tuple of router indices``) let a
flow traverse a subset of the chain, which models partially-overlapping
paths: two flows can share router 0 while only one also crosses
router 1. Packets hop between routers with no extra propagation delay —
the end-to-end budget stays ``base_rtt`` regardless of chain length, so
chain length only adds queueing/serialization, never propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.net.aqm import DEFAULT_DISCIPLINE, make_discipline
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream


@dataclass
class BottleneckSpec:
    """One router in the arena chain."""

    trace: BandwidthTrace
    discipline: str = DEFAULT_DISCIPLINE
    #: ``None`` inherits the path-level queue capacity.
    queue_capacity_bytes: Optional[int] = None


class ArenaPath(NetworkPath):
    """N-flow network path over a chain of bottleneck routers.

    Router 0 is ``self.link`` (inherited); ``self.links`` holds the full
    chain. A lone router delivers straight to the inherited final-
    delivery logic (half-hop propagation plus optional jitter), as a
    plain path's does; in a chain each link's delivery is rewired into
    :meth:`_hop_delivered`, which forwards the packet to the next router
    on its flow's route or hands it to that logic.
    """

    def __init__(self, loop: EventLoop,
                 bottlenecks: Sequence[BottleneckSpec],
                 config: Optional[PathConfig] = None,
                 rng: Optional[RngStream] = None,
                 aqm_rng: Optional[RngStream] = None,
                 flow_routes: Optional[Dict[int, Tuple[int, ...]]] = None
                 ) -> None:
        specs = list(bottlenecks)
        if not specs:
            raise ValueError("need at least one bottleneck router")
        config = config or PathConfig()
        self._aqm_rng = aqm_rng
        super().__init__(loop, specs[0].trace, config, rng=rng,
                         discipline=self._build_discipline(specs[0], config))
        self.bottlenecks = specs
        self.links: list[Link] = [self.link]
        for spec in specs[1:]:
            self.links.append(Link(
                loop, spec.trace,
                queue_capacity_bytes=(spec.queue_capacity_bytes
                                      or config.queue_capacity_bytes),
                on_drop=self._dropped_by_link,
                discipline=self._build_discipline(spec, config),
            ))
        if len(self.links) > 1:
            for i, link in enumerate(self.links):
                link.on_deliver = partial(self._hop_delivered, i)
            # A router that feeds another must deliver at its departure
            # instant, not at enqueue: chains keep the serve events.
            self.link.depart_by_event()
        self.flow_routes: Dict[int, Tuple[int, ...]] = {}
        for fid, route in (flow_routes or {}).items():
            route = tuple(route)
            if not route:
                raise ValueError(f"flow {fid}: route must not be empty")
            if any(r < 0 or r >= len(self.links) for r in route):
                raise ValueError(f"flow {fid}: route {route} references "
                                 f"unknown router (have {len(self.links)})")
            if list(route) != sorted(set(route)):
                raise ValueError(f"flow {fid}: route {route} must be "
                                 "strictly increasing router indices")
            self.flow_routes[fid] = route
        if len(self.links) == 1:
            # Every route is (0,): a packet enters the lone router the
            # way a plain path enters its link, with no route lookup and
            # no frame of this class's ``send`` in between.
            self.send = NetworkPath.send.__get__(self)

    def _build_discipline(self, spec: BottleneckSpec, config: PathConfig):
        """``None`` for plain drop-tail (the link builds its own queue)."""
        if (spec.discipline == DEFAULT_DISCIPLINE
                and spec.queue_capacity_bytes is None):
            return None
        capacity = spec.queue_capacity_bytes or config.queue_capacity_bytes
        return make_discipline(spec.discipline, capacity, rng=self._aqm_rng)

    # ------------------------------------------------------------------
    # forward direction
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a packet; enters the first router on its flow's route.
        Router 0 is entered the way a plain path enters its link (a
        lone drop-tail router is closed-form there). A lone router's
        path sends with :meth:`NetworkPath.send` itself."""
        route = self.flow_routes.get(packet.flow_id)
        if not route or not route[0]:
            NetworkPath.send(self, packet)
            return
        if self._lossy and self._lost_at_ingress(packet):
            return
        loop = self.loop
        loop.post(loop.now + self._half_hop, self.links[route[0]].send, packet,
                  "path.to-bottleneck")

    def _hop_delivered(self, index: int, packet: Packet) -> None:
        """Router ``index`` finished serializing ``packet``."""
        route = self.flow_routes.get(packet.flow_id)
        if route is None:
            nxt = index + 1 if index + 1 < len(self.links) else None
        else:
            nxt = next((r for r in route if r > index), None)
        if nxt is None:
            self._delivered_by_link(packet)
        else:
            # Back-to-back routers: no propagation between them (the
            # end-to-end budget is base_rtt regardless of chain length).
            self.links[nxt].send(packet)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def router_stats(self) -> list[dict]:
        """Per-router counters for manifests and reports."""
        out = []
        for spec, link in zip(self.bottlenecks, self.links):
            stats = link.stats
            entry = {
                "discipline": spec.discipline,
                "enqueued_packets": stats.enqueued_packets,
                "delivered_packets": stats.delivered_packets,
                "dropped_packets": stats.dropped_packets,
                "dropped_bytes": stats.dropped_bytes,
            }
            aqm_drops = getattr(link.queue, "aqm_drops", None)
            if aqm_drops is not None:
                entry["aqm_drops"] = aqm_drops
            evictions = getattr(link.queue, "evictions", None)
            if evictions is not None:
                entry["evictions"] = evictions
            out.append(entry)
        return out
