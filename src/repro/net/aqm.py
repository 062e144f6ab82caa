"""Queue disciplines for bottleneck routers (the arena's AQM axis).

The paper's testbed emulates exactly one queue model: a FIFO drop-tail
buffer of fixed byte capacity (100 KB, §6.1). Confucius (PAPERS.md)
shows that for real-time media the *discipline itself* decides latency
consistency — an RTC flow behind a bulk flow on drop-tail inherits the
bulk flow's standing queue — so the many-flow arena makes the discipline
a first-class, pluggable axis.

Every discipline implements the small :class:`QueueDiscipline` protocol
the bottleneck :class:`~repro.net.link.Link` drives:

* ``enqueue(packet, now)`` — admit or drop on arrival (tail/PIE drops);
* ``select_head(now)`` — choose the next packet to serialize *without
  removing it* (CoDel head drops and Confucius scheduling happen here;
  the packet stays queued during serialization, exactly like the
  historical drop-tail path, so occupancy accounting is unchanged);
* ``pop_head()`` — remove the previously selected packet at the end of
  its serialization;
* ``drop_hook`` — callable the link installs; disciplines report
  packets they drop *from inside the queue* (CoDel, Confucius eviction)
  through it. Arrival rejections are reported by returning ``False``
  from ``enqueue`` instead.

:class:`DropTailQueue` — extracted verbatim from ``net/link.py`` — is
the default. It is the one discipline that decides nothing at dequeue
time, so a lone drop-tail hop's departures are closed-form and the link
computes them at enqueue (``net/link.py``); CoDel, PIE and the
Confucius-style shield decide in ``select_head`` and stay evented.

Disciplines included:

* ``droptail`` — FIFO, byte-bounded, drop arrivals when full (paper §6.1).
* ``codel``    — Controlled Delay (Nichols & Jacobson): drop at the head
  when sojourn time stays above ``target`` for an ``interval``, with the
  ``interval/sqrt(count)`` control law. Deterministic (no RNG).
* ``pie``      — Proportional Integral controller Enhanced (RFC 8033),
  sojourn-based variant: a drop probability updated from the queue-delay
  error and its derivative, applied on arrival. Uses an RNG stream when
  given one, otherwise deterministic probability dithering.
* ``confucius`` — Confucius-style RTC-aware scheduling (PAPERS.md):
  flows whose recent arrival rate is a small share of the total are
  *sparse* (audio, thin RTC video behind bulk flows); their packets are
  served first and, when the buffer is full, backlog is evicted from the
  fattest non-sparse flow to admit them.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, Iterator, Optional, Protocol, \
    runtime_checkable

from repro.net.packet import Packet

#: The paper fixes the emulated network buffer at 100 KB for all main
#: experiments (§6.1).
DEFAULT_QUEUE_CAPACITY_BYTES = 100_000


@runtime_checkable
class QueueDiscipline(Protocol):
    """Router queue interface the bottleneck link drives (see module doc)."""

    capacity_bytes: int
    drop_hook: Optional[Callable[[Packet], None]]

    def __len__(self) -> int: ...

    @property
    def bytes_queued(self) -> int: ...

    def enqueue(self, packet: Packet, now: float) -> bool: ...

    def select_head(self, now: float) -> Optional[Packet]: ...

    def pop_head(self) -> Packet: ...

    def packets(self) -> Iterator[Packet]: ...


class DropTailQueue:
    """FIFO byte-bounded queue; arrivals beyond capacity are dropped.

    This is the paper's queue model. The protocol methods (``enqueue``/
    ``select_head``/``pop_head``) are what the evented link drives; they
    are one-frame bodies, not wrappers over ``try_push``/``pop``, because
    a jittered or audited session pays them per packet. A closed-form
    link (``net/link.py``) runs the same admission rule on its
    ``DropTailServer`` and leaves this object empty: it then only names
    the discipline and its capacity.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        self._queue: Deque[Packet] = deque()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        return self._bytes

    def try_push(self, packet: Packet) -> bool:
        """Append ``packet`` if it fits; return False (drop) otherwise."""
        return self.enqueue(packet, 0.0)    # drop-tail never reads the clock

    def pop(self) -> Packet:
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        return packet

    # -- QueueDiscipline protocol ------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        queued = self._bytes + packet.size_bytes
        if queued > self.capacity_bytes:
            return False
        self._queue.append(packet)
        self._bytes = queued
        return True

    def select_head(self, now: float) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    pop_head = pop

    def packets(self) -> Iterator[Packet]:
        return iter(self._queue)


class CoDelDiscipline:
    """Controlled Delay: head drops when sojourn stays above target.

    The classic two-state control law (Nichols & Jacobson, ACM Queue
    2012): once the head-of-line sojourn time has exceeded ``target_s``
    continuously for ``interval_s``, enter the dropping state and drop
    head packets at times spaced ``interval / sqrt(count)`` apart until
    the sojourn falls below target. Sojourn is measured when the link
    selects the next packet to serialize (``select_head``), which is
    this simulator's dequeue instant. A hard byte capacity still
    tail-drops arrivals — CoDel controls latency, not memory.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
                 target_s: float = 0.005, interval_s: float = 0.1) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("CoDel target/interval must be positive")
        self.capacity_bytes = capacity_bytes
        self.target_s = target_s
        self.interval_s = interval_s
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        # control-law state
        self._first_above_time = 0.0
        self._drop_next = 0.0
        self._count = 0
        self._lastcount = 0
        self._dropping = False
        #: head drops performed by the control law (not tail drops).
        self.aqm_drops = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        return self._bytes

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._bytes + packet.size_bytes > self.capacity_bytes:
            return False
        self._queue.append(packet)
        self._bytes += packet.size_bytes
        return True

    # -- control law --------------------------------------------------
    def _should_drop(self, now: float) -> bool:
        """The `ok_to_drop` test on the current head, updating state."""
        head = self._queue[0] if self._queue else None
        if head is None:
            self._first_above_time = 0.0
            return False
        sojourn = now - (head.t_enter_queue or now)
        if sojourn < self.target_s or self._bytes <= head.size_bytes:
            # below target, or only one packet left: never starve the link.
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval_s
            return False
        return now >= self._first_above_time

    def _drop_head(self) -> None:
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        self.aqm_drops += 1
        if self.drop_hook is not None:
            self.drop_hook(packet)

    def select_head(self, now: float) -> Optional[Packet]:
        drop = self._should_drop(now)
        if self._dropping:
            if not drop:
                self._dropping = False
            else:
                while self._dropping and now >= self._drop_next:
                    self._drop_head()
                    self._count += 1
                    if not self._should_drop(now):
                        self._dropping = False
                        break
                    self._drop_next += self.interval_s / math.sqrt(self._count)
        elif drop and (now - self._drop_next < self.interval_s
                       or now - self._first_above_time >= self.interval_s):
            self._drop_head()
            self._dropping = True
            # Re-enter near the last drop rate if we left it recently.
            delta = self._count - self._lastcount
            if delta > 1 and now - self._drop_next < self.interval_s:
                self._count = delta
            else:
                self._count = 1
            self._lastcount = self._count
            self._drop_next = now + self.interval_s / math.sqrt(self._count)
        return self._queue[0] if self._queue else None

    def pop_head(self) -> Packet:
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        return packet

    def packets(self) -> Iterator[Packet]:
        return iter(self._queue)


class PieDiscipline:
    """PIE (RFC 8033), sojourn-based: probabilistic drops on arrival.

    A drop probability is adjusted every ``t_update_s`` from the latency
    error ``alpha * (qdelay - target)`` plus its trend
    ``beta * (qdelay - qdelay_old)``, where ``qdelay`` is the head-of-
    line sojourn time (the RFC's timestamp variant — no departure-rate
    estimator needed, so updates are deterministic). Arrivals are then
    dropped with that probability; with ``rng=None`` the Bernoulli draw
    is replaced by deterministic probability dithering (an accumulator
    drops every ``1/p``-th packet), which keeps cached fixed-seed runs
    reproducible without an RNG stream.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
                 target_s: float = 0.015, t_update_s: float = 0.015,
                 alpha: float = 0.125, beta: float = 1.25,
                 burst_allowance_s: float = 0.15, rng=None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        if target_s <= 0 or t_update_s <= 0:
            raise ValueError("PIE target/update period must be positive")
        self.capacity_bytes = capacity_bytes
        self.target_s = target_s
        self.t_update_s = t_update_s
        self.alpha = alpha
        self.beta = beta
        self.rng = rng
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.drop_prob = 0.0
        self._qdelay_old = 0.0
        self._last_update: Optional[float] = None
        self._burst_left = burst_allowance_s
        self._burst_allowance_s = burst_allowance_s
        self._dither_acc = 0.0
        #: early (probabilistic) drops, excluding hard tail drops.
        self.aqm_drops = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        return self._bytes

    def _qdelay(self, now: float) -> float:
        head = self._queue[0] if self._queue else None
        if head is None:
            return 0.0
        return max(0.0, now - (head.t_enter_queue or now))

    def _update(self, now: float) -> None:
        qdelay = self._qdelay(now)
        p = (self.alpha * (qdelay - self.target_s)
             + self.beta * (qdelay - self._qdelay_old))
        # RFC 8033 §4.2: scale the adjustment down while drop_prob is
        # small so the controller is stable near zero.
        if self.drop_prob < 0.000001:
            p /= 2048
        elif self.drop_prob < 0.00001:
            p /= 512
        elif self.drop_prob < 0.0001:
            p /= 128
        elif self.drop_prob < 0.001:
            p /= 32
        elif self.drop_prob < 0.01:
            p /= 8
        elif self.drop_prob < 0.1:
            p /= 2
        self.drop_prob = min(1.0, max(0.0, self.drop_prob + p))
        if qdelay == 0.0 and self._qdelay_old == 0.0:
            self.drop_prob *= 0.98          # decay while idle
        self._qdelay_old = qdelay
        if self._burst_left > 0.0:
            self._burst_left = max(0.0, self._burst_left - self.t_update_s)
        elif (self.drop_prob == 0.0 and qdelay < self.target_s / 2
              and self._qdelay_old < self.target_s / 2):
            self._burst_left = self._burst_allowance_s

    def _early_drop(self, now: float) -> bool:
        if self._burst_left > 0.0 or self.drop_prob <= 0.0:
            return False
        # RFC safeguards: never early-drop a near-empty queue.
        if self._qdelay_old < self.target_s / 2 and self.drop_prob < 0.2:
            return False
        if len(self._queue) <= 2:
            return False
        if self.rng is not None:
            return self.rng.random() < self.drop_prob
        self._dither_acc += self.drop_prob
        if self._dither_acc >= 1.0:
            self._dither_acc -= 1.0
            return True
        return False

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._last_update is None:
            self._last_update = now
        while now - self._last_update >= self.t_update_s:
            self._last_update += self.t_update_s
            self._update(self._last_update)
        if self._bytes + packet.size_bytes > self.capacity_bytes:
            return False
        if self._early_drop(now):
            self.aqm_drops += 1
            return False
        self._queue.append(packet)
        self._bytes += packet.size_bytes
        return True

    def select_head(self, now: float) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    def pop_head(self) -> Packet:
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        return packet

    def packets(self) -> Iterator[Packet]:
        return iter(self._queue)


class ConfuciusDiscipline:
    """Confucius-style RTC-aware scheduling: shield sparse flows.

    Confucius (PAPERS.md) observes that real-time flows are *sparse* —
    they use a small, inelastic share of the link — and that FIFO queues
    make them inherit the standing queue of whatever bulk flow they
    share the buffer with. This discipline keeps one FIFO lane per flow,
    tracks a per-flow arrival-rate EWMA (time constant ``ewma_tau_s``),
    and classifies a flow as sparse while its rate is at most
    ``sparse_share`` of the total arrival rate. Scheduling: the oldest
    packet of any sparse flow is served before any non-sparse packet
    (FIFO within each class). Admission: when the buffer is full, a
    sparse arrival evicts backlog from the tail of the fattest
    non-sparse lane; non-sparse arrivals tail-drop as usual.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
                 sparse_share: float = 0.25, ewma_tau_s: float = 1.0) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        if not 0.0 < sparse_share < 1.0:
            raise ValueError("sparse_share must be in (0, 1)")
        self.capacity_bytes = capacity_bytes
        self.sparse_share = sparse_share
        self.ewma_tau_s = ewma_tau_s
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        #: flow id -> FIFO lane of (arrival seq, packet).
        self._lanes: Dict[int, Deque[tuple[int, Packet]]] = {}
        self._lane_bytes: Dict[int, int] = {}
        self._rate_ewma: Dict[int, float] = {}
        self._rate_at: Dict[int, float] = {}
        self._bytes = 0
        self._seq = 0
        self._selected: Optional[int] = None  # lane of the selected head
        #: packets evicted from non-sparse lanes to admit sparse traffic.
        self.evictions = 0

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    @property
    def bytes_queued(self) -> int:
        return self._bytes

    # -- rate tracking -------------------------------------------------
    def _bump_rate(self, flow_id: int, size_bytes: int, now: float) -> None:
        last = self._rate_at.get(flow_id)
        rate = self._rate_ewma.get(flow_id, 0.0)
        if last is not None and now > last:
            rate *= math.exp(-(now - last) / self.ewma_tau_s)
        self._rate_ewma[flow_id] = rate + size_bytes / self.ewma_tau_s
        self._rate_at[flow_id] = now

    def _rate_now(self, flow_id: int, now: float) -> float:
        rate = self._rate_ewma.get(flow_id, 0.0)
        last = self._rate_at.get(flow_id)
        if rate and last is not None and now > last:
            rate *= math.exp(-(now - last) / self.ewma_tau_s)
        return rate

    def is_sparse(self, flow_id: int, now: float) -> bool:
        """Whether ``flow_id`` currently gets the sparse-flow shield."""
        total = sum(self._rate_now(fid, now) for fid in self._rate_ewma)
        if total <= 0.0:
            return True
        return self._rate_now(flow_id, now) <= self.sparse_share * total

    # -- admission -----------------------------------------------------
    def _evict_for(self, needed: int, now: float) -> bool:
        """Evict non-sparse backlog tails until ``needed`` bytes fit."""
        while self._bytes + needed > self.capacity_bytes:
            victim_fid = None
            victim_bytes = -1
            for fid, nbytes in self._lane_bytes.items():
                lane = self._lanes[fid]
                if not lane or nbytes <= victim_bytes or self.is_sparse(fid, now):
                    continue
                if fid == self._selected and len(lane) == 1:
                    continue        # that packet is on the wire right now
                victim_fid, victim_bytes = fid, nbytes
            if victim_fid is None:
                return False
            _, packet = self._lanes[victim_fid].pop()
            self._lane_bytes[victim_fid] -= packet.size_bytes
            self._bytes -= packet.size_bytes
            self.evictions += 1
            if self.drop_hook is not None:
                self.drop_hook(packet)
        return True

    def enqueue(self, packet: Packet, now: float) -> bool:
        fid = packet.flow_id
        self._bump_rate(fid, packet.size_bytes, now)
        if self._bytes + packet.size_bytes > self.capacity_bytes:
            if not (self.is_sparse(fid, now)
                    and self._evict_for(packet.size_bytes, now)):
                return False
        lane = self._lanes.get(fid)
        if lane is None:
            lane = self._lanes[fid] = deque()
            self._lane_bytes[fid] = 0
        lane.append((self._seq, packet))
        self._seq += 1
        self._lane_bytes[fid] += packet.size_bytes
        self._bytes += packet.size_bytes
        return True

    # -- scheduling ----------------------------------------------------
    def select_head(self, now: float) -> Optional[Packet]:
        best_fid = None
        best_key: Optional[tuple[int, int]] = None
        for fid, lane in self._lanes.items():
            if not lane:
                continue
            seq = lane[0][0]
            key = (0 if self.is_sparse(fid, now) else 1, seq)
            if best_key is None or key < best_key:
                best_fid, best_key = fid, key
        self._selected = best_fid
        if best_fid is None:
            return None
        return self._lanes[best_fid][0][1]

    def pop_head(self) -> Packet:
        if self._selected is None or not self._lanes.get(self._selected):
            raise RuntimeError("pop_head without a selected head")
        _, packet = self._lanes[self._selected].popleft()
        self._lane_bytes[self._selected] -= packet.size_bytes
        self._bytes -= packet.size_bytes
        self._selected = None
        return packet

    def packets(self) -> Iterator[Packet]:
        for lane in self._lanes.values():
            for _, packet in lane:
                yield packet

    def queued_bytes_by_flow(self) -> Dict[int, int]:
        return {fid: b for fid, b in self._lane_bytes.items() if b}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
DEFAULT_DISCIPLINE = "droptail"

DISCIPLINES: dict[str, type] = {
    "droptail": DropTailQueue,
    "codel": CoDelDiscipline,
    "pie": PieDiscipline,
    "confucius": ConfuciusDiscipline,
}


def list_disciplines() -> list[str]:
    return sorted(DISCIPLINES)


def make_discipline(name: str,
                    capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
                    rng=None, **params):
    """Build a discipline by registry name.

    ``rng`` is forwarded to disciplines that can use one (PIE); the
    others ignore it, so callers can always pass their seeded stream.
    """
    if name not in DISCIPLINES:
        raise KeyError(f"unknown queue discipline {name!r}; choose from "
                       f"{list_disciplines()}")
    cls = DISCIPLINES[name]
    if cls is PieDiscipline:
        return cls(capacity_bytes, rng=rng, **params)
    return cls(capacity_bytes, **params)


def queued_bytes_by_flow(discipline) -> Dict[int, int]:
    """Per-flow bytes currently queued in ``discipline`` (pure read).

    Uses the discipline's own ledger when it keeps one (Confucius);
    otherwise scans the queued packets. Telemetry gauges sample this at
    tick rate, so the scan is off any hot path.
    """
    ledger = getattr(discipline, "queued_bytes_by_flow", None)
    if ledger is not None:
        return dict(ledger())
    shares: Dict[int, int] = {}
    for packet in discipline.packets():
        shares[packet.flow_id] = shares.get(packet.flow_id, 0) + packet.size_bytes
    return shares
