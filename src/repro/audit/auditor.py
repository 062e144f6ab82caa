"""Event-hook invariant auditor for the RTC stack.

The auditor is a pure observer: it wraps the hand-off seams between
components (pacer exit, link offer/deliver/drop, receiver arrival) to
keep *independent* packet/byte counters, chains onto the event loop's
``on_event`` hook, and after every executed event cross-checks the
stack's own state against those counters and against the control laws of
PAPER §4.1 Algorithm 1. Nothing it reads is allowed to perturb the run:
in particular it never refills the token bucket (advancing the lazy-refill
state could shift float rounding) — it reads the raw token field.

Three invariant families (see DESIGN §14 for the full catalogue):

* **Conservation** — packets/bytes offered to a stage equal delivered +
  dropped + still queued, at pacer and bottleneck link, plus a
  non-negative in-flight count between the stages.
* **State** — token count within ``[0, bucket_bytes]``, non-negative
  queues, monotone event time, RTT at or above the propagation floor,
  ACE-N bucket within ``[min, max]``, bucket/pacer synchronization.
* **Control-law conformance** — every ACE-N log row checked against
  Algorithm 1 from its own ``before`` (loss-halve halves, the queue
  decrease removes exactly the excess, increases honour the application
  limit, fast recovery needs standing-RTT evidence and stays under the
  regime bound), and the rows chain onto each other and the bucket.

Violations either raise :class:`InvariantViolation` immediately
(``strict=True``, the ``REPRO_AUDIT=1`` mode — the traceback lands
inside the offending event) or are collected for an end-of-run report
(``strict=False``, the ``--check`` mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer

if TYPE_CHECKING:
    from repro.core.ace_n import AceNController
    from repro.live.clock import Clock
    from repro.net.link import Link
    from repro.net.path import NetworkPath
    from repro.transport.cc.base import CongestionController
    from repro.transport.pacer.base import Pacer

#: Absolute slack (bytes) for float comparisons on byte quantities.
EPS_BYTES = 1e-6
#: Relative slack for rate/size comparisons.
REL_EPS = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EPS_BYTES + REL_EPS * max(abs(a), abs(b))


@dataclass
class Violation:
    """One invariant breach, with enough context to chase it."""

    time: float
    invariant: str
    detail: str
    #: flight-recorder dump (last N telemetry records before the breach)
    #: when the session ran with telemetry enabled; None otherwise.
    flight_dump: Optional[str] = None

    def __str__(self) -> str:
        return f"[t={self.time:.6f}] {self.invariant}: {self.detail}"


class InvariantViolation(AssertionError):
    """Raised in strict mode at the event where the invariant broke."""

    def __init__(self, violation: Violation) -> None:
        message = str(violation)
        if violation.flight_dump:
            message += ("\n--- flight recorder (last records before the "
                        "violation) ---\n" + violation.flight_dump)
        super().__init__(message)
        self.violation = violation


@dataclass
class _SeamCounters:
    """Independent packet/byte counters kept by the seam wrappers."""

    left_pacer_packets: int = 0
    left_pacer_bytes: int = 0
    #: pacer-origin packets lost before reaching the link (random or
    #: contention loss on the path).
    prelink_lost_packets: int = 0
    #: all flows offered to / leaving the bottleneck link.
    link_in_packets: int = 0
    link_in_bytes: int = 0
    link_out_packets: int = 0
    link_out_bytes: int = 0
    link_drop_packets: int = 0
    link_drop_bytes: int = 0
    #: media-flow (flow_id == 0) subset, for the in-flight balance.
    link_in_media: int = 0
    link_out_media: int = 0
    arrived_media: int = 0


class SessionAuditor:
    """Checks the invariant catalogue after every event.

    :meth:`attach` chains onto the event loop's ``on_event`` hook — the
    clock itself in the simulator, ``clock.loop`` on a wall clock. The
    checks that are only sound at event granularity (decision
    conformance against mutable controller scratch state) run under
    ``fine_grained``, which a wall clock turns off.
    """

    def __init__(self, clock: "Clock", pacer: "Pacer", *,
                 link: Optional["Link"] = None,
                 path: Optional["NetworkPath"] = None,
                 ace_n: Optional["AceNController"] = None,
                 cc: Optional["CongestionController"] = None,
                 rtt_floor: Optional[float] = None,
                 strict: bool = True,
                 max_violations: int = 50,
                 telemetry=None) -> None:
        self.clock = clock
        #: optional :class:`repro.obs.Telemetry`; when set, each violation
        #: captures a flight-recorder dump of the records leading up to it.
        self.telemetry = telemetry
        self.pacer = pacer
        self.link = link
        self.path = path
        self.ace_n = ace_n
        self.cc = cc
        self.rtt_floor = rtt_floor
        self.strict = strict
        self.fine_grained = True
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.events_checked = 0
        self._counters = _SeamCounters()
        self._attached = False
        self._saturated = False
        self._last_now = -math.inf
        #: index of the first ACE-N log row not yet checked.
        self._decision_cursor = 0
        #: auditor's own view of the "bucket last seen with an empty
        #: buffer" ratchet; tracked permissively (>= the controller's)
        #: so stale-regime fast-recovery jumps are flagged without
        #: false-positives from within-event ordering.
        self._shadow_ratchet: Optional[float] = None
        # Saved originals for detach().
        self._orig_pacer_send_fn: Optional[Callable] = None
        self._orig_link_send: Optional[Callable] = None
        self._orig_on_deliver: Optional[Callable] = None
        self._orig_on_drop: Optional[Callable] = None
        self._orig_on_arrival: Optional[Callable] = None
        self._prev_hook: Optional[Callable] = None
        self._hooked_loop = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self) -> "SessionAuditor":
        """Per-event auditing: chain onto the loop's ``on_event`` hook.

        Must run *before* the loop's next ``run()`` — the run loop
        snapshots the hook at entry. On a wall clock the loop is
        ``clock.loop``, and socket reads change controller state between
        its events, so the timing-sensitive conformance checks are off;
        violations are always collected there (raising inside a wake
        only reaches the asyncio exception handler), so call
        :meth:`finalize` at session end to surface them.
        """
        if self._attached:
            raise RuntimeError("auditor already attached")
        loop = getattr(self.clock, "loop", self.clock)
        if loop is not self.clock:
            self.fine_grained = False
            self.strict = False
        self._wrap_seams()
        self._prev_hook = loop.on_event
        self._hooked_loop = loop
        loop.on_event = self._on_event
        self._attached = True
        if self.ace_n is not None:
            self._decision_cursor = len(self.ace_n.log)
        return self

    def detach(self) -> None:
        """Restore every wrapped seam and hook."""
        if not self._attached:
            return
        if self._hooked_loop is not None:
            self._hooked_loop.on_event = self._prev_hook
            self._hooked_loop = None
        if self._orig_pacer_send_fn is not None:
            self.pacer.send_fn = self._orig_pacer_send_fn
        link = self.link
        if link is not None:
            if self._orig_link_send is not None:
                # The wrapper shadows the bound method in the instance
                # dict; deleting it re-exposes the class method.
                del link.send
            link.on_deliver = self._orig_on_deliver
            link.on_drop = self._orig_on_drop
        if self.path is not None:
            self.path.on_arrival = self._orig_on_arrival
        self._attached = False

    def _wrap_seams(self) -> None:
        counters = self._counters
        orig_send_fn = self.pacer.send_fn
        self._orig_pacer_send_fn = orig_send_fn

        def pacer_exit(packet, _orig=orig_send_fn, _c=counters):
            _c.left_pacer_packets += 1
            _c.left_pacer_bytes += packet.size_bytes
            _orig(packet)
            # Path-level (pre-link) loss is synchronous and never stamps
            # t_enter_queue; link tail-drop happens in a later event.
            if packet.dropped and packet.t_enter_queue is None:
                _c.prelink_lost_packets += 1

        self.pacer.send_fn = pacer_exit

        link = self.link
        if link is not None:
            # The seams below count per packet at the departure instant,
            # which only the evented link has (like the event hook pins
            # the reference engine, this pins the link's serve events).
            link.depart_by_event()
            orig_link_send = link.send
            self._orig_link_send = orig_link_send

            def link_offer(packet, _orig=orig_link_send, _c=counters):
                _c.link_in_packets += 1
                _c.link_in_bytes += packet.size_bytes
                if packet.flow_id == 0:
                    _c.link_in_media += 1
                return _orig(packet)

            link.send = link_offer  # instance attr shadows the method

            self._orig_on_deliver = link.on_deliver
            self._orig_on_drop = link.on_drop

            def link_deliver(packet, _orig=self._orig_on_deliver, _c=counters):
                _c.link_out_packets += 1
                _c.link_out_bytes += packet.size_bytes
                if packet.flow_id == 0:
                    _c.link_out_media += 1
                if _orig is not None:
                    _orig(packet)

            def link_drop(packet, _orig=self._orig_on_drop, _c=counters):
                _c.link_drop_packets += 1
                _c.link_drop_bytes += packet.size_bytes
                if _orig is not None:
                    _orig(packet)

            link.on_deliver = link_deliver
            link.on_drop = link_drop

        path = self.path
        if path is not None:
            self._orig_on_arrival = path.on_arrival

            def arrival(packet, _orig=self._orig_on_arrival, _c=counters):
                if packet.flow_id == 0:
                    _c.arrived_media += 1
                if _orig is not None:
                    _orig(packet)

            path.on_arrival = arrival

    # ------------------------------------------------------------------
    # hook plumbing
    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        if self._prev_hook is not None:
            self._prev_hook(event)
        if not self._saturated:
            self.check_now()

    def _fail(self, invariant: str, detail: str) -> None:
        if self._saturated:
            return
        violation = Violation(float(self.clock.now), invariant, detail)
        if self.telemetry is not None:
            violation.flight_dump = self.telemetry.flight_dump()
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolation(violation)
        if len(self.violations) >= self.max_violations:
            self._saturated = True

    # ------------------------------------------------------------------
    # the catalogue
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Run every applicable invariant check against current state."""
        self.events_checked += 1
        now = float(self.clock.now)
        if now < self._last_now:
            self._fail("time.monotone",
                       f"clock moved backwards: {self._last_now:.9f} -> {now:.9f}")
        self._last_now = now
        self._check_pacer()
        if self.link is not None:
            self._check_link()
            self._check_inflight()
        if isinstance(self.pacer, TokenBucketPacer):
            self._check_token_bucket()
        if self.cc is not None:
            self._check_cc()
        if self.ace_n is not None:
            self._check_ace()

    def _check_pacer(self) -> None:
        pacer = self.pacer
        stats = pacer.stats
        c = self._counters
        queued_p = pacer.queued_packets
        queued_b = pacer.queued_bytes
        if queued_p < 0 or queued_b < 0:
            self._fail("pacer.queue.nonneg",
                       f"negative pacer queue: {queued_p} pkts / {queued_b} B")
        if stats.sent_packets != c.left_pacer_packets:
            self._fail("pacer.conservation",
                       f"pacer stats claim {stats.sent_packets} sent but "
                       f"{c.left_pacer_packets} packets crossed send_fn")
        if stats.enqueued_packets - c.left_pacer_packets != queued_p:
            self._fail("pacer.conservation",
                       f"enqueued {stats.enqueued_packets} - sent "
                       f"{c.left_pacer_packets} != queued {queued_p} packets")
        if stats.enqueued_bytes - c.left_pacer_bytes != queued_b:
            self._fail("pacer.conservation",
                       f"enqueued {stats.enqueued_bytes} - sent "
                       f"{c.left_pacer_bytes} != queued {queued_b} bytes")

    def _check_link(self) -> None:
        link = self.link
        c = self._counters
        queued_p = link.queued_packets
        queued_b = link.queued_bytes
        capacity = link.queue.capacity_bytes
        if not 0 <= queued_b <= capacity:
            self._fail("link.queue.bounds",
                       f"link queue {queued_b} B outside [0, {capacity}]")
        if c.link_in_packets - c.link_out_packets - c.link_drop_packets != queued_p:
            self._fail("link.conservation",
                       f"offered {c.link_in_packets} - delivered "
                       f"{c.link_out_packets} - dropped {c.link_drop_packets}"
                       f" != queued {queued_p} packets")
        if c.link_in_bytes - c.link_out_bytes - c.link_drop_bytes != queued_b:
            self._fail("link.conservation",
                       f"offered {c.link_in_bytes} - delivered "
                       f"{c.link_out_bytes} - dropped {c.link_drop_bytes}"
                       f" != queued {queued_b} bytes")
        stats = link.stats
        if stats.enqueued_packets != c.link_in_packets - c.link_drop_packets:
            self._fail("link.conservation",
                       f"LinkStats.enqueued {stats.enqueued_packets} != "
                       f"offered-dropped {c.link_in_packets - c.link_drop_packets}")
        if stats.delivered_packets != c.link_out_packets:
            self._fail("link.conservation",
                       f"LinkStats.delivered {stats.delivered_packets} != "
                       f"observed {c.link_out_packets}")
        if stats.dropped_packets != c.link_drop_packets:
            self._fail("link.conservation",
                       f"LinkStats.dropped {stats.dropped_packets} != "
                       f"observed {c.link_drop_packets}")

    def _check_inflight(self) -> None:
        c = self._counters
        to_link = (c.left_pacer_packets - c.prelink_lost_packets
                   - c.link_in_media)
        if to_link < 0:
            self._fail("path.inflight.nonneg",
                       f"{c.link_in_media} media packets reached the link but"
                       f" only {c.left_pacer_packets} left the pacer"
                       f" ({c.prelink_lost_packets} lost pre-link)")
        to_receiver = c.link_out_media - c.arrived_media
        if to_receiver < 0:
            self._fail("path.inflight.nonneg",
                       f"{c.arrived_media} media arrivals exceed "
                       f"{c.link_out_media} link deliveries")

    def _check_token_bucket(self) -> None:
        pacer = self.pacer
        bucket = pacer.bucket
        # Read the raw token field: every legitimate mutation (refill,
        # consume, resize) leaves it in [0, bucket_bytes], and a lazy
        # refill only moves it toward the cap — so the raw value carries
        # the invariant. Never refill the bucket here (take/consume at
        # now): the changed float rounding breaks bit-identical
        # fixed-seed runs.
        tokens = bucket._tokens
        if tokens < -EPS_BYTES or tokens > bucket._bucket_bytes + EPS_BYTES:
            self._fail("bucket.tokens.range",
                       f"token count {tokens:.3f} outside "
                       f"[0, {bucket._bucket_bytes:.3f}]")
        expected = pacer.pacing_rate_bps * pacer.rate_factor
        rate = bucket.rate_bps
        if rate <= 0 or not math.isfinite(rate):
            self._fail("pacer.token-rate", f"token rate {rate} not positive")
        elif not _close(rate, expected):
            self._fail("pacer.token-rate",
                       f"token rate {rate:.1f} != pacing_rate x factor "
                       f"{expected:.1f}")

    def _check_cc(self) -> None:
        bwe = self.cc.bwe_bps
        if not math.isfinite(bwe) or bwe <= 0:
            self._fail("cc.bwe.finite", f"bandwidth estimate {bwe} bps")

    # -- ACE-N ----------------------------------------------------------
    def _check_ace(self) -> None:
        ace = self.ace_n
        cfg = ace.config
        bucket = ace.bucket_bytes
        if (bucket < cfg.min_bucket_bytes - EPS_BYTES
                or bucket > cfg.max_bucket_bytes + EPS_BYTES):
            self._fail("ace.bucket.range",
                       f"bucket {bucket:.1f} outside "
                       f"[{cfg.min_bucket_bytes}, {cfg.max_bucket_bytes}]")
        if self.rtt_floor is not None:
            rtt_min = ace.queue_estimator.rtt_min
            if rtt_min is not None and rtt_min < self.rtt_floor - 1e-9:
                self._fail("rtt.floor",
                           f"RTT_min {rtt_min:.6f} below propagation floor "
                           f"{self.rtt_floor:.6f}")
        self._check_ace_decisions()
        if self.fine_grained:
            est = ace.queue_estimator
            if est.rtt_standing() is not None and est.queue_is_empty():
                current = ace.bucket_bytes
                if (self._shadow_ratchet is None
                        or current > self._shadow_ratchet):
                    self._shadow_ratchet = current
        if isinstance(self.pacer, TokenBucketPacer):
            expected = ace.bucket_bytes
            if not _close(self.pacer.bucket_bytes, expected):
                self._fail("ace.pacer.sync",
                           f"pacer bucket {self.pacer.bucket_bytes:.1f} != "
                           f"controller bucket {expected:.1f}")

    def _check_ace_decisions(self) -> None:
        """Check new ACE-N log rows against Algorithm 1 and their chain."""
        ace = self.ace_n
        cfg = ace.config
        log = ace.log

        def clamp(value: float) -> float:
            return min(max(value, cfg.min_bucket_bytes), cfg.max_bucket_bytes)

        def chain(i: int) -> float:
            return log.after[i - 1] if i else cfg.initial_bucket_bytes

        while self._decision_cursor < len(log):
            i = self._decision_cursor
            self._decision_cursor += 1
            branch, prev, new = log.branch[i], log.before[i], log.after[i]
            if prev != chain(i):
                self._fail("ace.decision.trajectory",
                           f"{branch} row starts at {prev:.1f}, the previous "
                           f"ended at {chain(i):.1f} (mutated without a row)")
            if branch == "loss-halve":
                want = clamp(prev / 2.0)
                if not _close(new, want):
                    self._fail("ace.law.loss-halve",
                               f"halve from {prev:.1f} produced {new:.1f}, "
                               f"expected {want:.1f}")
                if self._shadow_ratchet is not None:
                    decayed = cfg.empty_ratchet_decay * self._shadow_ratchet
                    self._shadow_ratchet = max(new, decayed)
            elif branch == "queue-threshold":
                est_queue = log.input[i]
                if est_queue <= cfg.threshold_bytes - EPS_BYTES:
                    self._fail("ace.law.queue-threshold",
                               f"decrease at est_queue {est_queue:.1f}"
                               f" <= threshold {cfg.threshold_bytes:.1f}")
                want = clamp(prev - (est_queue - cfg.threshold_bytes))
                if not _close(new, want):
                    self._fail("ace.law.queue-threshold",
                               f"decrease from {prev:.1f} produced {new:.1f},"
                               f" expected {want:.1f}")
            elif branch == "additive-increase":
                if not prev < new <= prev + cfg.additive_step_bytes + EPS_BYTES:
                    self._fail("ace.law.additive-increase",
                               f"step from {prev:.1f} to {new:.1f} exceeds "
                               f"additive step {cfg.additive_step_bytes:.1f}")
                self._check_app_limit(prev, new)
            elif branch == "fast-recovery":
                if new <= prev + EPS_BYTES:
                    self._fail("ace.law.fast-recovery",
                               f"recovery did not grow the bucket "
                               f"({prev:.1f} -> {new:.1f})")
                if self.fine_grained:
                    if ace.queue_estimator.rtt_standing() is None:
                        self._fail("ace.law.fast-recovery",
                                   "fired with no standing-RTT evidence "
                                   "(empty recent-RTT window)")
                    candidates = []
                    if self._shadow_ratchet is not None:
                        candidates.append(self._shadow_ratchet)
                    if ace._queue_before_loss is not None:
                        candidates.append(cfg.alpha * ace._queue_before_loss)
                    bound = (max(prev, clamp(min(candidates)))
                             if candidates else prev)
                    if new > bound + EPS_BYTES + REL_EPS * bound:
                        self._fail("ace.law.fast-recovery",
                                   f"jumped to {new:.1f}, past the regime "
                                   f"bound {bound:.1f} (stale empty-buffer "
                                   "ratchet?)")
                self._check_app_limit(prev, new)
            elif branch == "app-limit":
                if new != prev:
                    self._fail("ace.law.app-limit",
                               f"app-limit record changed the bucket "
                               f"({prev:.1f} -> {new:.1f})")
        if ace.bucket_bytes != chain(len(log)):
            self._fail("ace.decision.trajectory",
                       f"bucket is {ace.bucket_bytes:.1f} but the log ends "
                       f"at {chain(len(log)):.1f} (mutated without a row)")

    def _check_app_limit(self, prev: float, new: float) -> None:
        if not self.fine_grained:
            return
        ace = self.ace_n
        last_frame = ace._last_frame_bytes
        if last_frame is None:
            return
        ceiling = max(prev, last_frame, ace.config.min_bucket_bytes)
        if new > ceiling + EPS_BYTES + REL_EPS * ceiling:
            self._fail("ace.law.app-limit",
                       f"increase to {new:.1f} exceeds the application limit"
                       f" (last frame {last_frame:.1f})")

    # ------------------------------------------------------------------
    # wrap-up
    # ------------------------------------------------------------------
    def finalize(self, expect_drained: bool = False) -> List[Violation]:
        """End-of-run check; returns (and in strict mode raises on) violations.

        With ``expect_drained=True`` (sim sessions after the drain
        window) additionally requires the pacer and link queues to be
        empty so the conservation ledgers close exactly.
        """
        if self._attached:
            if not self._saturated:
                self.check_now()
            if expect_drained:
                if self.pacer.queued_packets:
                    self._fail_collect(
                        "final.drained",
                        f"{self.pacer.queued_packets} packets still in the "
                        "pacer after the drain window")
                if self.link is not None and self.link.queued_packets:
                    self._fail_collect(
                        "final.drained",
                        f"{self.link.queued_packets} packets still queued at "
                        "the link after the drain window")
            self.detach()
        if self.strict and self.violations:
            raise InvariantViolation(self.violations[0])
        return self.violations

    def _fail_collect(self, invariant: str, detail: str) -> None:
        # Like _fail but never raises mid-finalize; strictness is applied
        # once at the end of finalize().
        self.violations.append(
            Violation(float(self.clock.now), invariant, detail))

    def report(self) -> str:
        """Human-readable summary for the CLI."""
        if not self.violations:
            return (f"audit clean: {self.events_checked} events checked, "
                    "0 violations")
        lines = [f"audit FAILED: {len(self.violations)} violation(s) over "
                 f"{self.events_checked} events checked"]
        lines += [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        first_dump = next((v.flight_dump for v in self.violations
                           if v.flight_dump), None)
        if first_dump:
            lines.append("flight recorder (last records before the first "
                         "violation):")
            lines += [f"  {line}" for line in first_dump.splitlines()]
        return "\n".join(lines)


def attach_audit(session, strict: bool = True,
                 max_violations: int = 50) -> SessionAuditor:
    """Attach an auditor to a not-yet-run single-flow session, sim or
    live (:meth:`SessionAuditor.attach`). Call ``finalize()`` after the
    run for the end-of-session checks.
    """
    sender = session.sender
    path = session.path
    auditor = SessionAuditor(
        sender.pacer.loop, sender.pacer, link=path.link, path=path,
        ace_n=sender.ace_n, cc=sender.cc,
        # Live: the path's delay each way keeps measured RTTs at or above
        # base_rtt on a wall clock too (real time only ever adds delay).
        rtt_floor=session.config.base_rtt,
        strict=strict, max_violations=max_violations,
        telemetry=session.telemetry)
    return auditor.attach()
