"""Attach the metric registry to a running sender/transport stack.

:func:`instrument_stack` registers the canonical gauges and counters —
token level, bucket size, estimated queue, BWE, pacer backlog, link
queue, loss events — against live component objects. Every sample
function is a *pure read*, and the components own the reads that need
care: the token level is ``TokenBucket.level_at`` (never
``tokens(now)``, whose lazy refill would shift float rounding and break
bit-identical fixed-seed runs — the same rule the invariant auditor
follows), the queue estimate ``QueueEstimator.estimate``
(``queue_bytes(now)`` appends it to the history).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer

if TYPE_CHECKING:
    from repro.core.ace_n import AceNController
    from repro.net.link import Link
    from repro.obs.recorder import Telemetry
    from repro.transport.cc.base import CongestionController
    from repro.transport.pacer.base import Pacer


def _occupancy(telemetry: "Telemetry", component, attr: str,
               twin: str) -> float:
    """Queue occupancy that only the reference loop keeps on the component.

    The batch engine holds pacer and link backlogs in its pipeline's
    arrays; when one is installed (``telemetry.pipeline``) it answers
    with the ``twin`` property instead, so the gauge reads the same
    quantity on either engine.
    """
    pipeline = telemetry.pipeline
    if pipeline is not None:
        return getattr(pipeline, twin)
    return getattr(component, attr)


def instrument_stack(telemetry: "Telemetry", *,
                     pacer: Optional["Pacer"] = None,
                     cc: Optional["CongestionController"] = None,
                     ace_n: Optional["AceNController"] = None,
                     link: Optional["Link"] = None) -> "Telemetry":
    """Register sampled gauges / counters for whatever components exist.

    Safe to call with partial stacks (live mode has no :class:`Link`;
    non-ACE baselines have no controller). Gauges are polled by the
    telemetry tick; the loss counter chains the link's ``on_drop``
    callback (observing only — the original callback still fires).
    """
    registry = telemetry.registry
    if pacer is not None:
        registry.gauge("pacer.backlog_bytes",
                       sample_fn=lambda p=pacer: p.queued_bytes,
                       help="Bytes queued in the pacer")
        registry.gauge("pacer.backlog_packets",
                       sample_fn=lambda p=pacer, t=telemetry: _occupancy(
                           t, p, "queued_packets", "pacer_queued_packets"),
                       help="Packets queued in the pacer")
        registry.gauge("pacer.pacing_rate_bps",
                       sample_fn=lambda p=pacer: p.pacing_rate_bps,
                       help="Current pacing rate in bits per second")
        # Cumulative wire bytes as a sampled gauge: the time-series
        # layer derives the paper's sending-rate curve from deltas of
        # this column (decimation-safe, unlike per-tick rates).
        registry.gauge("pacer.sent_bytes",
                       sample_fn=lambda p=pacer: p.stats.sent_bytes,
                       help="Cumulative bytes the pacer put on the wire")
        if isinstance(pacer, TokenBucketPacer):
            registry.gauge(
                "bucket.token_level_bytes",
                sample_fn=lambda p=pacer, t=telemetry: p.bucket.level_at(
                    t.now),
                help="Token-bucket fill level in bytes")
            registry.gauge("bucket.size_bytes",
                           sample_fn=lambda p=pacer: p.bucket_bytes,
                           help="Token-bucket capacity in bytes")
            registry.gauge("bucket.token_rate_bps",
                           sample_fn=lambda p=pacer: p.bucket.rate_bps,
                           help="Token refill rate in bits per second")
    if cc is not None:
        registry.gauge("cc.bwe_bps", sample_fn=lambda c=cc: c.bwe_bps,
                       help="Bandwidth estimate in bits per second")
    if ace_n is not None:
        def est_queue() -> float:
            return ace_n.queue_estimator.estimate(telemetry.now).queue_bytes

        registry.gauge("ace.bucket_bytes",
                       sample_fn=lambda a=ace_n: a.bucket_bytes,
                       help="ACE-N controller bucket size in bytes")
        registry.gauge("ace.est_queue_bytes",
                       sample_fn=est_queue,
                       help="ACE-N estimated network queue in bytes")
        registry.gauge("ace.decisions",
                       sample_fn=lambda a=ace_n: len(a.decisions),
                       help="ACE-N control decisions recorded so far")
        # Burstiness-control view (the paper's §4 quantities): how much
        # burst allowance the bucket grants beyond what the network is
        # currently absorbing, and how far the estimated queue sits
        # above the decrease threshold T — positive excess is exactly
        # what the queue-threshold rule shrinks the bucket by.
        registry.gauge(
            "ace.bucket_minus_queue_bytes",
            sample_fn=lambda a=ace_n: a.bucket_bytes - est_queue(),
            help="Token-bucket size minus estimated in-network queue")
        registry.gauge(
            "ace.threshold_excess_bytes",
            sample_fn=lambda a=ace_n: max(
                0.0, est_queue() - a.config.threshold_bytes),
            help="Estimated queue bytes above the ACE threshold T")
    if link is not None:
        registry.gauge("link.queue_bytes",
                       sample_fn=lambda l=link, t=telemetry: _occupancy(
                           t, l, "queued_bytes", "link_queued_bytes"),
                       help="Bytes queued in the bottleneck link")
        # rate_at() is a pure function of time (monotonic cursor with a
        # bisect fallback), so sampling it never perturbs the trace.
        registry.gauge("link.capacity_bps",
                       sample_fn=lambda l=link: l.rate_now,
                       help="Bottleneck link capacity in bits per second")
        drops = registry.counter("link.drop_packets",
                                 help="Packets dropped at the link queue")
        orig_on_drop = link.on_drop

        def on_drop(packet, _orig=orig_on_drop, _c=drops):
            _c.inc()
            if _orig is not None:
                _orig(packet)

        link.on_drop = on_drop
    return telemetry


def instrument_arena(telemetry: "Telemetry", arena) -> "Telemetry":
    """Register arena-level gauges: per-router and per-flow queue state.

    ``arena`` is an :class:`~repro.arena.session.ArenaSession`. Every
    sample function is a pure read (occupancy scans reuse
    :func:`repro.net.aqm.queued_bytes_by_flow`, which never mutates
    discipline state) and runs only at the telemetry tick rate, so
    instrumentation stays off the per-packet hot path.
    """
    from repro.net.aqm import queued_bytes_by_flow

    registry = telemetry.registry
    links = arena.path.links
    for i, link in enumerate(links):
        # The per-flow scans below read the queued packets, which only
        # an evented link keeps in its discipline (results are
        # bit-identical either way, tests/test_link_closed_form.py).
        link.depart_by_event()
        registry.gauge(f"arena.router{i}.queue_bytes",
                       sample_fn=lambda l=link: l.queued_bytes,
                       help=f"Bytes queued at arena router {i}")

    def _flow_queued(fid: int) -> int:
        return sum(queued_bytes_by_flow(link.queue).get(fid, 0)
                   for link in links)

    def _flow_share(fid: int) -> float:
        total = sum(link.queued_bytes for link in links)
        return _flow_queued(fid) / total if total else 0.0

    for fid in sorted(arena.senders):
        registry.gauge(f"arena.flow{fid}.queue_bytes",
                       sample_fn=lambda f=fid: _flow_queued(f),
                       help=f"Bytes flow {fid} holds across arena routers")
        registry.gauge(f"arena.flow{fid}.queue_share",
                       sample_fn=lambda f=fid: _flow_share(f),
                       help=f"Flow {fid}'s fraction of queued bytes")
        registry.gauge(
            f"arena.flow{fid}.sent_bytes",
            sample_fn=lambda f=fid, a=arena: a.senders[f].pacer.stats.sent_bytes,
            help=f"Cumulative wire bytes sent by flow {fid}")
    return telemetry
