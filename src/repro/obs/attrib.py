"""Causal latency attribution: why did this frame sit in the pacer?

The paper's diagnostic move is *decomposition*: Fig. 2 splits end-to-end
frame latency into components and shows pacing latency dominating; the
per-decision control law (Algorithm 1) then explains the pacing
behaviour. This module joins the two: every frame's pacer-residence
interval (``pacer_enqueue`` -> last fresh packet on the wire) is
partitioned across the ACE-N decisions that were *active* while the
frame waited, yielding a per-frame "blame breakdown" whose parts sum to
the frame's pacer span exactly.

Blame categories are the branches of Algorithm 1 (see DESIGN §14):

* ``loss-halve``       — bucket halved after packet loss,
* ``queue-threshold``  — bucket shrunk because est. queue exceeded T,
* ``app-limit``        — increase clamped at the previous frame's size,
* ``fast-recovery``    — post-loss jump once the queue drained,
* ``additive-increase``— steady one-packet probing,
* ``startup``          — before the first decision (initial bucket),
* ``uncontrolled``     — no ACE-N controller on this baseline.

Attribution is **pure post-processing**: it reads ACE-N's decision
log (recorded deterministically whether or not telemetry is on), the
frames' pacer stamps, and the BWE history. Nothing here runs
during the session, so fixed-seed results are bit-identical with
attribution enabled — there is no way for it to perturb the run.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.decisions import DecisionLog, step_function

#: category used for the interval before ACE-N's first decision.
STARTUP = "startup"
#: category used when the session has no ACE-N controller at all.
UNCONTROLLED = "uncontrolled"

#: canonical rendering order: decrease branches (the latency culprits)
#: first, then the increase branches, then the defaults.
BLAME_CATEGORIES = (
    "loss-halve",
    "queue-threshold",
    "app-limit",
    "fast-recovery",
    "additive-increase",
    STARTUP,
    UNCONTROLLED,
)


@dataclass(slots=True)
class BlameSegment:
    """One slice of a frame's pacer residence under a single decision."""

    start: float
    end: float
    reason: str
    #: controller state during the slice (None when uncontrolled).
    bucket_bytes: Optional[float] = None
    est_queue_bytes: Optional[float] = None
    #: BWE in force at the slice start (None when no history).
    bwe_bps: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class FrameBlame:
    """A frame's pacer span partitioned across active ACE-N decisions."""

    frame_id: int
    enqueue: float
    exit: float
    segments: list[BlameSegment] = field(default_factory=list)

    @property
    def pacer_span(self) -> float:
        return self.exit - self.enqueue

    def breakdown(self) -> dict[str, float]:
        """Seconds of pacer residence per blame category.

        The segments partition ``[enqueue, exit]``, so the values sum to
        :attr:`pacer_span` to float tolerance by construction.
        """
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.reason] = out.get(seg.reason, 0.0) + seg.duration
        return out

    def dominant(self) -> str:
        """The category that owns the largest share of the span."""
        if not self.segments:
            return UNCONTROLLED
        best = max(self.breakdown().items(), key=lambda kv: (kv[1], kv[0]))
        return best[0]


class SessionAttribution:
    """All frame blames of one session, plus session-level rollups."""

    def __init__(self, blames: Sequence[FrameBlame]) -> None:
        self.blames = list(blames)
        self._by_id = {b.frame_id: b for b in self.blames}

    def get(self, frame_id: int) -> Optional[FrameBlame]:
        return self._by_id.get(frame_id)

    def worst(self, k: int = 5) -> list[FrameBlame]:
        """The K frames with the longest pacer residence, worst first."""
        return sorted(self.blames, key=lambda b: -b.pacer_span)[:k]

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per-category totals across the session.

        Returns ``{category: {"seconds": total pacer-residence seconds,
        "frames": frames where the category is dominant}}`` for every
        category that appears.
        """
        seconds: dict[str, float] = {}
        frames: dict[str, int] = {}
        for blame in self.blames:
            for reason, dur in blame.breakdown().items():
                seconds[reason] = seconds.get(reason, 0.0) + dur
            dom = blame.dominant()
            frames[dom] = frames.get(dom, 0) + 1
        return {reason: {"seconds": seconds.get(reason, 0.0),
                         "frames": float(frames.get(reason, 0))}
                for reason in set(seconds) | set(frames)}

    def total_pacer_seconds(self) -> float:
        return sum(b.pacer_span for b in self.blames)

    def __len__(self) -> int:
        return len(self.blames)


def attribute_frames(frames: Iterable[tuple[int, float, float]],
                     log: Optional[DecisionLog] = None,
                     bwe_history: Sequence[tuple[float, float]] = (),
                     ) -> list[FrameBlame]:
    """Partition each frame's pacer span across the active decisions.

    ``frames`` yields ``(frame_id, pacer_enqueue, pacer_exit)`` tuples;
    ``log`` is ACE-N's decision log (None or empty for non-ACE baselines
    — every span then lands in ``uncontrolled``). A row is *active* from
    its time until the next row's; the interval before the first row is
    ``startup``.
    """
    times = log.time if log is not None else []
    bwe_at = step_function(bwe_history) if bwe_history else lambda _: None
    blames: list[FrameBlame] = []
    for frame_id, enqueue, exit_ in frames:
        blame = FrameBlame(frame_id, enqueue, exit_)
        if exit_ < enqueue:  # defensive: malformed stamps
            enqueue, exit_ = exit_, enqueue
        if not times:
            blame.segments.append(BlameSegment(
                enqueue, exit_, UNCONTROLLED, bwe_bps=bwe_at(enqueue)))
            blames.append(blame)
            continue
        # Index of the row active at `enqueue` (-1 = before the first).
        i = bisect_right(times, enqueue) - 1
        cursor = enqueue
        while cursor < exit_ or not blame.segments:
            nxt = times[i + 1] if i + 1 < len(times) else float("inf")
            seg_end = min(exit_, nxt)
            if i < 0:
                reason, bucket, est_queue = STARTUP, None, None
            else:
                reason, bucket, est_queue = (log.branch[i], log.after[i],
                                             log.input[i])
            blame.segments.append(BlameSegment(
                cursor, seg_end, reason,
                bucket_bytes=bucket, est_queue_bytes=est_queue,
                bwe_bps=bwe_at(cursor)))
            cursor = seg_end
            i += 1
            if seg_end >= exit_:
                break
        blames.append(blame)
    return blames


def attribute_session(session) -> SessionAttribution:
    """Attribution for a finished sim/live session object.

    Reads the sender's frame stamps and the ACE-N and congestion
    controller logs directly, so it works with or without telemetry
    attached and on both :class:`~repro.rtc.session.RtcSession` and
    :class:`~repro.live.session.LiveSession`.
    """
    sender = session.sender
    ace_n = getattr(sender, "ace_n", None)
    cc = getattr(sender, "cc", None)
    bwe_history = (list(zip(cc.log.time, cc.log.after))
                   if cc is not None else ())
    frames = [(f.frame_id, f.pacer_enqueue, f.pacer_last_exit)
              for fid in sorted(sender.frame_metrics)
              for f in (sender.frame_metrics[fid],)
              if f.pacer_enqueue is not None and f.pacer_last_exit is not None]
    return SessionAttribution(attribute_frames(
        frames, None if ace_n is None else ace_n.log, bwe_history))


# ----------------------------------------------------------------------
# rendering (``repro why`` / ``repro trace --attrib``)
# ----------------------------------------------------------------------
def _fmt_opt(value: Optional[float], scale: float = 1.0,
             fmt: str = "{:.0f}") -> str:
    return "-" if value is None else fmt.format(value * scale)


def render_frame_blame(blame: FrameBlame) -> str:
    """Per-segment blame table of one frame, plus the summed breakdown."""
    lines = [f"frame {blame.frame_id} pacer residence "
             f"{blame.pacer_span * 1000:.3f} ms "
             f"({blame.enqueue:.6f} -> {blame.exit:.6f}):"]
    for seg in blame.segments:
        lines.append(
            f"  {seg.duration * 1000:9.3f} ms  {seg.reason:<18}"
            f" bucket={_fmt_opt(seg.bucket_bytes)}B"
            f" est_queue={_fmt_opt(seg.est_queue_bytes)}B"
            f" bwe={_fmt_opt(seg.bwe_bps, 1e-6, '{:.2f}')}Mbps")
    breakdown = blame.breakdown()
    parts = [f"{reason}={breakdown[reason] * 1000:.3f}ms"
             for reason in BLAME_CATEGORIES if reason in breakdown]
    lines.append("  blame: " + "  ".join(parts)
                 + f"  (dominant: {blame.dominant()})")
    return "\n".join(lines)


def render_rollup(attribution: SessionAttribution) -> str:
    """Session-level attribution table (the ``repro trace`` rollup)."""
    rollup = attribution.rollup()
    total = attribution.total_pacer_seconds()
    lines = [f"pacer-residence attribution over {len(attribution)} frames "
             f"({total * 1000:.1f} ms total):"]
    header = (f"  {'category':<18}{'seconds':>10}{'share':>8}"
              f"{'dominant frames':>17}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for reason in BLAME_CATEGORIES:
        if reason not in rollup:
            continue
        entry = rollup[reason]
        share = entry["seconds"] / total if total > 0 else 0.0
        lines.append(f"  {reason:<18}{entry['seconds']:>10.4f}"
                     f"{share * 100:>7.1f}%{int(entry['frames']):>17}")
    return "\n".join(lines)
