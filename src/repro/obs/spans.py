"""Frame-lifecycle spans: per-frame, per-stage timestamps.

Each frame carries one span through the pipeline; stages mirror where
the paper's Fig. 2 latency decomposition cuts the path:

    capture -> encode_start -> encode_end -> packetize ->
    pacer_enqueue -> wire_first/wire_last -> arrival_first ->
    complete -> displayed

``wire_first``/``wire_last`` bracket the packet train leaving the pacer
(the burstiness the paper controls); ``complete`` is receiver-side
reassembly of the last packet; ``displayed`` is post-decode, in-order
display. Stage *durations* therefore reconcile exactly with
:meth:`repro.rtc.metrics.SessionMetrics.latency_breakdown`:

* ``encode``  = encode_end - capture (includes serial-encoder wait)
* ``pacing``  = wire_last - pacer_enqueue
* ``network`` = complete - wire_last
* ``decode``  = displayed - complete
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: canonical stage order (rendering and validation).
SPAN_STAGES = (
    "capture",
    "encode_start",
    "encode_end",
    "packetize",
    "pacer_enqueue",
    "wire_first",
    "wire_last",
    "arrival_first",
    "complete",
    "displayed",
)

#: Fig. 2 / Fig. 6 latency components as (name, start stage, end stage).
SPAN_COMPONENTS = (
    ("encode", "capture", "encode_end"),
    ("pacing", "pacer_enqueue", "wire_last"),
    ("network", "wire_last", "complete"),
    ("decode", "complete", "displayed"),
)


@dataclass(slots=True)
class FrameSpan:
    """Timestamps of one frame's trip through the pipeline."""

    frame_id: int
    stamps: dict = field(default_factory=dict)

    def stage(self, name: str, at: float) -> None:
        self.stamps[name] = at

    @property
    def complete(self) -> bool:
        return "displayed" in self.stamps

    def durations(self) -> dict[str, Optional[float]]:
        """Per-component durations (None where a stage is missing)."""
        out: dict[str, Optional[float]] = {}
        for name, start, end in SPAN_COMPONENTS:
            a, b = self.stamps.get(start), self.stamps.get(end)
            out[name] = (b - a) if a is not None and b is not None else None
        return out

    def e2e(self) -> Optional[float]:
        a, b = self.stamps.get("capture"), self.stamps.get("displayed")
        return (b - a) if a is not None and b is not None else None


class SpanBook:
    """All spans of a session, keyed by frame id."""

    def __init__(self) -> None:
        self.spans: dict[int, FrameSpan] = {}

    def stage(self, frame_id: int, stage: str, at: float) -> FrameSpan:
        span = self.spans.get(frame_id)
        if span is None:
            span = self.spans[frame_id] = FrameSpan(frame_id)
        span.stage(stage, at)
        return span

    def get(self, frame_id: int) -> Optional[FrameSpan]:
        return self.spans.get(frame_id)

    def completed(self) -> list[FrameSpan]:
        return [s for s in self.spans.values() if s.complete]

    def worst_e2e(self) -> Optional[FrameSpan]:
        """The completed span with the largest end-to-end latency."""
        done = self.completed()
        if not done:
            return None
        return max(done, key=lambda s: s.e2e())

    def __len__(self) -> int:
        return len(self.spans)
