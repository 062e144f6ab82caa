"""Per-frame timeline export for external analysis/plotting.

Flattens a session's :class:`~repro.rtc.metrics.FrameMetrics` into rows
of timestamps and derived components, and writes them as CSV — the raw
material for custom figures beyond the built-in benches.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.atomicio import atomic_write_text
from repro.obs.attrib import BLAME_CATEGORIES
from repro.rtc.metrics import SessionMetrics

if TYPE_CHECKING:
    from repro.obs.attrib import SessionAttribution

COLUMNS = (
    "frame_id", "capture_time", "size_bytes", "complexity_level",
    "quality_vmaf", "encode_time", "pacer_enqueue", "pacer_last_exit",
    "complete_at", "displayed_at", "pacing_latency", "network_latency",
    "e2e_latency", "had_retransmission",
)

#: appended when an attribution is supplied: the dominant Algorithm 1
#: branch plus per-category seconds of pacer residence.
BLAME_COLUMNS = ("blame_dominant",) + tuple(
    "blame_" + cat.replace("-", "_") for cat in BLAME_CATEGORIES)


def frame_rows(metrics: SessionMetrics,
               attribution: Optional["SessionAttribution"] = None
               ) -> list[dict]:
    """One dict per captured frame with all lifecycle timestamps.

    With ``attribution`` (from ``repro.obs.attribute_session(session)`` /
    :func:`repro.obs.attrib.attribute_session`) each row also carries
    the pacer-blame breakdown: which Algorithm 1 branch owned the
    frame's pacer residence and for how many seconds per category.
    """
    rows = []
    for f in metrics.frames:
        row = {
            "frame_id": f.frame_id,
            "capture_time": f.capture_time,
            "size_bytes": f.size_bytes,
            "complexity_level": f.complexity_level,
            "quality_vmaf": round(f.quality_vmaf, 3),
            "encode_time": f.encode_time,
            "pacer_enqueue": f.pacer_enqueue,
            "pacer_last_exit": f.pacer_last_exit,
            "complete_at": f.complete_at,
            "displayed_at": f.displayed_at,
            "pacing_latency": f.pacing_latency,
            "network_latency": f.network_latency,
            "e2e_latency": f.e2e_latency,
            "had_retransmission": f.had_retransmission,
        }
        if attribution is not None:
            blame = attribution.get(f.frame_id)
            breakdown = blame.breakdown() if blame is not None else {}
            row["blame_dominant"] = (blame.dominant()
                                     if blame is not None else "")
            for cat in BLAME_CATEGORIES:
                row["blame_" + cat.replace("-", "_")] = round(
                    breakdown.get(cat, 0.0), 9)
        rows.append(row)
    return rows


def to_csv(metrics: SessionMetrics, path: Optional[str | Path] = None,
           attribution: Optional["SessionAttribution"] = None) -> str:
    """Render the timeline as CSV; optionally write it to ``path``.

    When ``attribution`` is given the CSV gains the ``blame_*`` columns
    (see :data:`BLAME_COLUMNS`). The file write is atomic.
    """
    columns = COLUMNS + (BLAME_COLUMNS if attribution is not None else ())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    for row in frame_rows(metrics, attribution):
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        atomic_write_text(path, text)
    return text
