"""Frame data structures shared between source, encoder and transport."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class RawFrame:
    """An uncompressed frame as produced by the capture source.

    ``satd`` is the Sum of Absolute Transformed Differences against the
    previous frame — the content-difference signal the encoder's rate
    control (and ACE-C's size predictor) operates on. It is in arbitrary
    but consistent units; only ratios against a running mean matter.
    """

    frame_id: int
    capture_time: float
    satd: float
    scene_change: bool = False
    category: str = "generic"


@dataclass
class EncodedFrame:
    """Output of the encoder model for one frame."""

    frame_id: int
    capture_time: float
    size_bytes: int
    encode_time: float
    quality_vmaf: float
    complexity_level: int
    qp: float
    satd: float
    planned_bytes: int
    is_keyframe: bool = False
    # Filled by the pipeline:
    encode_start: Optional[float] = None
    encode_end: Optional[float] = None
