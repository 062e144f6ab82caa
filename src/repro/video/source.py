"""Synthetic content sources, one profile per UGC category.

The paper evaluates on five YouTube categories (Music, Gaming, Sports,
Vlog, Lecture). What the downstream pipeline consumes from a video is
its per-frame SATD sequence: how different each frame is from the
previous one. We model that signal as a mean-reverting log-space process
(slow motion-intensity drift) with Poisson scene changes (large spikes)
and heavy-tailed per-frame innovation, tuned per category so encoded
frame-size variability matches Fig. 8 (coefficient of variation from
~0.56 for Lecture up to ~1.03 for Gaming).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.sim.rng import RngStream
from repro.video.frame import RawFrame


@dataclass(frozen=True)
class ContentProfile:
    """Statistical knobs for one content category.

    ``motion_volatility``/``motion_reversion`` shape the slow drift of
    content difficulty; ``innovation_sigma`` is per-frame lognormal
    noise; ``scene_change_rate`` is scene cuts per second, each
    multiplying SATD by ``scene_change_boost`` for one frame; ``tail_prob``
    and ``tail_scale`` add the rare large-difference frames (flashes,
    whole-screen motion) that create the paper's heavy tail.
    """

    name: str
    motion_volatility: float
    motion_reversion: float
    innovation_sigma: float
    scene_change_rate: float
    scene_change_boost: float
    tail_prob: float
    tail_scale: float
    base_satd: float = 1.0
    #: hard ceiling on satd as a multiple of base*motion — a frame's
    #: transformed difference cannot exceed the entropy of the raw frame,
    #: so the tail is heavy but bounded (paper Fig. 2 tops out ~5-8x in
    #: encoded size, i.e. ~4x in the linear SATD signal).
    max_relative_satd: float = 4.0


#: Category profiles ordered roughly by content dynamism. SATD here is a
#: *linear* image-difference signal; the encoder's bit demand scales as
#: satd^1.5 (see QualityModel.difficulty), so these sigmas are tuned so
#: the resulting encoded-size distributions match the paper: size CV
#: ~0.5 (lecture) to ~1.0+ (gaming) per Fig. 8, with ~10% of frames over
#: 2x and ~1% over 5x the mean size per Fig. 2.
CONTENT_CATEGORIES: dict[str, ContentProfile] = {
    "lecture": ContentProfile(
        name="lecture", motion_volatility=0.02, motion_reversion=0.10,
        innovation_sigma=0.20, scene_change_rate=0.02, scene_change_boost=2.2,
        tail_prob=0.004, tail_scale=1.3,
    ),
    "music": ContentProfile(
        name="music", motion_volatility=0.025, motion_reversion=0.08,
        innovation_sigma=0.38, scene_change_rate=0.15, scene_change_boost=2.6,
        tail_prob=0.008, tail_scale=1.8,
    ),
    "vlog": ContentProfile(
        name="vlog", motion_volatility=0.03, motion_reversion=0.08,
        innovation_sigma=0.45, scene_change_rate=0.08, scene_change_boost=2.8,
        tail_prob=0.010, tail_scale=2.0,
    ),
    "sports": ContentProfile(
        name="sports", motion_volatility=0.035, motion_reversion=0.06,
        innovation_sigma=0.55, scene_change_rate=0.12, scene_change_boost=3.0,
        tail_prob=0.015, tail_scale=2.2,
    ),
    "gaming": ContentProfile(
        name="gaming", motion_volatility=0.03, motion_reversion=0.06,
        innovation_sigma=0.62, scene_change_rate=0.25, scene_change_boost=3.2,
        tail_prob=0.020, tail_scale=2.5,
    ),
}


class VideoSource:
    """Generates :class:`RawFrame` objects at a fixed frame rate.

    The SATD of frame *n* is::

        satd_n = base * motion_n * innovation_n * (boost if scene cut)

    where ``motion`` follows a log-space mean-reverting walk and
    ``innovation`` is lognormal with an occasional Pareto tail kick.
    """

    def __init__(self, profile: ContentProfile, rng: RngStream,
                 fps: float = 30.0, start_time: float = 0.0) -> None:
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.profile = profile
        self.rng = rng
        self.fps = fps
        self.frame_interval = 1.0 / fps
        self._next_capture = start_time
        self._frame_id = 0
        self._log_motion = 0.0

    @classmethod
    def from_category(cls, category: str, rng: RngStream,
                      fps: float = 30.0) -> "VideoSource":
        if category not in CONTENT_CATEGORIES:
            raise KeyError(
                f"unknown category {category!r}; choose from {sorted(CONTENT_CATEGORIES)}"
            )
        return cls(CONTENT_CATEGORIES[category], rng, fps=fps)

    def next_frame(self) -> RawFrame:
        """Produce the next frame in capture order."""
        p = self.profile
        # Slow motion-intensity drift (log-space OU step).
        self._log_motion += (
            p.motion_reversion * (0.0 - self._log_motion)
            + self.rng.normal(0.0, p.motion_volatility)
        )
        motion = math.exp(self._log_motion)
        innovation = self.rng.lognormal(0.0, p.innovation_sigma)
        scene_change = self.rng.random() < p.scene_change_rate * self.frame_interval
        satd = p.base_satd * motion * innovation
        if scene_change:
            satd *= p.scene_change_boost
        elif self.rng.random() < p.tail_prob:
            satd *= 1.0 + p.tail_scale * self.rng.pareto(2.5)
        satd = min(satd, p.base_satd * motion * p.max_relative_satd)
        frame = RawFrame(
            frame_id=self._frame_id,
            capture_time=self._next_capture,
            satd=satd,
            scene_change=scene_change,
            category=p.name,
        )
        self._frame_id += 1
        self._next_capture += self.frame_interval
        return frame

    def frames(self, count: int) -> Iterator[RawFrame]:
        """Yield ``count`` consecutive frames."""
        for _ in range(count):
            yield self.next_frame()


class MixedSource:
    """Concatenates segments from every category (UGC-corpus stand-in).

    Each segment lasts ``segment_frames`` frames; the category order is
    fixed so runs are comparable across baselines.
    """

    def __init__(self, rng: RngStream, fps: float = 30.0,
                 segment_frames: int = 300,
                 categories: Optional[list[str]] = None) -> None:
        self.categories = categories or list(CONTENT_CATEGORIES)
        self.segment_frames = segment_frames
        self.fps = fps
        self.frame_interval = 1.0 / fps
        self._sources = [
            VideoSource.from_category(cat, rng, fps=fps) for cat in self.categories
        ]
        self._emitted = 0
        self._frame_id = 0
        self._next_capture = 0.0

    def next_frame(self) -> RawFrame:
        index = (self._emitted // self.segment_frames) % len(self._sources)
        frame = self._sources[index].next_frame()
        # Re-stamp id/time so the concatenation looks like one stream.
        frame = RawFrame(
            frame_id=self._frame_id,
            capture_time=self._next_capture,
            satd=frame.satd,
            scene_change=frame.scene_change,
            category=frame.category,
        )
        self._emitted += 1
        self._frame_id += 1
        self._next_capture += self.frame_interval
        return frame

    def frames(self, count: int) -> Iterator[RawFrame]:
        for _ in range(count):
            yield self.next_frame()
