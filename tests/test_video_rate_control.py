"""Tests for rate control strategies (ABR+VBV, CBR, CQP)."""

import numpy as np
import pytest

from repro.sim.rng import RngStream
from repro.video.codec.model import CodecModel
from repro.video.codec.presets import x264_config
from repro.video.codec.rate_control import (
    AbrVbvRateControl,
    CbrRateControl,
    CqpRateControl,
    RateControl,
)
from repro.video.source import VideoSource

BITRATE = 20_000_000.0
FPS = 30.0
BUDGET = BITRATE / FPS / 8.0


def run_controller(rc, cat="gaming", n=2000, bitrate=BITRATE, seed=3):
    codec = CodecModel(x264_config(), RngStream(seed, "codec"))
    src = VideoSource.from_category(cat, RngStream(seed, "src"), fps=FPS)
    sizes, vmafs = [], []
    for frame in src.frames(n):
        planned = rc.plan_bytes(codec, frame, bitrate, FPS)
        enc = codec.encode(frame, planned, 0)
        rc.on_encoded(enc.size_bytes, bitrate, FPS)
        sizes.append(enc.size_bytes)
        vmafs.append(enc.quality_vmaf)
    return np.array(sizes), np.array(vmafs)


def test_target_frame_bytes():
    assert RateControl.target_frame_bytes(24e6, 30.0) == 100_000


class TestAbrVbv:
    def test_long_run_rate_hits_target(self):
        sizes, _ = run_controller(AbrVbvRateControl())
        achieved = sizes.mean() * 8 * FPS
        assert achieved == pytest.approx(BITRATE, rel=0.05)

    def test_sizes_follow_content_heavy_tail(self):
        """Fig. 2: ~5-10% of frames above 2x mean under ABR."""
        sizes, _ = run_controller(AbrVbvRateControl())
        frac2 = (sizes > 2 * sizes.mean()).mean()
        assert 0.03 <= frac2 <= 0.15

    def test_single_frame_never_exceeds_max_rho(self):
        rc = AbrVbvRateControl()
        sizes, _ = run_controller(rc)
        # noise sigma can push a hair over the planned cap
        assert sizes.max() <= rc.MAX_RHO * BUDGET * 1.5

    def test_vbv_limits_sustained_overshoot(self):
        """Cumulative overshoot beyond budget is bounded by the buffer."""
        rc = AbrVbvRateControl()
        sizes, _ = run_controller(rc)
        fill = 0.0
        max_fill = 0.0
        for s in sizes:
            fill = max(0.0, fill + s - BUDGET)
            max_fill = max(max_fill, fill)
        buffer_bytes = rc.VBV_SECONDS * BITRATE / 8
        assert max_fill <= buffer_bytes * 1.3

    def test_quality_flatter_than_cbr_on_dynamic_content(self):
        _, v_abr = run_controller(AbrVbvRateControl())
        _, v_cbr = run_controller(CbrRateControl())
        assert v_abr.std() < v_cbr.std()

    def test_abr_beats_cbr_on_gaming_quality(self):
        """The Fig. 12/13 ordering: ABR mean VMAF above CBR on dynamic
        content, roughly equal on static content."""
        _, v_abr = run_controller(AbrVbvRateControl(), cat="gaming")
        _, v_cbr = run_controller(CbrRateControl(), cat="gaming")
        assert v_abr.mean() > v_cbr.mean() + 1.0
        _, v_abr_l = run_controller(AbrVbvRateControl(), cat="lecture")
        _, v_cbr_l = run_controller(CbrRateControl(), cat="lecture")
        assert abs(v_abr_l.mean() - v_cbr_l.mean()) < 3.0

    def test_quality_falls_at_lower_bitrate(self):
        """The rate controller delivers lower quality when starved."""
        _, v_full = run_controller(AbrVbvRateControl(), bitrate=BITRATE)
        _, v_quarter = run_controller(AbrVbvRateControl(), bitrate=BITRATE / 4)
        assert v_quarter.mean() < v_full.mean() - 5.0


class TestCbr:
    def test_sizes_near_constant(self):
        sizes, _ = run_controller(CbrRateControl())
        assert sizes.std() / sizes.mean() < 0.2

    def test_rate_matches_target(self):
        sizes, _ = run_controller(CbrRateControl())
        assert sizes.mean() * 8 * FPS == pytest.approx(BITRATE, rel=0.05)

    def test_debt_keeps_average_on_budget(self):
        rc = CbrRateControl()
        # Simulate systematic overshoot: encoder always adds 5%.
        codec = CodecModel(x264_config(), RngStream(4, "codec"))
        src = VideoSource.from_category("vlog", RngStream(4, "src"))
        planned_sum = actual_sum = 0.0
        for frame in src.frames(500):
            planned = rc.plan_bytes(codec, frame, BITRATE, FPS)
            actual = planned * 1.05
            rc.on_encoded(int(actual), BITRATE, FPS)
            planned_sum += planned
            actual_sum += actual
        assert actual_sum / 500 == pytest.approx(BUDGET, rel=0.08)

    def test_starves_complex_frames(self):
        sizes, vmafs = run_controller(CbrRateControl(), cat="gaming")
        # bottom decile of quality must be far below the mean: complex
        # frames are crushed
        assert np.percentile(vmafs, 10) < vmafs.mean() - 10


class TestCqp:
    def test_open_loop_sizes_track_content(self):
        sizes, vmafs = run_controller(CqpRateControl(quality=80.0))
        assert sizes.std() / sizes.mean() > 0.3

    def test_quality_near_setpoint(self):
        _, vmafs = run_controller(CqpRateControl(quality=80.0))
        assert np.median(vmafs) == pytest.approx(80.0, abs=6.0)

    def test_no_feedback_state(self):
        rc = CqpRateControl(quality=70.0)
        rc.on_encoded(123456, BITRATE, FPS)  # must be a no-op
        codec = CodecModel(x264_config(), RngStream(5, "codec"))
        from repro.video.frame import RawFrame
        f = RawFrame(frame_id=0, capture_time=0.0, satd=1.0)
        a = rc.plan_bytes(codec, f, BITRATE, FPS)
        rc.on_encoded(1, BITRATE, FPS)
        b = rc.plan_bytes(codec, f, BITRATE, FPS)
        assert a == b
