"""The deterministic time-series layer: recorder, shards, reductions.

Everything here is contractual for reproducible figures: the recorder's
decimation must be a pure function of the tick sequence, shards must
round-trip bit-identically, and the render-time reductions (M4, rates,
divergence windows) must be deterministic so ``repro plot`` output is
byte-identical across re-renders.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import MetricRegistry
from repro.obs import timeseries as timeseries_module
from repro.obs.atomicio import atomic_write_text
from repro.obs.timeseries import (
    SeriesFrame,
    SeriesRecorder,
    load_shard,
    m4_downsample,
    max_divergence_window,
    rate_series,
    value_at,
)


def _registry() -> MetricRegistry:
    reg = MetricRegistry()
    reg.gauge("g.depth").set(3.0)
    reg.counter("c.bytes").inc(100.0)
    return reg


# ---------------------------------------------------------------------------
# SeriesRecorder
# ---------------------------------------------------------------------------
def test_recorder_samples_gauges_and_counters_cumulative():
    reg = _registry()
    rec = SeriesRecorder(reg)
    rec.sample(0.1)
    reg.gauges["g.depth"].set(7.0)
    reg.counters["c.bytes"].inc(50.0)
    rec.sample(0.2)
    frame = rec.frame()
    assert frame.t == [0.1, 0.2]
    assert frame.series["g.depth"] == [3.0, 7.0]
    # Counters are recorded cumulative (decimation-safe), not as deltas.
    assert frame.series["c.bytes"] == [100.0, 150.0]


def test_recorder_bounded_and_deterministic(monkeypatch):
    monkeypatch.setattr(timeseries_module, "MAX_SAMPLES", 8)

    def run() -> SeriesRecorder:
        reg = _registry()
        rec = SeriesRecorder(reg)
        for i in range(41):
            reg.gauges["g.depth"].set(float(i))
            rec.sample(i * 0.1)
        return rec

    a, b = run(), run()
    assert len(a.t) <= 8
    # Stride doubled at every compaction; retained set is a pure
    # function of the tick sequence, so two identical runs agree.
    assert a.stride == b.stride > 1
    assert a.t == b.t
    assert a.columns == b.columns
    # The earliest sample always survives decimation.
    assert a.t[0] == 0.0


def test_recorder_skips_offstride_ticks_after_compaction(monkeypatch):
    monkeypatch.setattr(timeseries_module, "MAX_SAMPLES", 4)
    reg = _registry()
    rec = SeriesRecorder(reg)
    for i in range(8):
        rec.sample(i * 1.0)
    assert rec.stride == 2 and rec.t == [0.0, 2.0, 4.0, 6.0]
    rec.sample(8.0)  # tick 8: on-stride, overflows, compacts again
    assert rec.stride == 4 and rec.t == [0.0, 4.0, 8.0]
    for now in (9.0, 10.0, 11.0):  # ticks 9-11: off-stride, dropped
        rec.sample(now)
    assert rec.t == [0.0, 4.0, 8.0]
    rec.sample(12.0)  # tick 12: on-stride again
    assert rec.t == [0.0, 4.0, 8.0, 12.0]


def test_recorder_backfills_late_columns():
    reg = MetricRegistry()
    reg.gauge("early").set(1.0)
    rec = SeriesRecorder(reg)
    rec.sample(0.1)
    reg.gauge("late").set(9.0)
    rec.sample(0.2)
    frame = rec.frame()
    assert frame.series["late"] == [None, 9.0]
    assert frame.series["early"] == [1.0, 1.0]


# ---------------------------------------------------------------------------
# SeriesFrame shards
# ---------------------------------------------------------------------------
def test_shard_round_trip(tmp_path):
    frame = SeriesFrame(
        t=[0.1, 0.2],
        series={"a": [1.0, None], "b": [float("nan"), 2.0]},
        meta={"baseline": "ace", "stride": 1, "samples": 2},
    )
    path = tmp_path / "series" / "ace.json"
    frame.write(path)
    loaded = load_shard(path)
    assert loaded.t == [0.1, 0.2]
    assert loaded.series["a"] == [1.0, None]
    # NaN serializes as null — shards are strict JSON.
    assert loaded.series["b"] == [None, 2.0]
    assert loaded.meta["baseline"] == "ace"
    # Valid strict JSON (no NaN literals), trailing newline, and no
    # leftover tmp files from the atomic write.
    text = path.read_text()
    json.loads(text)
    assert text.endswith("\n")
    assert list(path.parent.glob(".*.tmp")) == []


def test_shard_write_is_byte_deterministic(tmp_path):
    frame = SeriesFrame(t=[0.1], series={"z": [1.0], "a": [2.0]})
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    frame.write(p1)
    frame.write(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_shard_rejects_foreign_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"kind": "something-else"}')
    with pytest.raises(ValueError):
        load_shard(path)


def test_points_drops_missing_samples():
    frame = SeriesFrame(t=[0.1, 0.2, 0.3],
                        series={"a": [1.0, None, float("nan")]})
    assert frame.points("a") == ([0.1], [1.0])


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "nested" / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(path.parent.iterdir()) == [path]


# ---------------------------------------------------------------------------
# m4_downsample
# ---------------------------------------------------------------------------
def test_m4_passthrough_when_small():
    t = [0.1, 0.2, 0.3]
    v = [1.0, 2.0, 3.0]
    assert m4_downsample(t, v, 10) == (t, v)


def test_m4_bounds_output_and_keeps_extremes():
    t = [i * 0.01 for i in range(1000)]
    v = [math.sin(i / 20.0) for i in range(1000)]
    dt, dv = m4_downsample(t, v, 50)
    assert len(dt) <= 4 * 50
    assert dt[0] == t[0] and dt[-1] == t[-1]
    assert max(dv) == max(v) and min(dv) == min(v)
    # Deterministic: same shard + same width -> same polyline.
    assert (dt, dv) == m4_downsample(t, v, 50)


def test_m4_skips_missing_and_handles_flat_time():
    t = [0.0, 0.0, 0.0]
    v = [1.0, None, 3.0]
    dt, dv = m4_downsample(t, v, 1)
    assert dt == [0.0, 0.0] and dv == [1.0, 3.0]
    assert m4_downsample([], [], 10) == ([], [])


# ---------------------------------------------------------------------------
# rate_series / value_at
# ---------------------------------------------------------------------------
def test_rate_series_bits_per_second():
    t = [0.0, 1.0, 2.0]
    cum = [0.0, 1000.0, 3000.0]
    rt, rv = rate_series(t, cum)
    assert rt == [1.0, 2.0]
    assert rv == [8000.0, 16000.0]


def test_rate_series_clamps_resets_and_skips_missing():
    t = [0.0, 1.0, 2.0, 3.0]
    cum = [1000.0, None, 500.0, 600.0]
    rt, rv = rate_series(t, cum, scale=1.0)
    # Counter reset (1000 -> 500) clamps to zero instead of negative.
    assert rt == [2.0, 3.0]
    assert rv == [0.0, 100.0]


def test_value_at_sample_and_hold():
    t = [1.0, 2.0, 3.0]
    v = [10.0, 20.0, 30.0]
    assert value_at(t, v, 0.5) is None
    assert value_at(t, v, 2.0) == 20.0
    assert value_at(t, v, 2.9) == 20.0
    assert value_at(t, v, 99.0) == 30.0


# ---------------------------------------------------------------------------
# max_divergence_window
# ---------------------------------------------------------------------------
def _frame(values, name="q", dt=0.1):
    return SeriesFrame(t=[i * dt for i in range(len(values))],
                       series={name: list(values)})


def test_divergence_window_finds_injected_bump():
    base = [1.0] * 100
    bumped = list(base)
    for i in range(40, 50):  # divergence in t = [4.0, 5.0)
        bumped[i] = 5.0
    best = max_divergence_window(_frame(bumped), _frame(base), window_s=1.0)
    assert best is not None
    assert best["series"] == "q"
    assert 3.5 <= best["start"] <= 4.0
    assert best["end"] <= 5.1
    assert best["divergence"] > 0.0
    assert best["candidate_mean"] > best["reference_mean"]


def test_divergence_normalized_by_pair_scale():
    # Reference all-zero must not divide by epsilon: normalized
    # divergence stays <= 1 because the candidate's scale anchors it.
    cand = [0.0] * 20 + [16.0] * 20
    best = max_divergence_window(_frame(cand), _frame([0.0] * 40))
    assert best is not None
    assert best["divergence"] == pytest.approx(1.0)


def test_divergence_ties_resolve_to_earliest_window():
    # Persistent divergence: every fully-diverged window has the same
    # mean; prefix sums make the comparison exact so the earliest wins.
    cand = [0.0] * 10 + [4.0] * 90
    best = max_divergence_window(_frame(cand), _frame([0.0] * 100),
                                 window_s=1.0)
    assert best["start"] == pytest.approx(1.0)
    assert best["end"] - best["start"] == pytest.approx(1.0)


def test_divergence_none_when_nothing_to_compare():
    assert max_divergence_window(_frame([1.0]), _frame([1.0])) is None
    a = SeriesFrame(t=[0.0, 1.0], series={"x": [1.0, 2.0]})
    b = SeriesFrame(t=[0.0, 1.0], series={"y": [1.0, 2.0]})
    assert max_divergence_window(a, b) is None


def test_divergence_respects_name_filter():
    cand = _frame([1.0] * 20)
    cand.series["other"] = [9.0] * 20
    ref = _frame([1.0] * 20)
    ref.series["other"] = [1.0] * 20
    best = max_divergence_window(cand, ref, names=["q"])
    assert best is not None and best["series"] == "q"
