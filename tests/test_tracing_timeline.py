"""Tests for frame-timeline export."""

import csv

import pytest

from repro.analysis.timeline import frame_rows, to_csv
from repro.net.trace import BandwidthTrace
from repro.obs import attribute_session
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig


def load_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestTimeline:
    @pytest.fixture(scope="class")
    def metrics(self):
        trace = BandwidthTrace.constant(15e6, duration=12.0)
        session = build_session(
            "webrtc-star", trace, SessionConfig(duration=3.0, seed=2,
                                                initial_bwe_bps=8e6))
        return session.run()

    def test_rows_cover_all_frames(self, metrics):
        rows = frame_rows(metrics)
        assert len(rows) == len(metrics.frames)
        assert rows[0]["frame_id"] == 0
        assert rows[-1]["e2e_latency"] is None or rows[-1]["e2e_latency"] > 0

    def test_csv_roundtrip(self, metrics, tmp_path):
        path = tmp_path / "timeline.csv"
        text = to_csv(metrics, path)
        assert text.startswith("frame_id,")
        loaded = load_csv(path)
        assert len(loaded) == len(metrics.frames)
        assert loaded[0]["frame_id"] == "0"
        assert float(loaded[5]["capture_time"]) == pytest.approx(5 / 30.0)

    def test_csv_write_is_atomic(self, metrics, tmp_path):
        path = tmp_path / "timeline.csv"
        to_csv(metrics, path)
        # Same-dir tmp file from the atomic write must be gone.
        assert [p.name for p in tmp_path.iterdir()] == ["timeline.csv"]


class TestTimelineBlame:
    """The blame_* columns: pacer-residence attribution per frame."""

    @pytest.fixture(scope="class")
    def session_run(self):
        trace = BandwidthTrace.constant(15e6, duration=12.0)
        session = build_session(
            "ace", trace, SessionConfig(duration=3.0, seed=2,
                                        initial_bwe_bps=8e6))
        metrics = session.run()
        return session, metrics

    def test_rows_carry_blame_breakdown(self, session_run):
        from repro.obs.attrib import BLAME_CATEGORIES

        session, metrics = session_run
        attribution = attribute_session(session)
        rows = frame_rows(metrics, attribution)
        assert len(rows) == len(metrics.frames)
        attributed = [r for r in rows if r["blame_dominant"]]
        assert attributed, "no frame got a dominant blame category"
        assert all(r["blame_dominant"] in BLAME_CATEGORIES
                   for r in attributed)
        for row in rows:
            for cat in BLAME_CATEGORIES:
                assert row["blame_" + cat.replace("-", "_")] >= 0.0

    def test_csv_gains_blame_columns_only_with_attribution(
            self, session_run, tmp_path):
        from repro.analysis.timeline import BLAME_COLUMNS, COLUMNS

        session, metrics = session_run
        plain = to_csv(metrics)
        assert plain.splitlines()[0] == ",".join(COLUMNS)
        path = tmp_path / "blame.csv"
        blamed = to_csv(metrics, path, attribute_session(session))
        header = blamed.splitlines()[0]
        assert header == ",".join(COLUMNS + BLAME_COLUMNS)
        loaded = load_csv(path)
        assert len(loaded) == len(metrics.frames)
        # Per-category residence seconds parse back as floats.
        for cat_col in BLAME_COLUMNS[1:]:
            float(loaded[0][cat_col])
