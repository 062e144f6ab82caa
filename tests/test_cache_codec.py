"""Columnar result-cache entries: codec properties and corruption handling.

The cache stores :func:`metrics_to_dict`'s columnar form; the contract
is that a restored result has the same ``canonical_metrics_json`` text
and the same field types as the original, for any column content, and
that an entry which does not decode is a recorded miss — never a hit,
never an exception out of the sweep.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ResultCache, canonical_metrics_json, \
    metrics_from_dict, metrics_to_dict
from repro.analysis.results import _FRAME_FIELDS
from repro.bench.parallel import run_grid
from repro.net.trace import BandwidthTrace
from repro.rtc.metrics import FrameMetrics, SendLog, SessionMetrics
from repro.rtc.session import SessionConfig

# ----------------------------------------------------------------------
# synthetic sessions
# ----------------------------------------------------------------------
any_float = st.floats(allow_nan=True, allow_infinity=True)
small_int = st.integers(min_value=-2**40, max_value=2**40)
#: mostly machine ints, sometimes one that cannot fit int64.
any_int = st.one_of(small_int, st.integers(min_value=-2**70, max_value=2**70))
optional_float = st.one_of(st.none(), any_float)
#: a field that is nominally float but sometimes handed an int.
float_or_int = st.one_of(any_float, small_int)
#: send sizes are int64 by type (SendLog refuses anything wider).
int64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
#: send times are nondecreasing, so never NaN.
send_logs = st.lists(st.tuples(st.floats(allow_nan=False), int64),
                     max_size=12).map(
    lambda rows: SendLog(sorted(t for t, _ in rows),
                         [size for _, size in rows]))

frames_st = st.lists(st.builds(
    FrameMetrics,
    frame_id=any_int, capture_time=float_or_int, size_bytes=small_int,
    quality_vmaf=any_float, complexity_level=small_int,
    encode_time=optional_float, satd=any_float, planned_bytes=small_int,
    pacer_enqueue=optional_float, pacer_last_exit=optional_float,
    complete_at=optional_float, displayed_at=optional_float,
    had_retransmission=st.booleans()), max_size=12)

sessions_st = st.builds(
    SessionMetrics,
    duration=st.floats(min_value=0.0, max_value=1e3),
    frames=frames_st,
    packets_sent=st.integers(0, 10**6), packets_lost=st.integers(0, 10**6),
    packets_retransmitted=st.integers(0, 10**6),
    send_events=send_logs,
    bwe_history=st.lists(st.tuples(any_float, float_or_int), max_size=12))


def typed(metrics: SessionMetrics) -> list:
    """Every stored value with its exact type (NaN-safe via repr)."""
    values = [metrics.duration, metrics.packets_sent, metrics.packets_lost,
              metrics.packets_retransmitted]
    for f in metrics.frames:
        values.extend(getattr(f, name) for name in _FRAME_FIELDS)
    for ev in [*metrics.send_events, *metrics.bwe_history]:
        assert type(ev) is tuple
        values.extend(ev)
    return [(type(v).__name__, repr(v)) for v in values]


def through_json(metrics):
    return metrics_from_dict(json.loads(json.dumps(metrics_to_dict(metrics))))


def frame(i=0, **overrides):
    fields = dict(frame_id=i, capture_time=i / 30.0, size_bytes=1200 + i,
                  quality_vmaf=90.5, complexity_level=2, encode_time=0.004,
                  satd=1.5, planned_bytes=1100, pacer_enqueue=0.01,
                  pacer_last_exit=0.02, complete_at=0.05, displayed_at=0.06,
                  had_retransmission=False)
    fields.update(overrides)
    return FrameMetrics(**fields)


class TestCodecRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(sessions_st)
    def test_canonical_json_and_types_survive(self, metrics):
        restored = through_json(metrics)
        assert canonical_metrics_json(restored) == \
            canonical_metrics_json(metrics)
        assert typed(restored) == typed(metrics)
        assert restored.bandwidth_fn is None

    def test_empty_session(self):
        metrics = SessionMetrics(duration=0.0)
        entry = metrics_to_dict(metrics)
        assert entry["kind"] == "session"
        assert set(entry["frames"]) == set(_FRAME_FIELDS)
        restored = through_json(metrics)
        assert restored.frames == [] and restored.send_events == SendLog()
        assert canonical_metrics_json(restored) == \
            canonical_metrics_json(metrics)

    def test_numeric_columns_are_packed_by_exact_type(self):
        metrics = SessionMetrics(
            duration=1.0, frames=[frame(0), frame(1, had_retransmission=True)],
            send_events=SendLog([0.1, 0.2], [1200, 800]))
        entry = metrics_to_dict(metrics)
        assert entry["frames"]["capture_time"]["dt"] == "<f8"
        assert entry["frames"]["size_bytes"]["dt"] == "<i8"
        assert entry["frames"]["had_retransmission"]["dt"] == "|u1"
        assert entry["send_events"]["t"]["n"] == 2
        assert through_json(metrics).frames[1].had_retransmission is True

    def test_nones_are_listed_by_index(self):
        metrics = SessionMetrics(duration=1.0, frames=[
            frame(0), frame(1, complete_at=None, displayed_at=None),
            frame(2, encode_time=None)])
        entry = metrics_to_dict(metrics)
        assert entry["frames"]["displayed_at"]["null"] == [1]
        assert entry["frames"]["encode_time"]["null"] == [2]
        assert "null" not in entry["frames"]["capture_time"]
        restored = through_json(metrics)
        assert restored.frames[1].displayed_at is None
        assert restored.frames[2].encode_time is None
        assert restored.frames == metrics.frames

    def test_nan_and_infinities_keep_their_bits(self):
        specials = [float("nan"), float("inf"), float("-inf"), -0.0]
        metrics = SessionMetrics(duration=1.0, frames=[
            frame(i, quality_vmaf=v) for i, v in enumerate(specials)])
        assert metrics_to_dict(metrics)["frames"]["quality_vmaf"]["dt"] == "<f8"
        restored = through_json(metrics)
        assert [repr(f.quality_vmaf) for f in restored.frames] == \
            ["nan", "inf", "-inf", "-0.0"]

    def test_mixed_int_and_float_column_is_verbatim(self):
        metrics = SessionMetrics(duration=1.0,
                                 bwe_history=[(0.0, 4_000_000), (0.1, 4.5e6)])
        entry = metrics_to_dict(metrics)
        assert entry["bwe_history"]["bwe"] == [4_000_000, 4.5e6]
        restored = through_json(metrics)
        assert [type(b) for _t, b in restored.bwe_history] == [int, float]
        assert '"bwe_history": [[0.0, 4000000], [0.1, 4500000.0]]' in \
            canonical_metrics_json(restored)

    def test_int_outside_int64_is_verbatim_not_wrapped(self):
        huge = 2**63
        metrics = SessionMetrics(
            duration=1.0, frames=[frame(huge, planned_bytes=-huge - 1)],
            send_events=SendLog([0.1, 0.2], [-huge, 5]))
        entry = metrics_to_dict(metrics)
        assert entry["frames"]["frame_id"] == [huge]
        assert entry["frames"]["planned_bytes"] == [-huge - 1]
        assert entry["send_events"]["size"]["dt"] == "<i8"
        restored = through_json(metrics)
        assert restored.frames[0].frame_id == huge
        assert restored.frames[0].planned_bytes == -huge - 1
        assert restored.send_events == metrics.send_events
        with pytest.raises(ValueError):     # a send size is int64 by type
            SendLog([0.1], [-huge - 1])

    def test_real_session_entry_is_smaller_than_row_form(self):
        trace = BandwidthTrace.constant(15e6, duration=10.0, name="flat-15")
        (metrics,) = run_grid(["ace"], [trace], duration=2.0).values()
        assert len(json.dumps(metrics_to_dict(metrics))) < \
            len(canonical_metrics_json(metrics))
        assert through_json(metrics).frames == metrics.frames


# ----------------------------------------------------------------------
# corrupt entries
# ----------------------------------------------------------------------
def _truncate_base64(entry):
    column = entry["send_events"]["t"]
    column["b64"] = column["b64"][:-6]


def _wrong_count(entry):
    entry["frames"]["satd"]["n"] += 1


def _unknown_dtype(entry):
    entry["frames"]["capture_time"]["dt"] = "<f4"


def _missing_column(entry):
    del entry["frames"]["planned_bytes"]


def _short_column(entry):
    entry["frames"]["displayed_at"] = [None]


def _missing_scalar(entry):
    del entry["duration"]


def _unknown_kind(entry):
    entry["kind"] = "rows"


def _null_out_of_range(entry):
    entry["frames"]["complete_at"]["null"] = [10**6]


def _send_size_outside_int64(entry):
    entry["send_events"] = {"t": [0.1], "size": [2**64]}


def _send_times_out_of_order(entry):
    entry["send_events"] = {"t": [0.2, 0.1], "size": [1, 2]}


def _send_column_wrong_dtype(entry):
    entry["send_events"]["size"]["dt"] = "<f8"


MUTATIONS = [_truncate_base64, _wrong_count, _unknown_dtype, _missing_column,
             _short_column, _missing_scalar, _unknown_kind, _null_out_of_range,
             _send_size_outside_int64, _send_times_out_of_order,
             _send_column_wrong_dtype]
RAW_BLOBS = ["{not json", "{}", "[]", "null", '{"kind": "session"}', ""]


@pytest.fixture(scope="module")
def session_metrics():
    trace = BandwidthTrace.constant(15e6, duration=10.0, name="flat-15")
    (metrics,) = run_grid(["cbr"], [trace], duration=1.5).values()
    return metrics


class TestCorruptEntries:
    def _check_miss_then_repair(self, cache, key, metrics):
        assert cache.get(key) is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 1)
        assert "corrupt=1" in cache.counters()
        cache.put(key, metrics)         # the re-run overwrites the bad file
        restored = cache.get(key)
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 1)
        assert canonical_metrics_json(restored) == \
            canonical_metrics_json(metrics)

    @pytest.mark.parametrize("mutate", MUTATIONS,
                             ids=lambda f: f.__name__.lstrip("_"))
    def test_malformed_entry_is_a_recorded_miss(self, mutate, tmp_path,
                                                session_metrics):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        entry = metrics_to_dict(session_metrics)
        mutate(entry)
        with pytest.raises(ValueError):     # the codec's one error type
            metrics_from_dict(entry)
        (tmp_path / "k.json").write_text(json.dumps(entry))
        self._check_miss_then_repair(cache, "k", session_metrics)

    @pytest.mark.parametrize("blob", RAW_BLOBS)
    def test_foreign_file_is_a_recorded_miss(self, blob, tmp_path,
                                             session_metrics):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        (tmp_path / "k.json").write_text(blob)
        self._check_miss_then_repair(cache, "k", session_metrics)

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        assert cache.get("nope") is None
        assert (cache.misses, cache.corrupt) == (1, 0)
        assert cache.counter_dict() == {"hits": 0, "misses": 1,
                                        "stores": 0, "corrupt": 0}

    def test_corrupt_arena_flow_poisons_the_whole_entry(self, tmp_path):
        from repro.arena import ArenaFlowSpec, ArenaSession
        trace = BandwidthTrace.constant(20e6, duration=10.0, name="const20")
        metrics = ArenaSession(
            [ArenaFlowSpec("cbr", flow_id=1), ArenaFlowSpec("cbr", flow_id=2)],
            trace, SessionConfig(duration=1.5, seed=3)).run()
        entry = metrics_to_dict(metrics)
        assert entry["flows"]["2"]["kind"] == "session"
        _wrong_count(entry["flows"]["2"])
        (tmp_path / "k.json").write_text(json.dumps(entry))
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        self._check_miss_then_repair(cache, "k", metrics)

    def test_sweep_survives_a_corrupt_entry_and_rewrites_it(self, tmp_path):
        trace = BandwidthTrace.constant(15e6, duration=10.0, name="flat-15")
        cold_cache = ResultCache(cache_dir=tmp_path, enabled=True)
        cold = run_grid(["cbr", "ace"], [trace], duration=1.5,
                        cache=cold_cache)
        victim = sorted(tmp_path.glob("*.json"))[0]
        victim.write_text("{}")         # parses, but is not an entry

        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        again = run_grid(["cbr", "ace"], [trace], duration=1.5, cache=cache)
        assert cache.counter_dict() == {"hits": 1, "misses": 1,
                                        "stores": 1, "corrupt": 1}
        assert victim.stat().st_size > 2
        for key in cold:
            assert canonical_metrics_json(again[key]) == \
                canonical_metrics_json(cold[key])

    def test_run_summary_records_the_corrupt_count(self, tmp_path):
        trace = BandwidthTrace.constant(15e6, duration=10.0, name="flat-15")
        cache = ResultCache(cache_dir=tmp_path / "cache", enabled=True)
        run_grid(["cbr"], [trace], duration=1.5, cache=cache)
        for path in cache.cache_dir.glob("*.json"):
            path.write_text("[1, 2")
        run_grid(["cbr"], [trace], duration=1.5, cache=cache,
                 run_dir=str(tmp_path / "run"))
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["cache"] == {"hits": 0, "misses": 2,
                                    "stores": 2, "corrupt": 1}


class TestClear:
    def test_put_leaves_no_temp_file_behind(self, tmp_path, session_metrics,
                                           monkeypatch):
        """``put`` stages through ``atomic_write_text``: neither a store
        nor a writer interrupted before its rename leaves a file."""
        import repro.obs.atomicio as atomicio

        def interrupted(src, dst):
            raise KeyboardInterrupt     # the writer dies before the rename

        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        monkeypatch.setattr(atomicio.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.put("b", session_metrics)
        monkeypatch.undo()
        assert cache.stores == 0 and list(tmp_path.iterdir()) == []
        cache.put("a", session_metrics)
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        json.loads((tmp_path / "a.json").read_text())   # one valid JSON file
