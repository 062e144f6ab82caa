"""Event-loop self-profiler: deterministic counts, clean detach."""

import pytest

from repro.net import make_wifi_trace
from repro.obs import LoopProfiler
from repro.obs.profiler import PROFILE_BUCKETS_S, UNNAMED, ProfileEntry
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim import RngStream
from repro.sim.events import EventLoop


class TestProfileEntry:
    def test_observe_accumulates(self):
        e = ProfileEntry("pacer.pump")
        e.observe(2e-6)
        e.observe(4e-6)
        assert e.count == 2
        assert e.total_s == pytest.approx(6e-6)
        assert e.max_s == pytest.approx(4e-6)
        assert e.mean_s == pytest.approx(3e-6)

    def test_bucket_assignment(self):
        e = ProfileEntry("x")
        e.observe(5e-7)   # <= 1us
        e.observe(5e-4)   # <= 1ms
        e.observe(1.0)    # overflow
        assert e.buckets[0] == 1
        assert e.buckets[3] == 1
        assert e.buckets[-1] == 1
        assert sum(e.buckets) == e.count
        assert len(e.buckets) == len(PROFILE_BUCKETS_S) + 1

    def test_component_prefix(self):
        assert ProfileEntry("pacer.pump").component == "pacer"
        assert ProfileEntry("tick").component == "tick"


class TestLoopProfilerOnLoop:
    def test_counts_every_executed_event(self):
        loop = EventLoop()
        profiler = loop.set_profiler(LoopProfiler())
        for i in range(5):
            loop.call_later(0.01 * i, lambda: None, name="a.tick")
        loop.call_later(0.1, lambda: None, name="b.once")
        cancelled = loop.call_later(0.2, lambda: None, name="never")
        cancelled.cancel()
        loop.drain()
        assert profiler.total_events == loop.processed == 6
        assert profiler.counts() == {"a.tick": 5, "b.once": 1}

    def test_unnamed_events_group_under_placeholder(self):
        loop = EventLoop()
        profiler = loop.set_profiler(LoopProfiler())
        loop.call_later(0.0, lambda: None)
        loop.drain()
        assert profiler.counts() == {UNNAMED: 1}

    def test_detach_restores_unprofiled_path(self):
        loop = EventLoop()
        profiler = loop.set_profiler(LoopProfiler())
        assert loop.set_profiler(None) is None
        loop.call_later(0.0, lambda: None, name="x")
        loop.drain()
        assert profiler.total_events == 0
        assert loop.profiler is None

    def test_step_and_run_also_profile(self):
        loop = EventLoop()
        profiler = loop.set_profiler(LoopProfiler())
        loop.call_at(0.1, lambda: None, name="one")
        loop.call_at(0.2, lambda: None, name="two")
        assert loop.step()
        loop.run(until=1.0)
        assert profiler.counts() == {"one": 1, "two": 1}


class TestSessionProfile:
    def run_profiled(self, duration=2.0, seed=5, **config):
        trace = make_wifi_trace(RngStream(11, "trace"),
                                duration=duration + 10)
        session = build_session("ace", trace, SessionConfig(
            duration=duration, seed=seed, **config))
        profiler = session.loop.set_profiler(LoopProfiler())
        session.run()
        return session, profiler

    def test_counts_deterministic_for_fixed_seed(self):
        _, a = self.run_profiled()
        _, b = self.run_profiled()
        assert a.counts() == b.counts()
        assert a.total_events == b.total_events > 0

    def test_observes_all_loop_events(self):
        session, profiler = self.run_profiled()
        assert profiler.total_events == session.loop.processed
        components = set(profiler.component_totals())
        # A closed-form path has no link.serve event by design: the
        # drop-tail departure is computed at enqueue (DESIGN §3).
        assert {"pacer", "sender", "path"} <= components
        assert "link" not in components

    def test_jittered_session_counts_one_departure_hop_per_packet(self):
        # Jitter is drawn at the departure instant, on a hop of the
        # path's own; the link stays closed-form (DESIGN §3b).
        session, profiler = self.run_profiled(delay_jitter_std=0.002)
        assert profiler.total_events == session.loop.processed
        counts = profiler.counts()
        components = set(profiler.component_totals())
        assert {"pacer", "sender", "path"} <= components
        assert "link" not in components
        assert counts["path.departure"] == counts["path.to-receiver"] > 0

    def test_render_table(self):
        _, profiler = self.run_profiled()
        text = profiler.render(top=5)
        assert "event-loop profile:" in text
        assert "components:" in text
        hottest = profiler.by_total_time()[0]
        assert hottest.name in text

    def test_by_total_time_orders_descending(self):
        _, profiler = self.run_profiled()
        totals = [e.total_s for e in profiler.by_total_time()]
        assert totals == sorted(totals, reverse=True)
