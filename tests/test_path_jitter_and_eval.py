"""Tests for delay jitter and the evaluate CLI subcommand."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.net.packet import Packet
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream


class TestDelayJitter:
    def _arrivals(self, jitter):
        loop = EventLoop()
        cfg = PathConfig(base_rtt=0.03, delay_jitter_std=jitter)
        path = NetworkPath(loop, BandwidthTrace.constant(100e6), cfg,
                           rng=RngStream(8, "jitter"))
        arrivals = []
        path.on_arrival = lambda p: arrivals.append(
            p.t_arrival - p.t_leave_pacer)

        def send_one():
            packet = Packet(size_bytes=1200)
            packet.t_leave_pacer = loop.now
            path.send(packet)

        for i in range(100):
            loop.call_at(i * 0.005, send_one)
        loop.drain()
        return np.array(arrivals)

    def test_zero_jitter_deterministic_delay(self):
        delays = self._arrivals(0.0)
        assert delays.std() < 1e-9

    def test_jitter_spreads_delays(self):
        delays = self._arrivals(0.005)
        assert delays.std() > 0.001
        # jitter only ever adds delay (abs of a normal)
        assert delays.min() >= 0.015 - 1e-9

    def test_session_runs_with_jitter(self):
        trace = BandwidthTrace.constant(15e6, duration=12.0)
        cfg = SessionConfig(duration=3.0, seed=2, delay_jitter_std=0.002,
                            initial_bwe_bps=8e6)
        metrics = build_session("ace", trace, cfg).run()
        assert len(metrics.displayed_frames()) > 60

    def test_queue_estimator_robust_to_jitter(self):
        """Standing-min filtering keeps the queue estimate near zero on
        an uncongested but jittery path."""
        trace = BandwidthTrace.constant(30e6, duration=15.0)
        cfg = SessionConfig(duration=5.0, seed=2, delay_jitter_std=0.003,
                            initial_bwe_bps=6e6)
        session = build_session("ace-n", trace, cfg)
        session.run()
        estimates = session.sender.ace_n.log.input[10:]
        assert np.median(estimates) < 30_000


class TestGridIsTheEvaluation:
    """`repro grid --run-dir` is what `repro evaluate` was: the
    comparison against a reference baseline and the results JSON."""

    def test_grid_run_dir_prints_comparison(self, tmp_path, capsys):
        rc = main(["grid", "--baselines", "cbr,always-burst",
                   "--traces", "const:15", "--seeds", "1", "--duration", "3",
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cbr" in out and "always-burst" in out
        assert "paired comparisons vs cbr" in out

    def test_grid_run_dir_writes_json(self, tmp_path, capsys):
        rc = main(["grid", "--baselines", "cbr", "--traces", "const:15",
                   "--seeds", "1", "--duration", "3",
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 0
        payload = json.loads((tmp_path / "run" / "results.json").read_text())
        assert len(payload) == 1
        assert payload[0]["baseline"] == "cbr"
        assert payload[0]["p95_latency"] > 0
