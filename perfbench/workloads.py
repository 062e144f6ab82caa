"""The eight workloads: inputs from a seed, one repetition, its digest.

A workload is three steps the harness drives separately so that only the
middle one is timed:

* ``inputs(seed, scale)`` builds traces and configs — the program under
  test only ever sees these, never the seed's provenance. It returns a
  list of *variants*: a run's repetitions cycle through them, so that a
  run samples several session seeds (see :data:`VARIANTS`);
* ``run(variant)`` is one repetition: construct the session (or grid, or
  fleet), run it, and compute the headline statistics a user reads;
* ``digest(raw, variant)`` hashes the outputs and pulls the counters
  out, untimed.

Simulated durations are fixed per workload (they do not follow
``--seconds``; more seconds buy more repetitions), so a fingerprint
depends on the seed and the scale alone. Only ``live_fleet``, whose
sessions are paced by the wall clock, sizes its media time from the
budget it is given.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

#: the six ``RunResult`` statistics the engines are held to.
HEADLINE = ("p50_latency", "p95_latency", "mean_vmaf", "loss_rate",
            "stall_rate", "received_fps")

#: relative tolerance of the batch engine's contract (``REL_TOL`` in the
#: repo's differential tests).
REL_TOL = 1e-6

#: scale of ``--quick`` (durations halved; numbers never recorded).
QUICK_SCALE = 0.5

#: session seeds one run of a single-session or arena workload spreads
#: its repetitions over (variant ``j`` runs seed ``S + 101 * j``). How
#: much work a session does depends on its seed — packets sent differ by
#: +-8 % — so a run that sampled one seed would move with ``--seed``,
#: and the benchmark's spread is taken across seeds.
VARIANTS = 12
VARIANT_STRIDE = 101

#: workers for the parallel grid phase and sessions in the live fleet.
JOBS_N = min(os.cpu_count() or 1, 2)

#: where grid repetitions keep their throwaway caches.
TMP_ROOT = Path(__file__).resolve().parent / "out" / "tmp"


@dataclass
class Rep:
    """What one repetition did, as counts and hashes."""

    packets: int
    frames: int
    sim_seconds: float
    attempted: int
    failed: int = 0
    #: ``loop.processed`` (0 where the workload has no single loop).
    events: int = 0
    #: sha256 over every timing-sensitive output; None for live runs,
    #: which are not deterministic.
    fingerprint: Optional[str] = None
    #: headline statistics (single-session sim workloads only).
    stats: Optional[dict] = None
    #: counters for the per-layer extras, and failure notes.
    info: dict = field(default_factory=dict)


def fingerprint(metrics) -> str:
    """Hash every timing-sensitive field of a session's metrics.

    Same fields and formats as ``tests/test_sim_regression.fingerprint``,
    so a value printed here can be compared with one printed there.
    """
    h = hashlib.sha256()
    h.update(repr(metrics.packets_sent).encode())
    h.update(repr(metrics.packets_lost).encode())
    h.update(repr(metrics.packets_retransmitted).encode())
    for f in metrics.frames:
        h.update(("%d %.9f %d %.9f %d" % (
            f.frame_id, f.capture_time, f.size_bytes,
            f.quality_vmaf, f.complexity_level)).encode())
        for value in (f.encode_time, f.pacer_enqueue, f.pacer_last_exit,
                      f.complete_at, f.displayed_at):
            h.update(b"?" if value is None else ("%.9f" % value).encode())
    for t, size in metrics.send_events:
        h.update(("%.9f %d" % (t, size)).encode())
    for t, bwe in metrics.bwe_history:
        h.update(("%.9f %.6f" % (t, bwe)).encode())
    return h.hexdigest()


def headline(result) -> dict:
    """The six gated statistics of a ``RunResult`` (NaN as None)."""
    out = {}
    for name in HEADLINE:
        value = getattr(result, name)
        out[name] = None if math.isnan(value) else value
    return out


def divergence(a: dict, b: dict) -> float:
    """Worst relative difference between two headline dicts."""
    worst = 0.0
    for name in HEADLINE:
        x, y = a.get(name), b.get(name)
        if x is None and y is None:
            continue
        if x is None or y is None:
            return math.inf
        scale = max(abs(x), abs(y))
        if scale > 0.0:
            worst = max(worst, abs(x - y) / scale)
    return worst


# ----------------------------------------------------------------------
# single-session simulator workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionWorkload:
    """One ``build_session`` run on a requested engine."""

    name: str
    #: engine the workload asks for ("reference" or "batch").
    engine: str
    #: simulated seconds of one repetition at scale 1.
    duration: float
    #: ``(seed, duration) -> (trace, SessionConfig)``
    make: Callable[[int, float], tuple]
    #: attach telemetry + SLO watchdog + series recorder.
    observe: bool = False
    kind = "sim"
    phases = ()

    def inputs(self, seed: int, scale: float = 1.0) -> list:
        duration = self.duration * scale
        variants = []
        for j in range(VARIANTS):
            sub = seed + VARIANT_STRIDE * j
            trace, config = self.make(sub, duration)
            variants.append({"trace": trace, "config": config, "seed": sub})
        return variants

    def warmup(self, variants: list) -> str:
        """A one-second session of the same kind; returns its hash, which
        must be the same in every child of a run."""
        trace, config = self.make(variants[0]["seed"], 1.0)
        _s, metrics, _r, _b = self._run(trace, config, self.engine,
                                        self.observe)
        return fingerprint(metrics)

    def run(self, inputs: dict, before_run: Optional[Callable] = None):
        return self._run(inputs["trace"], inputs["config"], self.engine,
                         self.observe, before_run)

    def twin(self, inputs: dict, engine: str):
        """The same inputs, unobserved, on ``engine`` (oracle runs)."""
        return self._run(inputs["trace"], inputs["config"], engine, False)

    def _run(self, trace, config, engine: str, observe: bool,
             before_run: Optional[Callable] = None):
        from repro.analysis.results import RunResult
        from repro.rtc import build_session

        t0 = perf_counter()
        session = build_session("ace", trace, config, engine=engine)
        if observe:
            telemetry = session.enable_telemetry()
            telemetry.attach_watchdog(pacing_p99_s=0.25)
            telemetry.attach_series()
        build_s = perf_counter() - t0
        if before_run is not None:
            before_run(session)
        metrics = session.run()
        result = RunResult.from_metrics(metrics, baseline="ace",
                                        trace=trace.name, seed=config.seed)
        return session, metrics, result, build_s

    def digest(self, raw, inputs: dict) -> Rep:
        session, metrics, result, build_s = raw
        pacer_stats = session.sender.pacer.stats
        backlog = max((b for _t, b in pacer_stats.occupancy_samples),
                      default=0)
        return Rep(
            packets=metrics.packets_sent,
            frames=len(metrics.frames),
            sim_seconds=metrics.duration,
            attempted=1,
            events=session.loop.processed,
            fingerprint=fingerprint(metrics),
            stats=headline(result),
            info={
                "fallback_reason": getattr(session.engine,
                                           "fallback_reason", None),
                "build_s": build_s,
                "link_drops": session.path.link.stats.dropped_packets,
                "backlog_max_bytes": backlog,
                "retransmitted": metrics.packets_retransmitted,
            })


def _const(mbps: float, duration: float, name: Optional[str] = None):
    from repro.net.trace import BandwidthTrace
    return BandwidthTrace.constant(mbps * 1e6, duration=duration + 10.0,
                                   name=name or f"const:{mbps:g}")


def _make_packet(seed: int, duration: float):
    from repro.rtc import SessionConfig
    return _const(100, duration), SessionConfig(
        duration=duration, seed=seed, initial_bwe_bps=50e6,
        max_bwe_bps=100e6)


def _make_decision(seed: int, duration: float):
    from repro.rtc import SessionConfig
    return _const(2.5, duration), SessionConfig(
        duration=duration, seed=seed, fps=60, initial_bwe_bps=2e6,
        max_bwe_bps=3e6)


def _make_impaired(seed: int, duration: float):
    from repro.net import make_wifi_trace
    from repro.rtc import SessionConfig
    from repro.sim import RngStream
    trace = make_wifi_trace(RngStream(11, "trace"), duration=duration + 10.0)
    # Starts at 20 Mbps: from the default 4 Mbps the whole repetition
    # is GCC's ramp, whose length (and so the packet count, 6 k-19 k)
    # is mostly a property of the seed.
    return trace, SessionConfig(
        duration=duration, seed=seed + 2, random_loss_rate=0.01,
        delay_jitter_std=0.002, cross_traffic=True, audio=True,
        initial_bwe_bps=20e6)


def _make_observed(seed: int, duration: float):
    from repro.rtc import SessionConfig
    # Capped below the link so the traffic, and with it the number of
    # obs calls, is steady; uncapped, sessions differ by +-25 % packets.
    return _const(20, duration), SessionConfig(
        duration=duration, seed=seed + 2, initial_bwe_bps=8e6,
        max_bwe_bps=12e6)


# ----------------------------------------------------------------------
# arena
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArenaWorkload:
    """Four flows, three pacer types, one Confucius router."""

    name: str = "arena_mix"
    duration: float = 5.0
    engine = "reference"
    kind = "arena"
    phases = ()

    def inputs(self, seed: int, scale: float = 1.0) -> list:
        from repro.rtc import SessionConfig
        duration = self.duration * scale
        return [{"trace": _const(40, duration),
                 "config": SessionConfig(
                     duration=duration, seed=seed + VARIANT_STRIDE * j,
                     initial_bwe_bps=6e6)}
                for j in range(VARIANTS)]

    def _session(self, trace, config, duration: float):
        from repro.arena import ArenaFlowSpec, ArenaSession
        # Joins at 0, 0, 1/6 and 1/3 of the run: the 0/0/5/10 s of a
        # 30-second arena, kept in proportion.
        flows = [
            ArenaFlowSpec("ace", flow_id=1),
            ArenaFlowSpec("webrtc-star", flow_id=2),
            ArenaFlowSpec("always-burst", flow_id=3, start=duration / 6),
            ArenaFlowSpec("ace", flow_id=4, start=duration / 3),
        ]
        return ArenaSession(flows, trace, config, discipline="confucius")

    def warmup(self, variants: list) -> str:
        config = replace(variants[0]["config"], duration=1.0)
        metrics = self._session(variants[0]["trace"], config, 1.0).run()
        metrics.fairness(0.5)
        return "".join(fingerprint(metrics.flows[fid])
                       for fid in sorted(metrics.flows))

    def run(self, inputs: dict, before_run: Optional[Callable] = None):
        duration = inputs["config"].duration
        session = self._session(inputs["trace"], inputs["config"], duration)
        if before_run is not None:
            before_run(session)
        metrics = session.run()
        report = metrics.fairness(window_s=duration / 3)
        return session, metrics, report

    def digest(self, raw, inputs: dict) -> Rep:
        session, metrics, report = raw
        h = hashlib.sha256()
        failed = 0
        for fid in sorted(metrics.flows):
            flow = metrics.flows[fid]
            h.update(fingerprint(flow).encode())
            if flow.packets_sent == 0:
                failed += 1
        h.update(("%.9f" % report.jain_throughput).encode())
        routers = metrics.router_stats
        return Rep(
            packets=sum(m.packets_sent for m in metrics.flows.values()),
            frames=sum(len(m.frames) for m in metrics.flows.values()),
            sim_seconds=metrics.duration,
            attempted=len(metrics.flows),
            failed=failed,
            events=session.loop.processed,
            fingerprint=h.hexdigest(),
            info={
                "link_drops": sum(r["dropped_packets"] for r in routers),
                "aqm_drops": sum(r.get("aqm_drops", 0) + r.get("evictions", 0)
                                 for r in routers),
                "retransmitted": sum(m.packets_retransmitted
                                     for m in metrics.flows.values()),
                "backlog_max_bytes": max(
                    (b for s in session.senders.values()
                     for _t, b in s.pacer.stats.occupancy_samples),
                    default=0),
            })


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridWorkload:
    """Cold serial grid, eight warm passes, cold parallel grid."""

    name: str = "grid_sweep"
    duration: float = 2.0
    engine = "reference"
    kind = "grid"
    #: the harness calibrates each phase on its own.
    phases = ("cold_j1", "warm", "cold_jn")
    baselines = ("ace", "webrtc-star", "always-burst", "salsify")
    warm_passes = 8

    def inputs(self, seed: int, scale: float = 1.0) -> list:
        duration = self.duration * scale
        return [{"duration": duration, "seeds": (seed, seed + 8),
                 "traces": [_const(15, duration, "const15"),
                            _const(25, duration, "const25")]}]

    def _grid(self, inputs: dict, baselines=None, **kwargs) -> dict:
        from repro.bench.parallel import run_grid
        return run_grid(list(baselines or self.baselines), inputs["traces"],
                        seeds=inputs["seeds"], duration=inputs["duration"],
                        **kwargs)

    def warmup(self, variants: list) -> str:
        from repro.analysis.cache import ResultCache
        from repro.analysis.results import canonical_metrics_json
        TMP_ROOT.mkdir(parents=True, exist_ok=True)
        small = dict(variants[0], duration=1.0,
                     seeds=variants[0]["seeds"][:1])
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            cache = ResultCache(tmp, enabled=True)
            self._grid(small, baselines=("ace",), jobs=1, cache=cache)
            warm = self._grid(small, baselines=("ace",), jobs=1, cache=cache)
        return hashlib.sha256("".join(
            canonical_metrics_json(warm[key])
            for key in sorted(warm, key=repr)).encode()).hexdigest()

    def run(self, inputs: dict, pause: Callable[[], None] = lambda: None):
        from repro.analysis.cache import ResultCache
        from repro.bench.parallel import ParallelRunner
        TMP_ROOT.mkdir(parents=True, exist_ok=True)
        cache_a = ResultCache(tempfile.mkdtemp(dir=TMP_ROOT), enabled=True)
        cold = self._grid(inputs, jobs=1, cache=cache_a)
        pause()
        runner = ParallelRunner(jobs=1, cache=cache_a)
        warm = cold
        for _ in range(self.warm_passes):
            warm = self._grid(inputs, runner=runner)
        pause()
        cache_c = ResultCache(tempfile.mkdtemp(dir=TMP_ROOT), enabled=True)
        parallel = self._grid(inputs, jobs=JOBS_N, cache=cache_c)
        return (cold, warm, parallel), (cache_a, cache_c)

    def digest(self, raw, inputs: dict) -> Rep:
        from repro.analysis.results import canonical_metrics_json
        (cold, warm, parallel), (cache_a, cache_c) = raw
        cells = len(cold)
        blobs = {key: canonical_metrics_json(m) for key, m in cold.items()}
        h = hashlib.sha256()
        for key in sorted(blobs, key=repr):
            h.update(repr(key).encode())
            h.update(blobs[key].encode())
        failed = 0
        notes = []
        for label, grid in (("warm", warm), ("parallel", parallel)):
            bad = sum(1 for key in blobs
                      if key not in grid
                      or canonical_metrics_json(grid[key]) != blobs[key])
            if bad:
                notes.append(f"{bad} {label} cells differ from the cold run")
                failed += bad * (self.warm_passes if label == "warm" else 1)
        want_hits = cells * self.warm_passes
        if (cache_a.hits, cache_a.misses) != (want_hits, cells):
            notes.append(f"cache saw {cache_a.hits} hits/{cache_a.misses} "
                         f"misses, expected {want_hits}/{cells}")
            failed = cells * (self.warm_passes + 2)
        failed += sum(1 for m in cold.values() if m.packets_sent == 0)
        stored = sum(p.stat().st_size
                     for p in Path(cache_a.cache_dir).glob("*.json"))
        for cache in (cache_a, cache_c):
            shutil.rmtree(cache.cache_dir, ignore_errors=True)
        return Rep(
            # Cold cells are simulated twice (serial, then parallel).
            packets=2 * sum(m.packets_sent for m in cold.values()),
            frames=2 * sum(len(m.frames) for m in cold.values()),
            sim_seconds=2 * cells * inputs["duration"],
            attempted=cells * (self.warm_passes + 2),
            failed=min(failed, cells * (self.warm_passes + 2)),
            fingerprint=h.hexdigest(),
            info={
                "cells": cells, "warm_cells": cells * self.warm_passes,
                "notes": notes,
                "cache_hits": cache_a.hits + cache_c.hits,
                "cache_lookups": (cache_a.hits + cache_a.misses
                                  + cache_c.hits + cache_c.misses),
                "bytes_per_cell": stored / cells if cells else 0.0,
            })


# ----------------------------------------------------------------------
# live fleet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveWorkload:
    """``run_load`` over UDP on the host's loopback interface."""

    name: str = "live_fleet"
    drain: float = 0.5
    engine = None
    kind = "live"
    phases = ()
    mix = ("ace", "webrtc-star")

    def media_for(self, budget_s: float) -> float:
        """Media seconds per session such that two repetitions (each
        with its drain, teardown and kernel run) fit a child's budget.
        Two short sessions per child beat one long one: the host's
        noise per repetition does not shrink with its length."""
        return budget_s / 2.0 - self.drain - 0.4

    def inputs(self, seed: int, scale: float = 1.0,
               media_s: float = 3.0) -> list:
        return [{"seed": seed, "media_s": max(1.0, media_s * scale)}]

    def config(self, inputs: dict, media_s: Optional[float] = None,
               mix=None, sessions: Optional[int] = None,
               drain: Optional[float] = None):
        from repro.live import LoadConfig
        return LoadConfig(
            sessions=JOBS_N if sessions is None else sessions,
            mix=tuple(mix or self.mix),
            duration=inputs["media_s"] if media_s is None else media_s,
            drain=self.drain if drain is None else drain,
            seed=inputs["seed"], bottleneck_mbps=20,
            # From the default 4 Mbps a few seconds of media are all
            # ramp, and how far it gets is the seed's doing.
            initial_bwe_bps=12e6, heartbeat_interval=1.0)

    def warmup(self, variants: list) -> None:
        self.run(variants[0], self.config(variants[0], media_s=0.5,
                                          drain=0.2))

    def run(self, inputs: dict, config=None):
        from repro.live import run_load
        return run_load(config or self.config(inputs),
                        session_factory=_unobserved_live_session)

    def digest(self, raw, inputs: dict) -> Rep:
        records = raw.records
        failed = 0
        notes = []
        packets = frames = 0
        media = 0.0
        clocks = {}
        ipg_err_ms: list = []
        for rec in records:
            sent = rec.metrics.packets_sent if rec.metrics is not None else 0
            if rec.status != "completed" or sent == 0:
                failed += 1
                notes.append(f"{rec.spec.label}: {rec.status}, {sent} packets"
                             + (f" ({rec.error})" if rec.error else ""))
                continue
            packets += sent
            frames += len(rec.metrics.frames)
            media += rec.metrics.duration
            pacer = type(rec.session.sender.pacer).__name__
            clocks[str(id(rec.session.clock))] = _PACER_KINDS.get(pacer, pacer)
            ipg_err_ms.extend(_ipg_errors_ms(rec.metrics,
                                             rec.spec.config.fps))
        ipg_err_ms.sort()
        return Rep(packets=packets, frames=frames, sim_seconds=media,
                   attempted=len(records), failed=failed,
                   info={"notes": notes, "transport": "loopback",
                         "clocks": clocks,
                         "ipg_err_p50_ms": (ipg_err_ms[len(ipg_err_ms) // 2]
                                            if ipg_err_ms else 0.0),
                         "retransmitted": sum(
                             r.metrics.packets_retransmitted
                             for r in records if r.metrics is not None)})


_PACER_KINDS = {"TokenBucketPacer": "token", "LeakyBucketPacer": "leaky",
                "BurstPacer": "burst"}


def _ipg_errors_ms(metrics, fps: float) -> list:
    """|on-wire gap - size / estimated rate| per packet pair, in ms.

    Pairs further apart than half a frame interval are frame boundaries,
    not pacing, and are left out. The rate is the congestion
    controller's estimate in force when the packet left.
    """
    errors = []
    history = metrics.bwe_history
    cursor, rate, previous = 0, None, None
    for when, size in metrics.send_events:
        while cursor < len(history) and history[cursor][0] <= when:
            rate = history[cursor][1]
            cursor += 1
        if previous is not None and rate:
            gap = when - previous
            if gap < 0.5 / fps:
                errors.append(abs(gap - size * 8.0 / rate) * 1e3)
        previous = when
    return errors


def _unobserved_live_session(spec):
    """``run_load``'s default factory, minus per-session telemetry.

    The load generator switches telemetry on for every session; this
    workload measures the stack, and ``observed`` measures ``obs``, so
    that a change to one shows on one workload.
    """
    from repro.live import build_live_session
    return build_live_session(spec.baseline,
                              replace(spec.config, telemetry=False),
                              trace=spec.trace, category=spec.category)


WORKLOADS: dict[str, Any] = {w.name: w for w in (
    SessionWorkload("ref_packet", "reference", 4.0, _make_packet),
    SessionWorkload("batch_packet", "batch", 16.0, _make_packet),
    SessionWorkload("ref_decision", "reference", 50.0, _make_decision),
    SessionWorkload("impaired_fallback", "batch", 6.0, _make_impaired),
    ArenaWorkload(),
    SessionWorkload("observed", "batch", 18.0, _make_observed, observe=True),
    GridWorkload(),
    LiveWorkload(),
)}
