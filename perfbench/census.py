"""Two censuses, untimed: do the engines agree, and who is batch-eligible?

**Engine agreement.** Each simulated workload's inputs — at five times
the benchmark's repetition length, where divergence has had time to
show — plus constant-20 Mbps ``ace`` 30-second sessions at seeds 1-5, run
unobserved through both engines; the worst relative difference over the
six headline statistics is that input's ``sim.batch.divergence_rel``.
The engine contract is 1e-6. Where the table shows more, the fast path
is not within its contract on that input; reporting it is this file's
job, fixing it is a later issue.

**Fallback census.** For every scenario x trace x baseline cell, and
every baseline on its own, a session is built (never run) with
``engine="batch"`` and ``ineligible_reason(session)`` recorded, with a
count per reason: the ROADMAP's "which paper benches are batch-eligible"
answered from outside.
"""

from __future__ import annotations

from perfbench.spec import DEFAULT_SEED
from perfbench.workloads import (QUICK_SCALE, WORKLOADS, SessionWorkload,
                                 divergence, headline)

#: census sessions are this many times a benchmark repetition.
CENSUS_SCALE = 5.0

ARENA_REASON = "arena session (reference loop only)"


def _make_const20(seed: int, duration: float):
    from repro.net.trace import BandwidthTrace
    from repro.rtc import SessionConfig
    trace = BandwidthTrace.constant(20e6, duration=duration + 10.0,
                                    name="const:20")
    return trace, SessionConfig(duration=duration, seed=seed,
                                initial_bwe_bps=8e6)


def run_census(seed: int = DEFAULT_SEED, quick: bool = False) -> dict:
    reasons = fallback_census()
    counts: dict = {}
    for row in reasons:
        key = row["reason"] or "eligible"
        counts[key] = counts.get(key, 0) + 1
    return {
        "seed": seed,
        "engine_divergence": engine_census(seed, quick),
        "fallback_reasons": reasons,
        "fallback_counts": dict(sorted(counts.items(),
                                       key=lambda kv: (-kv[1], kv[0]))),
    }


def engine_census(seed: int, quick: bool) -> list:
    scale = QUICK_SCALE if quick else CENSUS_SCALE
    inputs = [(f"{w.name} inputs, seed {seed}", w, w.inputs(seed, scale)[0])
              for w in WORKLOADS.values() if w.kind == "sim"]
    plain = SessionWorkload("const20", "batch", 30.0, _make_const20)
    for s in range(1, 6):
        inputs.append((f"ace const:20 30 s, seed {s}", plain,
                       plain.inputs(s, QUICK_SCALE if quick else 1.0)[0]))
    rows = []
    for label, workload, built in inputs:
        stats, packets, reason = {}, {}, None
        for engine in ("reference", "batch"):
            session, metrics, result, _build = workload.twin(built, engine)
            stats[engine] = headline(result)
            packets[engine] = metrics.packets_sent
            if engine == "batch":
                reason = session.engine.fallback_reason
        rows.append({
            "input": label,
            "duration_s": built["config"].duration,
            "divergence_rel": divergence(stats["reference"], stats["batch"]),
            "packets_reference": packets["reference"],
            "packets_batch": packets["batch"],
            "fallback_reason": reason,
        })
    return rows


def fallback_census() -> list:
    """``ineligible_reason`` per scenario cell and per baseline."""
    from repro.net.trace import BandwidthTrace
    from repro.rtc import SessionConfig, build_session, list_baselines
    from repro.scenarios import get_scenario, list_scenarios
    from repro.sim.batch import ineligible_reason

    rows = []
    for name in list_scenarios():
        scenario = get_scenario(name)
        for trace_label, factory in scenario.traces:
            if scenario.arena_mix is not None:
                for discipline in scenario.disciplines:
                    rows.append({"scenario": name, "trace": trace_label,
                                 "baseline": f"{scenario.arena_mix}"
                                             f"@{discipline}",
                                 "reason": ARENA_REASON})
                continue
            trace = factory(DEFAULT_SEED)
            for baseline in scenario.baselines:
                # The config run_scenario builds for this cell.
                config = SessionConfig(
                    duration=scenario.duration, seed=DEFAULT_SEED,
                    fps=scenario.fps, initial_bwe_bps=6e6,
                    **scenario.config_overrides)
                session = build_session(baseline, trace, config,
                                        category=scenario.category,
                                        engine="batch")
                rows.append({"scenario": name, "trace": trace_label,
                             "baseline": baseline,
                             "reason": ineligible_reason(session)})
    trace = BandwidthTrace.constant(20e6, duration=40.0)
    for baseline in list_baselines():
        session = build_session(baseline, trace, SessionConfig(),
                                engine="batch")
        rows.append({"scenario": None, "trace": trace.name,
                     "baseline": baseline,
                     "reason": ineligible_reason(session)})
    return rows
