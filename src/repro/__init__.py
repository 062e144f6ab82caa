"""repro — reproduction of ACE: Sending Burstiness Control for
High-Quality Real-time Communication (SIGCOMM 2025).

Public API tour:

* ``repro.core`` — the paper's contribution: ACE-N (burstiness-adaptive
  token-bucket pacing) and ACE-C (complexity-adaptive encoding).
* ``repro.rtc`` — the end-to-end pipeline and the baseline registry;
  ``build_session("ace", trace)`` gives a runnable experiment.
* ``repro.net`` — trace-driven network emulation (Mahimahi-like).
* ``repro.video`` — content sources, codec models, rate control, quality.
* ``repro.transport`` — pacers, congestion control, feedback, receiver.
* ``repro.bench`` — workloads and sweep helpers shared by benchmarks/.
* ``repro.observe`` — what a run watches: ``Observe``, ``attach``, ``harvest``.

Quickstart::

    from repro.net import make_wifi_trace
    from repro.rtc import SessionConfig, build_session
    from repro.sim import RngStream

    trace = make_wifi_trace(RngStream(1, "trace"))
    session = build_session("ace", trace, SessionConfig(duration=15.0))
    metrics = session.run()
    print(metrics.p95_latency(), metrics.mean_vmaf())
"""

__version__ = "1.0.0"

from repro.rtc import SessionConfig, build_session, list_baselines

__all__ = ["SessionConfig", "build_session", "list_baselines", "__version__"]
