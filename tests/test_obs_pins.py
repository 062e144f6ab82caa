"""Byte pins of every telemetry export on fixed-seed sessions.

Telemetry is a pure observer with byte-stable exports, so a change to
how ``repro.obs`` computes them (ring buffers, bulk feeds, shared reads)
must leave each one identical. The sha256 digests below were taken
before the telemetry tick was optimised; ``python tests/test_obs_pins.py``
prints the current tree's digests in the same layout.

Cases: the ``observed`` benchmark workload's configuration (ACE,
const 20 Mbps, BWE capped at 12 Mbps, telemetry + SLO watchdog + series
recorder) on both engines; a lossy, jittered session with audio whose
tight pacing bound makes the watchdog fire; and a 60 fps
low-rate session in flight-window mode (no event log), where every
batch of rows is small.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.net.trace import BandwidthTrace
from repro.obs import BurstAnalyzer, Telemetry, prometheus_snapshot
from repro.obs.burst import WINDOW
from repro.obs.quantiles import SampleWindow
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig

#: name -> (engine, link Mbps, SLO pacing p99 bound, keep the event
#: log, SessionConfig fields)
CASES = {
    "observed-batch": ("batch", 20, 0.25, True, dict(
        duration=8.0, seed=5, initial_bwe_bps=8e6, max_bwe_bps=12e6)),
    "observed-reference": ("reference", 20, 0.25, True, dict(
        duration=4.0, seed=5, initial_bwe_bps=8e6, max_bwe_bps=12e6)),
    "impaired-batch": ("batch", 20, 0.005, True, dict(
        duration=4.0, seed=104, random_loss_rate=0.01,
        delay_jitter_std=0.002, audio=True, initial_bwe_bps=20e6)),
    "decision-ring": ("reference", 2.5, 0.25, False, dict(
        duration=4.0, seed=3, fps=60, initial_bwe_bps=2e6,
        max_bwe_bps=3e6)),
}

PINS = {
    "observed-batch": {
        "events": ("6f519667860295f0e659ba34f9ae749c"
                   "4e77aeb5f453e96a0849a1d3808efc03"),
        "flight": ("3d2f7c153b2b6875b1af90f9bfd8fd0c"
                   "71c110d2d638a35502dc0ee043772743"),
        "series": ("ce00d5bb984575e1401bd3a25014a071"
                   "f2ecf397ac5bbf8dfd6ca06f331272c3"),
        "prometheus": ("8ffc6023a6fd1617c577e53adb92081e"
                       "8cd234aaf32a4879fc3e3a58bc421476"),
        "burst": ("96c1316a276eba62f4245c020ada9868"
                  "44c2b955236ada63e6e588d7fa343d59"),
        "alerts": ("4f53cda18c2baa0c0354bb5f9a3ecbe5"
                   "ed12ab4d8e11ba873c2f11161202b945"),
    },
    "observed-reference": {
        "events": ("111d46b0d9a07202a4226d7d19d01ed9"
                   "a5ec3110d32ca67c85f9d5abe44693a3"),
        "flight": ("9f85ae4873d143db5f7adff236934ff6"
                   "81321e0aa3c6734821add636920592d7"),
        "series": ("4e88153233fcdd10b2cd8a537c732ecc"
                   "9fc84317d6e4994870d54cccd62f5a4b"),
        "prometheus": ("4e2bfedccd83f4ed622d5cfeda581d02"
                       "d3f281e89a234703497c75a9b3108439"),
        "burst": ("1adc6e9c839bcb969bef16a15bec3047"
                  "ceb9c06f01021880b71360b4ba438672"),
        "alerts": ("4f53cda18c2baa0c0354bb5f9a3ecbe5"
                   "ed12ab4d8e11ba873c2f11161202b945"),
    },
    "impaired-batch": {
        "events": ("55d7dd5465027ba79a209d881d2fcc81"
                   "c7ff79fa8910578b558993e2717be477"),
        "flight": ("40e6b749620e65b5e750d04b125fddd4"
                   "6ffaaadacf156629938f92ecc7f3e924"),
        "series": ("fa3493ad9c771c020b83f7de68bcfd04"
                   "bdd4404ebaa4338c78ce5903d02307fe"),
        "prometheus": ("15a5de39ee2822587b1d129f4f5b3353"
                       "3b8624368732f246ed5237ed6259a905"),
        "burst": ("872eda81af45ca8c78a4e9b9561c2db9"
                  "62687dcd2bc7b7b93dd91e4bfebf16b9"),
        "alerts": ("63914af23348d96308a62e15820a1703"
                   "3473dfb6c83a4f96d244b2e23a84a873"),
    },
    "decision-ring": {
        "events": ("e3b0c44298fc1c149afbf4c8996fb924"
                   "27ae41e4649b934ca495991b7852b855"),
        "flight": ("37e9806ed7c8dab62875addf49d17575"
                   "c7900abf48bf0955104d76e0baa7e657"),
        "series": ("a484302edd85fd0a3f701d11540c9231"
                   "19c79e53c9b73ee214a14f8ce89493e2"),
        "prometheus": ("5da4fefb66841d207a113a049d4596e3"
                       "67152319e8c7ac22537f02d104f61195"),
        "burst": ("73639d37dc142daef602dd1bf53e9309"
                  "420992cf870c82aa66e5eae410881747"),
        "alerts": ("4f53cda18c2baa0c0354bb5f9a3ecbe5"
                   "ed12ab4d8e11ba873c2f11161202b945"),
    },
}


def burst_digest(tel: Telemetry, wire_t: np.ndarray) -> dict:
    """The burst analyzer's state as the pinned digest lays it out: its
    counters and mean train, and the nearest-rank p50/p99 (ms) of the
    last :data:`WINDOW` wire gaps and of its pacing window."""
    registry, trains = tel.registry, tel.registry.histograms[
        "burst.train_packets"]
    gaps = SampleWindow(WINDOW)
    gaps.extend(np.diff(wire_t))
    ms = [None if v is None else v * 1e3 for v in
          gaps.percentiles((50.0, 99.0)) + tel.burst.pacing_percentiles()]
    return {"packets": int(registry.counters["burst.packets"].value),
            "trains": int(registry.counters["burst.trains"].value),
            "mean_train_packets": (trains.sum / trains.count
                                   if trains.count else None),
            "ipg_p50_ms": ms[0], "ipg_p99_ms": ms[1],
            "pacing_p50_ms": ms[2], "pacing_p99_ms": ms[3]}


def exports(name: str) -> dict:
    """The six exports of one case, as text."""
    engine, mbps, slo_s, keep, fields = CASES[name]
    trace = BandwidthTrace.constant(mbps * 1e6,
                                    duration=fields["duration"] + 10.0)
    session = build_session("ace", trace, SessionConfig(**fields),
                            engine=engine)
    tel = session.enable_telemetry(Telemetry(keep_events=keep))
    watchdog = tel.attach_watchdog(pacing_p99_s=slo_s)
    series = tel.attach_series()
    # the wire times the analyzer consumes, batch by batch
    wire_t, on_rows = [], BurstAnalyzer.on_rows

    def recording(analyzer, t, sizes, pacing_delays):
        wire_t.append(t.copy())
        on_rows(analyzer, t, sizes, pacing_delays)

    BurstAnalyzer.on_rows = recording
    try:
        session.run()
        burst = tel.burst
        return {
            "events": "\n".join(json.dumps(r.to_json_obj(),
                                           separators=(",", ":"))
                                for r in tel.events),
            "flight": tel.flight_dump(),
            "series": series.frame().to_json(),
            "prometheus": prometheus_snapshot(tel.registry),
            "burst": json.dumps([burst_digest(tel, np.concatenate(wire_t)),
                                 burst.recent_pacing().tolist()]),
            "alerts": json.dumps(list(watchdog.alerts)),
        }
    finally:
        BurstAnalyzer.on_rows = on_rows


def digests(name: str) -> dict:
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in exports(name).items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exports_match_their_pins(name):
    assert digests(name) == PINS[name]


if __name__ == "__main__":
    print(json.dumps({name: digests(name) for name in CASES}, indent=4))
