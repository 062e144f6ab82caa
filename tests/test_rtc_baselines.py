"""Tests for the baseline registry and session builder."""

from dataclasses import replace

import pytest

from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import (BASELINES, CHOICES, build_session, get_spec,
                                 list_baselines, resolve_spec)
from repro.rtc.session import SessionConfig
from repro.transport.cc.bbr import BbrController
from repro.transport.cc.copa import CopaController
from repro.transport.cc.delivery_rate import DeliveryRateController
from repro.transport.cc.gcc import GccController
from repro.transport.pacer.burst import BurstPacer
from repro.transport.pacer.leaky_bucket import LeakyBucketPacer
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer
from repro.video.codec.rate_control import AbrVbvRateControl, CbrRateControl


def short_session(name, **kwargs):
    trace = BandwidthTrace.constant(20e6, duration=10.0)
    return build_session(name, trace, SessionConfig(duration=2.0), **kwargs)


def test_registry_covers_paper_baselines():
    for required in ("webrtc", "webrtc-b", "webrtc-star", "cbr", "salsify",
                     "ace", "ace-n", "ace-c", "always-pace", "always-burst",
                     "google-meet"):
        assert required in BASELINES


def test_unknown_baseline_raises():
    with pytest.raises(KeyError):
        get_spec("quic-magic")


def test_list_is_sorted():
    assert list_baselines() == sorted(list_baselines())


def test_ace_session_wiring():
    s = short_session("ace")
    assert isinstance(s.sender.pacer, TokenBucketPacer)
    assert s.sender.ace_n is not None
    assert s.sender.ace_c is not None
    assert isinstance(s.flow.cc, GccController)
    assert s.flow.cc.trendline.time_windowed


def test_webrtc_star_wiring():
    s = short_session("webrtc-star")
    assert isinstance(s.sender.pacer, LeakyBucketPacer)
    assert s.sender.pacer.pacing_factor == 1.0
    assert s.sender.ace_n is None and s.sender.ace_c is None
    assert s.flow.codec.config.name == "x264"


def test_webrtc_b_pacing_factor():
    s = short_session("webrtc-b")
    assert s.sender.pacer.pacing_factor == 2.5
    assert s.flow.codec.config.name == "vp8"


def test_salsify_wiring():
    s = short_session("salsify")
    assert isinstance(s.sender.pacer, BurstPacer)
    assert s.sender.salsify
    assert isinstance(s.flow.cc, DeliveryRateController)


def test_google_meet_bitrate_cap():
    s = short_session("google-meet")
    assert s.sender.max_target_bitrate_bps == 4_000_000.0


def test_cc_override():
    s = short_session("ace", cc_override="bbr")
    assert isinstance(s.flow.cc, BbrController)


def test_custom_category():
    s = short_session("cbr", category="lecture")
    assert s.flow.source.profile.name == "lecture"


def test_ablation_specs():
    acen = short_session("ace-n")
    assert acen.sender.ace_n is not None and acen.sender.ace_c is None
    acec = short_session("ace-c")
    assert acec.sender.ace_c is not None and acec.sender.ace_n is None
    assert isinstance(acec.sender.pacer, LeakyBucketPacer)


def test_session_runs_and_cannot_rerun():
    s = short_session("webrtc-star")
    metrics = s.run()
    assert len(metrics.frames) >= 55  # ~60 frames in 2 s
    with pytest.raises(RuntimeError):
        s.run()


#: what each spec value builds (``FlowStack``).
BUILDS = {
    ("rate_control", "abr"): ("rate_control", AbrVbvRateControl),
    ("rate_control", "cbr"): ("rate_control", CbrRateControl),
    ("pacer", "leaky"): ("pacer", LeakyBucketPacer),
    ("pacer", "burst"): ("pacer", BurstPacer),
    ("pacer", "token"): ("pacer", TokenBucketPacer),
    ("cc", "gcc"): ("cc", GccController),
    ("cc", "bbr"): ("cc", BbrController),
    ("cc", "copa"): ("cc", CopaController),
    ("cc", "delivery"): ("cc", DeliveryRateController),
    ("cc", "delivery-throughput"): ("cc", DeliveryRateController),
}


def test_every_spec_choice_builds_its_component():
    """The spec's vocabulary and the flow stack's mapping agree."""
    assert set(BUILDS) == {(field, value) for field, values in CHOICES.items()
                           for value in values}
    for (field, value), (attr, cls) in BUILDS.items():
        spec = replace(get_spec("webrtc-star"), **{field: value})
        s = short_session(spec)
        assert type(getattr(s.sender, attr)) is cls, (field, value)
    throughput = short_session("always-burst").flow.cc
    assert throughput.headroom == 1.25


@pytest.mark.parametrize("overrides,named", [
    (dict(baseline="quic-magic"), "quic-magic"),
    (dict(baseline="ace", cc="nope"), "cc 'nope'"),
    (dict(baseline="ace", codec="nope"), "codec 'nope'"),
])
def test_an_unknown_component_is_refused_naming_it(overrides, named):
    with pytest.raises(ValueError, match=named):
        resolve_spec(**overrides)
    with pytest.raises(ValueError, match="rate_control 'vbr'"):
        replace(get_spec("ace"), rate_control="vbr")
