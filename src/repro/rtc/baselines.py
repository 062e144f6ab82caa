"""Baseline registry — every scheme in the paper's evaluation (§6.1).

Each baseline is a declarative :class:`BaselineSpec`; :func:`build_session`
turns one into a ready-to-run :class:`RtcSession`. The registry covers:

* ``webrtc``      — native WebRTC: VP8, ABR, leaky-bucket pacing at BWE.
* ``webrtc-b``    — strawman: fixed pacing rate of 2.5x BWE.
* ``webrtc-star`` — WebRTC + x264 ABR+VBV ("WebRTC*"; highest quality).
* ``cbr``         — WebRTC + x264 constant bitrate (lowest latency, quality loss).
* ``salsify``     — dual-version encoding, immediate send.
* ``ace``         — full ACE (ACE-C + ACE-N over a token-bucket pacer).
* ``ace-n``       — ablation: pacing control only.
* ``ace-c``       — ablation: complexity control only (fixed-rate pacing).
* ``always-pace`` / ``always-burst`` — the production baselines of Table 3.
* ``google-meet`` — conferencing profile used as the Fig. 26 anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.core.ace_c import AceCConfig
from repro.core.ace_n import AceNConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.sender import SenderConfig
from repro.rtc.session import RtcSession, SessionConfig
from repro.sim.events import EventLoop
from repro.sim.rng import SeedSequenceFactory
from repro.transport.cc.bbr import BbrController
from repro.transport.cc.copa import CopaController
from repro.transport.cc.delivery_rate import DeliveryRateController
from repro.transport.cc.gcc import GccController
from repro.transport.pacer.base import Pacer
from repro.transport.pacer.burst import BurstPacer
from repro.transport.pacer.leaky_bucket import LeakyBucketPacer
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer
from repro.video.codec.presets import codec_config
from repro.video.codec.model import CodecModel
from repro.video.codec.rate_control import (
    AbrVbvRateControl,
    CbrRateControl,
    RateControl,
)
from repro.video.source import VideoSource


@dataclass(frozen=True)
class BaselineSpec:
    """Declarative description of one baseline scheme."""

    name: str
    codec: str = "x264"
    rate_control: str = "abr"          # "abr" | "cbr"
    pacer: str = "leaky"               # "leaky" | "burst" | "token"
    pacing_factor: float = 1.0
    ace_c: bool = False
    ace_n: bool = False
    salsify: bool = False
    fec: bool = False
    cc: str = "gcc"                    # "gcc" | "bbr" | "copa" | "delivery"
    #: ACE's GCC uses a time-windowed trendline (§5.2).
    time_windowed_trendline: bool = False
    max_target_bitrate_bps: Optional[float] = None
    description: str = ""


BASELINES: dict[str, BaselineSpec] = {
    "webrtc": BaselineSpec(
        name="webrtc", codec="vp8", rate_control="abr", pacer="leaky",
        description="Native WebRTC M119: VP8 + leaky-bucket pacing at BWE."),
    "webrtc-b": BaselineSpec(
        name="webrtc-b", codec="vp8", rate_control="abr", pacer="leaky",
        pacing_factor=2.5,
        description="Strawman: fixed 2.5x pacing rate (deprecated WebRTC)."),
    "webrtc-star": BaselineSpec(
        name="webrtc-star", codec="x264", rate_control="abr", pacer="leaky",
        description="WebRTC + x264 ABR/VBV tuned for zero latency."),
    "cbr": BaselineSpec(
        name="cbr", codec="x264", rate_control="cbr", pacer="leaky",
        description="WebRTC + x264 constant bitrate."),
    "salsify": BaselineSpec(
        name="salsify", codec="vp8", rate_control="abr", pacer="burst",
        salsify=True, cc="delivery",
        description="Salsify: dual-version encode, its own delivery-rate "
                    "transport (not GCC), no pacer."),
    "ace": BaselineSpec(
        name="ace", codec="x264", rate_control="abr", pacer="token",
        ace_c=True, ace_n=True, time_windowed_trendline=True,
        description="Full ACE: complexity-adaptive encoding + adaptive bucket."),
    "ace-n": BaselineSpec(
        name="ace-n", codec="x264", rate_control="abr", pacer="token",
        ace_n=True, time_windowed_trendline=True,
        description="Ablation: ACE-N only (adaptive bucket, c0 encoding)."),
    "ace-c": BaselineSpec(
        name="ace-c", codec="x264", rate_control="abr", pacer="leaky",
        ace_c=True,
        description="Ablation: ACE-C only (fixed-rate pacing)."),
    "always-pace": BaselineSpec(
        name="always-pace", codec="x264", rate_control="abr", pacer="leaky",
        cc="delivery",
        description="Production baseline: always pace at BWE "
                    "(custom engine CCA, not GCC)."),
    "always-burst": BaselineSpec(
        name="always-burst", codec="x264", rate_control="abr", pacer="burst",
        cc="delivery-throughput",
        description="Production baseline: no pacing, burst every frame; "
                    "its engine CCA chases throughput with no delay "
                    "sensitivity (the behavior Table 3 punishes)."),
    "ace-n-prod": BaselineSpec(
        name="ace-n-prod", codec="x264", rate_control="abr", pacer="token",
        ace_n=True, cc="delivery",
        description="ACE-N on the production engine (Table 3 variant)."),
    "ace-fec": BaselineSpec(
        name="ace-fec", codec="x264", rate_control="abr", pacer="token",
        ace_c=True, ace_n=True, time_windowed_trendline=True, fec=True,
        description="ACE + adaptive XOR FEC (the paper's §8 future-work "
                    "co-design with loss recovery)."),
    "webrtc-nopacer": BaselineSpec(
        name="webrtc-nopacer", codec="x264", rate_control="abr", pacer="burst",
        description="WebRTC with pacing disabled (the Fig. 10 experiment)."),
    "google-meet": BaselineSpec(
        name="google-meet", codec="vp8", rate_control="abr", pacer="leaky",
        max_target_bitrate_bps=4_000_000.0,
        description="Conferencing profile: capped bitrate, conservative pacing."),
}


def list_baselines() -> list[str]:
    return sorted(BASELINES)


def get_spec(name: str) -> BaselineSpec:
    if name not in BASELINES:
        raise KeyError(f"unknown baseline {name!r}; choose from {list_baselines()}")
    return BASELINES[name]


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def _rate_control_factory(spec: BaselineSpec) -> Callable[[], RateControl]:
    if spec.rate_control == "abr":
        return lambda: AbrVbvRateControl()
    if spec.rate_control == "cbr":
        return lambda: CbrRateControl()
    raise ValueError(f"unknown rate control {spec.rate_control!r}")


def _pacer_factory(spec: BaselineSpec,
                   ace_n_config: Optional[AceNConfig]) -> Callable[[EventLoop, Callable], Pacer]:
    if spec.pacer == "leaky":
        return lambda loop, send: LeakyBucketPacer(loop, send,
                                                   pacing_factor=spec.pacing_factor)
    if spec.pacer == "burst":
        return lambda loop, send: BurstPacer(loop, send)
    if spec.pacer == "token":
        initial = (ace_n_config or AceNConfig()).initial_bucket_bytes
        return lambda loop, send: TokenBucketPacer(loop, send,
                                                   initial_bucket_bytes=initial)
    raise ValueError(f"unknown pacer {spec.pacer!r}")


def _cc_factory(spec: BaselineSpec, initial_bwe: float,
                max_bwe: float) -> Callable[[], object]:
    if spec.cc == "gcc":
        return lambda: GccController(
            initial_bwe_bps=initial_bwe, max_bwe_bps=max_bwe,
            time_windowed_trendline=spec.time_windowed_trendline)
    if spec.cc == "bbr":
        return lambda: BbrController(initial_bwe_bps=initial_bwe,
                                     max_bwe_bps=max_bwe)
    if spec.cc == "delivery":
        return lambda: DeliveryRateController(initial_bwe_bps=initial_bwe,
                                              max_bwe_bps=max_bwe)
    if spec.cc == "copa":
        return lambda: CopaController(initial_bwe_bps=initial_bwe,
                                      max_bwe_bps=max_bwe)
    if spec.cc == "delivery-throughput":
        # Throughput-chasing engine: larger headroom, no delay brake —
        # it fills the bottleneck queue and only yields to loss.
        return lambda: DeliveryRateController(initial_bwe_bps=initial_bwe,
                                              max_bwe_bps=max_bwe,
                                              headroom=1.25,
                                              delay_brake_s=float("inf"))
    raise ValueError(f"unknown congestion controller {spec.cc!r}")


def _codec_factory(spec: BaselineSpec) -> Callable[[SeedSequenceFactory], CodecModel]:
    def make(rngs: SeedSequenceFactory) -> CodecModel:
        return CodecModel(codec_config(spec.codec), rngs.stream("codec"))
    return make


def stack_kwargs(spec: BaselineSpec, config, category: str = "gaming",
                 ace_n_config: Optional[AceNConfig] = None,
                 audio: bool = False) -> dict:
    """The keyword arguments a baseline contributes to a flow stack.

    The one ``spec → (factories, SenderConfig)`` mapping: the five
    component factories, the sender switches and ``ace_n_config``, under
    the parameter names :class:`~repro.rtc.session.FlowStack`,
    :class:`RtcSession` and ``LiveSession`` share. ``config`` is a
    ``SessionConfig`` or ``LiveConfig`` (read: ``fps``,
    ``initial_bwe_bps``, ``max_bwe_bps``).
    """
    fps = config.fps

    def source_factory(rngs: SeedSequenceFactory):
        return VideoSource.from_category(category, rngs.stream("source"),
                                         fps=fps)

    return dict(
        source_factory=source_factory,
        codec_factory=_codec_factory(spec),
        rate_control_factory=_rate_control_factory(spec),
        pacer_factory=_pacer_factory(spec, ace_n_config),
        cc_factory=_cc_factory(spec, config.initial_bwe_bps,
                               config.max_bwe_bps),
        sender_config=SenderConfig(
            fps=fps,
            ace_c_enabled=spec.ace_c,
            ace_n_enabled=spec.ace_n,
            salsify_mode=spec.salsify,
            fec_enabled=spec.fec,
            audio_enabled=audio,
            max_target_bitrate_bps=spec.max_target_bitrate_bps,
        ),
        ace_n_config=ace_n_config,
    )


def build_session(baseline: str | BaselineSpec, trace: BandwidthTrace,
                  session_config: Optional[SessionConfig] = None,
                  category: str = "gaming",
                  source_factory: Optional[Callable[[SeedSequenceFactory], object]] = None,
                  ace_n_config: Optional[AceNConfig] = None,
                  ace_c_config: Optional[AceCConfig] = None,
                  cc_override: Optional[str] = None,
                  codec_override: Optional[str] = None,
                  engine: str = "reference",
                  discipline: str = "droptail",
                  discipline_params: Optional[dict] = None) -> RtcSession:
    """Build a runnable session for a named baseline over ``trace``.

    ``category`` picks the synthetic content profile; pass
    ``source_factory`` to supply a custom source (e.g. the mixed corpus).
    ``cc_override`` swaps the congestion controller ("gcc"/"bbr"/"copa")
    for the Fig. 21 interaction experiments; ``codec_override`` swaps the
    encoder model ("x264"/"x265"/"vp9"/"av1"/...) — the Appendix A
    generalization, since every codec model exposes the same three
    complexity levels ACE-C drives. ``discipline`` swaps the bottleneck
    queue discipline (see :mod:`repro.net.aqm`); the default drop-tail
    keeps bit-identical historical behaviour.
    """
    spec = get_spec(baseline) if isinstance(baseline, str) else baseline
    if cc_override is not None:
        spec = replace(spec, cc=cc_override)
    if codec_override is not None:
        spec = replace(spec, codec=codec_override)
    config = session_config or SessionConfig()
    parts = stack_kwargs(spec, config, category, ace_n_config,
                         audio=config.audio)
    if source_factory is not None:
        parts["source_factory"] = source_factory
    return RtcSession(
        trace=trace,
        config=config,
        **parts,
        ace_c_config=ace_c_config,
        engine=engine,
        discipline=discipline,
        discipline_params=discipline_params,
    )
