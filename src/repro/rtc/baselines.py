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

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from repro.core.ace_n import AceNConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.session import RtcSession, SessionConfig
from repro.sim.rng import SeedSequenceFactory
from repro.video.codec.presets import codec_config

#: the names a spec may give each component, every one of which
#: ``FlowStack`` builds (``pacer`` may instead be a ``Pacer`` subclass).
CHOICES = {
    "rate_control": ("abr", "cbr"),
    "pacer": ("leaky", "burst", "token"),
    "cc": ("gcc", "bbr", "copa", "delivery", "delivery-throughput"),
}


@dataclass(frozen=True)
class BaselineSpec:
    """Declarative description of one baseline scheme: the codec, rate
    control, pacer and congestion controller a flow combines, built by
    :class:`~repro.rtc.session.FlowStack` on any clock. A component
    named outside :data:`CHOICES` (or an unknown codec) is refused,
    naming the field."""

    name: str
    codec: str = "x264"
    rate_control: str = "abr"
    #: a name in ``CHOICES``, or a ``Pacer`` subclass, built as
    #: ``pacer(clock, send)``.
    pacer: Union[str, Callable] = "leaky"
    pacing_factor: float = 1.0
    ace_c: bool = False
    ace_n: bool = False
    salsify: bool = False
    fec: bool = False
    cc: str = "gcc"
    #: ACE's GCC uses a time-windowed trendline (§5.2).
    time_windowed_trendline: bool = False
    max_target_bitrate_bps: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        try:
            codec_config(self.codec)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        for name, choices in CHOICES.items():
            value = getattr(self, name)
            if value not in choices and not (name == "pacer"
                                             and callable(value)):
                raise ValueError(f"unknown {name} {value!r}; "
                                 f"choose from {list(choices)}")


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


def build_session(baseline: str | BaselineSpec, trace: BandwidthTrace,
                  session_config: Optional[SessionConfig] = None,
                  category: str = "gaming",
                  source_factory: Optional[Callable[[SeedSequenceFactory], object]] = None,
                  ace_n_config: Optional[AceNConfig] = None,
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
    return RtcSession(
        trace, session_config or SessionConfig(),
        resolve_spec(baseline, cc_override, codec_override), category,
        source_factory=source_factory, ace_n_config=ace_n_config,
        engine=engine, discipline=discipline,
        discipline_params=discipline_params)


def resolve_spec(baseline: str | BaselineSpec, cc: Optional[str] = None,
                 codec: Optional[str] = None) -> BaselineSpec:
    """``baseline`` (a registered name or a spec) with the ``cc`` and
    ``codec`` overrides applied; ``ValueError`` names an unknown
    baseline, controller or codec."""
    try:
        spec = get_spec(baseline) if isinstance(baseline, str) else baseline
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if cc is not None:
        spec = replace(spec, cc=cc)
    if codec is not None:
        spec = replace(spec, codec=codec)
    return spec
