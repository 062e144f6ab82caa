"""RTC pipeline: sender, receiver wiring, session runner, metrics, baselines."""

from repro.rtc.metrics import FrameMetrics, SessionMetrics
from repro.rtc.sender import Sender, SenderConfig
from repro.rtc.session import RtcSession, SessionConfig
from repro.rtc.baselines import BASELINES, BaselineSpec, build_session, list_baselines
from repro.rtc.overhead import OverheadModel, OverheadSample

__all__ = [
    "FrameMetrics",
    "SessionMetrics",
    "Sender",
    "SenderConfig",
    "RtcSession",
    "SessionConfig",
    "BASELINES",
    "BaselineSpec",
    "build_session",
    "list_baselines",
    "OverheadModel",
    "OverheadSample",
]
