"""Transport substrate: packetization, feedback, pacing, congestion control.

Structured after the WebRTC sender stack the paper patches: encoded
frames are packetized (RTP-style), queued into a pacer, and released
into the network; the receiver returns transport-wide feedback
(per-packet receive timestamps plus loss reports) that drives the
congestion controller and — in ACE — the ACE-N bucket adaptation.
"""

from repro.transport.rtp import Packetizer
from repro.transport.feedback import FeedbackMessage, FeedbackBuilder, PacketReport
from repro.transport.pacer.base import Pacer, PacerStats
from repro.transport.pacer.leaky_bucket import LeakyBucketPacer
from repro.transport.pacer.burst import BurstPacer
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer
from repro.transport.cc.base import CongestionController
from repro.transport.cc.gcc import GccController
from repro.transport.cc.bbr import BbrController
from repro.transport.cc.copa import CopaController
from repro.transport.cc.delivery_rate import DeliveryRateController
from repro.transport.receiver import TransportReceiver, FrameRecord
from repro.transport.fec import FecConfig, FecDecoder, FecEncoder
from repro.transport.audio import AudioReceiver, AudioSource

__all__ = [
    "Packetizer",
    "FeedbackMessage",
    "FeedbackBuilder",
    "PacketReport",
    "Pacer",
    "PacerStats",
    "LeakyBucketPacer",
    "BurstPacer",
    "TokenBucketPacer",
    "CongestionController",
    "GccController",
    "BbrController",
    "CopaController",
    "DeliveryRateController",
    "TransportReceiver",
    "FrameRecord",
    "FecConfig",
    "FecEncoder",
    "FecDecoder",
    "AudioSource",
    "AudioReceiver",
]
