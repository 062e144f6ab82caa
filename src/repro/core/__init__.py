"""The paper's contribution: ACE dual burstiness control.

* :class:`AceNController` — burstiness-adaptive pacing (§4.1, Alg. 1):
  adapts the token-bucket size of a :class:`TokenBucketPacer` to the
  estimated in-network queue.
* :class:`AceCController` — complexity-adaptive encoding (§4.2): picks
  the per-frame encoder complexity maximizing the latency gain of
  trading encode time for frame-size reduction.
* :class:`QueueEstimator` — standing-RTT x PacketPair capacity queue
  estimation shared by ACE-N.
"""

from repro.core.token_bucket import TokenBucket
from repro.core.queue_estimator import QueueEstimator
from repro.core.ace_n import AceNConfig, AceNController
from repro.core.ace_c import AceCConfig, AceCController

__all__ = [
    "TokenBucket",
    "QueueEstimator",
    "AceNConfig",
    "AceNController",
    "AceCConfig",
    "AceCController",
]
