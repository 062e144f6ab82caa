"""Seeded random-number streams.

Every stochastic component (video source, trace generator, loss model,
cross traffic) draws from its own named stream derived from a single
experiment seed. Streams are independent, so adding randomness to one
component never perturbs another — essential when comparing baselines on
"the same" workload.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(root_seed, name)`` stably."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A named, independently-seeded wrapper around ``numpy.random.Generator``.

    ``random()``, ``uniform(low, high)``, ``normal(mean, std)`` and
    ``lognormal(mean, sigma)`` are the generator's own methods, bound at
    construction: a scalar draw from them is already a Python ``float``,
    so the per-packet loss and jitter draws pay one C call and no Python
    frame. Pass their arguments positionally (numpy names them ``loc``/
    ``scale``). The methods below convert what numpy returns.
    """

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.seed = _derive_seed(root_seed, name)
        self._gen = gen = np.random.default_rng(self.seed)
        self.random = gen.random
        self.uniform = gen.uniform
        self.normal = gen.normal
        self.lognormal = gen.lognormal

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def exponential(self, scale: float = 1.0) -> float:
        return float(self._gen.exponential(scale))

    def pareto(self, shape: float) -> float:
        return float(self._gen.pareto(shape))

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def choice(self, options, p=None):
        return self._gen.choice(options, p=p)


class SeedSequenceFactory:
    """Factory handing out independent :class:`RngStream` objects.

    ::

        rngs = SeedSequenceFactory(seed=42)
        source_rng = rngs.stream("video.source")
        trace_rng = rngs.stream("net.trace")
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = RngStream(self.seed, name)
        return self._streams[name]

    def fork(self, salt: str) -> "SeedSequenceFactory":
        """Create a factory whose streams are independent of this one's."""
        return SeedSequenceFactory(_derive_seed(self.seed, f"fork:{salt}"))
