"""On-disk cache of session results keyed by workload content.

Experiment sweeps re-run the same (baseline, config, trace) workloads
constantly — across bench modules, across seeds of the same figure, and
across repeated invocations while iterating on analysis code. Sessions
are deterministic, so a result is fully determined by its inputs plus
the simulator source itself; this module memoizes
:class:`~repro.rtc.metrics.SessionMetrics` on disk under a key that
hashes all of them:

* baseline name and any build overrides,
* the full :class:`~repro.rtc.session.SessionConfig`,
* a fingerprint of the bandwidth trace (name + every sample),
* content category,
* a version hash of every ``repro`` source file, so any code change
  silently invalidates all prior entries.

Control knobs (environment):

* ``REPRO_CACHE=off`` (also ``0``/``no``/``false``) disables the cache
  entirely — every lookup misses and nothing is written.
* ``REPRO_CACHE_DIR=<path>`` overrides the cache directory (default
  ``~/.cache/repro-ace``).
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from repro.analysis.results import metrics_from_dict, metrics_to_dict
from repro.net.trace import BandwidthTrace
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import SessionConfig

#: values of ``REPRO_CACHE`` that disable caching.
_OFF_VALUES = {"off", "0", "no", "false"}

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file (lazily computed, memoized).

    Included in every cache key so a cached result can never outlive the
    simulator code that produced it.
    """
    global _code_version_cache
    if _code_version_cache is None:
        root = Path(__file__).resolve().parents[1]  # src/repro
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


#: ``id(trace) -> (name, digest)`` for every live trace fingerprinted so
#: far; a sweep hashes each trace once, not once per cell that shares it.
_fingerprints: dict[int, tuple[str, str]] = {}


def trace_fingerprint(trace: BandwidthTrace) -> str:
    """Content hash of a trace: its name plus every (time, rate) sample.

    Memoized per trace object (a built trace's samples are immutable in
    effect — the simulator reads the copy ``__post_init__`` took); the
    entry dies with the trace, and a renamed trace is re-hashed.
    """
    memo = _fingerprints.get(id(trace))
    if memo is not None and memo[0] == trace.name:
        return memo[1]
    digest = hashlib.sha256()
    digest.update(trace.name.encode())
    digest.update(b"\0")
    digest.update("".join(
        f"{float(t)!r},{float(rate)!r};"
        for t, rate in zip(trace.timestamps, trace.rates_bps)).encode())
    fingerprint = digest.hexdigest()[:16]
    if memo is None:
        weakref.finalize(trace, _fingerprints.pop, id(trace), None)
    _fingerprints[id(trace)] = (trace.name, fingerprint)
    return fingerprint


def cache_enabled_by_env() -> bool:
    """Whether ``REPRO_CACHE`` permits caching (default: yes)."""
    return os.environ.get("REPRO_CACHE", "").strip().lower() not in _OFF_VALUES


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-ace"


class ResultCache:
    """Content-addressed store of serialized :class:`SessionMetrics`.

    Entries are one JSON file per key under ``cache_dir`` holding the
    columnar form of :func:`~repro.analysis.results.metrics_to_dict`;
    writes go through :func:`~repro.obs.atomicio.atomic_write_text`
    (same-directory temp file + rename), so concurrent workers never
    observe a torn entry. Counters (``hits``/``misses``/``stores``/
    ``corrupt``) accumulate over the cache object's lifetime — benches
    print them so cached reruns, and entries that had to be bypassed,
    are visible in the output.
    """

    def __init__(self, cache_dir: Optional[str | Path] = None,
                 enabled: Optional[bool] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.enabled = cache_enabled_by_env() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries that existed but could not be decoded (each is also a
        #: miss; the re-run's ``put`` overwrites the bad file).
        self.corrupt = 0

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def make_key(self, baseline: str, config: SessionConfig,
                 trace: BandwidthTrace, category: str = "gaming",
                 extra: Optional[dict] = None) -> str:
        """Content hash identifying one workload under the current code."""
        payload = {
            "baseline": baseline,
            "config": asdict(config),
            "trace": trace_fingerprint(trace),
            "category": category,
            # Build overrides (cc_override, ace_n_config, ...) are small
            # config objects/strings; repr() is stable for them.
            "extra": sorted((k, repr(v)) for k, v in (extra or {}).items()),
            "code": code_version(),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def _path_for(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SessionMetrics]:
        """Load a cached result, or None (counts a hit or a miss).

        An entry that exists but does not decode — torn or foreign JSON,
        a missing column, a buffer shorter than its ``n`` — is a miss
        that also bumps ``corrupt``; it is never a hit and never raises.
        ``bandwidth_fn`` is not persisted; the caller reattaches the
        trace's ``rate_at`` (the parallel runner does this).
        """
        if self.enabled:
            try:
                metrics = metrics_from_dict(
                    json.loads(self._path_for(key).read_bytes()))
            except OSError:
                pass                    # no entry: a plain miss
            except ValueError:          # undecodable JSON or entry
                self.corrupt += 1
            else:
                self.hits += 1
                return metrics
        self.misses += 1
        return None

    def put(self, key: str, metrics: SessionMetrics) -> None:
        """Persist a result atomically (no-op when disabled)."""
        if not self.enabled:
            return
        # Imported here: ``import repro.cli`` loads this module and must
        # not load ``repro.obs``.
        from repro.obs.atomicio import atomic_write_text
        atomic_write_text(self._path_for(key),
                          json.dumps(metrics_to_dict(metrics)))
        self.stores += 1

    # ------------------------------------------------------------------
    # reporting / maintenance
    # ------------------------------------------------------------------
    def counter_dict(self) -> dict:
        """The lifetime counters, as run summaries record them."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}

    def counters(self) -> str:
        """One-line summary for bench output."""
        state = "on" if self.enabled else "off"
        return f"cache[{state}] " + " ".join(
            f"{name}={n}" for name, n in self.counter_dict().items())

    def clear(self) -> int:
        """Delete every entry, and any ``*.tmp`` a killed writer left
        behind; returns the number of entries removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for pattern in ("*.json", "*.tmp"):
                for path in self.cache_dir.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    if pattern == "*.json":
                        removed += 1
        return removed
