"""Serializable run results.

A :class:`RunResult` captures the headline metrics of one session run
plus enough context (baseline, trace, seed, duration) to reproduce it.
Collections of results round-trip through JSON for archiving sweeps and
comparing against previous runs.
"""

from __future__ import annotations

import json
import math
import struct
from binascii import a2b_base64, b2a_base64
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.rtc.metrics import FrameMetrics, SessionMetrics


@dataclass
class RunResult:
    """Headline metrics of one experiment run."""

    baseline: str
    trace: str
    seed: int
    duration: float
    category: str = "gaming"
    p50_latency: float = float("nan")
    p95_latency: float = float("nan")
    p99_latency: float = float("nan")
    mean_latency: float = float("nan")
    mean_vmaf: float = float("nan")
    loss_rate: float = float("nan")
    stall_rate: float = float("nan")
    received_fps: float = float("nan")
    frames: int = 0
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_metrics(cls, metrics: SessionMetrics, baseline: str,
                     trace: str, seed: int,
                     category: str = "gaming", **extra) -> "RunResult":
        return cls(
            baseline=baseline,
            trace=trace,
            seed=seed,
            duration=metrics.duration,
            category=category,
            p50_latency=metrics.latency_percentile(50),
            p95_latency=metrics.latency_percentile(95),
            p99_latency=metrics.latency_percentile(99),
            mean_latency=metrics.mean_latency(),
            mean_vmaf=metrics.mean_vmaf(),
            loss_rate=metrics.loss_rate(),
            stall_rate=metrics.stall_rate(),
            received_fps=metrics.received_fps(),
            frames=len(metrics.frames),
            extra=dict(extra),
        )

    def key(self) -> tuple:
        """Identity of the workload this result measured."""
        return (self.baseline, self.trace, self.seed, self.category)

    def to_dict(self) -> dict:
        d = asdict(self)
        # JSON has no NaN; store as null.
        for k, v in d.items():
            if isinstance(v, float) and math.isnan(v):
                d[k] = None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        clean = dict(d)
        for k, v in clean.items():
            if v is None and k not in ("extra",):
                clean[k] = float("nan")
        return cls(**clean)


# ----------------------------------------------------------------------
# full SessionMetrics round-trip
#
# Two encodings of the same content. The *row form* (one list per frame,
# one ``[t, size]`` pair per packet) exists only as the text of
# :func:`canonical_metrics_json`, the determinism contract. The
# *columnar form* is what the on-disk result cache stores: one column
# per field, numeric columns as raw array bytes, so a warm grid cell
# never parses a float from text (DESIGN.md §3a).
# ----------------------------------------------------------------------

#: FrameMetrics fields in construction order (positional round-trip).
_FRAME_FIELDS = (
    "frame_id", "capture_time", "size_bytes", "quality_vmaf",
    "complexity_level", "encode_time", "satd", "planned_bytes",
    "pacer_enqueue", "pacer_last_exit", "complete_at", "displayed_at",
    "had_retransmission",
)

#: components of one ``send_events`` / ``bwe_history`` tuple.
_SEND_FIELDS = ("t", "size")
_BWE_FIELDS = ("t", "bwe")

#: exact Python type -> (dtype tag, struct code). Little-endian on every
#: host, so a shared ``REPRO_CACHE_DIR`` reads the same everywhere.
_PACKED = {float: ("<f8", "d"), int: ("<i8", "q"), bool: ("|u1", "B")}
_STRUCT_CODE = {tag: code for tag, code in _PACKED.values()}
_NONE = type(None)


def _arena_form(metrics, flow_form) -> dict:
    """ArenaMetrics envelope (duck-typed to avoid importing repro.arena
    here) around one ``flow_form(SessionMetrics)`` per flow."""
    return {
        "kind": "arena",
        "duration": metrics.duration,
        "discipline": metrics.discipline,
        "specs": {str(fid): spec for fid, spec in metrics.specs.items()},
        "router_stats": list(metrics.router_stats),
        "flows": {str(fid): flow_form(m) for fid, m in metrics.flows.items()},
    }


def _row_form(metrics) -> dict:
    """Row-form primitives: the payload of :func:`canonical_metrics_json`."""
    if not isinstance(metrics, SessionMetrics):
        return _arena_form(metrics, _row_form)
    return {
        "duration": metrics.duration,
        "packets_sent": metrics.packets_sent,
        "packets_lost": metrics.packets_lost,
        "packets_retransmitted": metrics.packets_retransmitted,
        "frames": [[getattr(f, name) for name in _FRAME_FIELDS]
                   for f in metrics.frames],
        "send_events": [list(ev) for ev in metrics.send_events],
        "bwe_history": [list(ev) for ev in metrics.bwe_history],
    }


def _encode_column(values: Sequence):
    """One column as ``{"dt", "n", "b64"[, "null"]}`` or a verbatim list.

    A column packs only when every non-``None`` value has the *same
    exact* type among ``float``/``int``/``bool`` and fits the dtype;
    anything else (``1`` beside ``1.0``, an int outside int64, an
    all-``None`` or empty column, a numpy scalar) is carried verbatim so
    its JSON text — and hence the canonical row form — is unchanged.
    """
    kinds = set(map(type, values))
    nulls: list[int] = []
    filled = values
    if _NONE in kinds:
        kinds.discard(_NONE)
        nulls = [i for i, v in enumerate(values) if v is None]
        filled = [0 if v is None else v for v in values]
    packed = _PACKED.get(kinds.pop()) if len(kinds) == 1 else None
    if packed is None:
        return list(values)
    tag, code = packed
    try:
        raw = struct.pack(f"<{len(filled)}{code}", *filled)
    except struct.error:            # an int that does not fit int64
        return list(values)
    column = {"dt": tag, "n": len(filled),
              "b64": b2a_base64(raw, newline=False).decode("ascii")}
    if nulls:
        column["null"] = nulls
    return column


def _decode_column(column) -> list:
    """Inverse of :func:`_encode_column`; raises on any malformed column."""
    if isinstance(column, list):
        return column
    tag = column["dt"]
    # ``:d`` rejects a count that is not an int; unpack rejects a buffer
    # whose length disagrees with it.
    values = list(struct.unpack(f"<{column['n']:d}{_STRUCT_CODE[tag]}",
                                a2b_base64(column["b64"])))
    if tag == "|u1":
        values = [v != 0 for v in values]
    for i in column.get("null", ()):
        values[i] = None
    return values


def _encode_events(events: Sequence[tuple], names: Sequence[str]) -> dict:
    """One column per component of a list of same-width tuples."""
    return {name: _encode_column([ev[i] for ev in events])
            for i, name in enumerate(names)}


def _decode_table(table: dict, names: Sequence[str]) -> Iterable[tuple]:
    """Rows of a table of equally long columns, one per name."""
    columns = [_decode_column(table[name]) for name in names]
    if len({len(col) for col in columns}) != 1:
        raise ValueError("cache entry columns differ in length")
    return zip(*columns)


def metrics_to_dict(metrics) -> dict:
    """Encode session results as a columnar, JSON-safe cache entry.

    Accepts a single-flow :class:`SessionMetrics` (``"kind":
    "session"``) or a multi-flow
    :class:`~repro.arena.session.ArenaMetrics` (``"kind": "arena"``,
    nesting one session entry per flow). ``bandwidth_fn`` is
    deliberately excluded — it is a live callable owned by the trace;
    callers reattach it after :func:`metrics_from_dict` (the cache layer
    does this).
    """
    if not isinstance(metrics, SessionMetrics):
        return _arena_form(metrics, metrics_to_dict)
    frames = metrics.frames
    return {
        "kind": "session",
        "duration": metrics.duration,
        "packets_sent": metrics.packets_sent,
        "packets_lost": metrics.packets_lost,
        "packets_retransmitted": metrics.packets_retransmitted,
        "frames": {name: _encode_column([getattr(f, name) for f in frames])
                   for name in _FRAME_FIELDS},
        "send_events": _encode_events(metrics.send_events, _SEND_FIELDS),
        "bwe_history": _encode_events(metrics.bwe_history, _BWE_FIELDS),
    }


def metrics_from_dict(d: dict):
    """Inverse of :func:`metrics_to_dict` (``bandwidth_fn`` stays None).

    Raises ``ValueError`` on anything that is not a well-formed entry
    (missing key, wrong shape, unknown kind/dtype, bad base64, short
    buffer); the cache turns that into a recorded miss.
    """
    try:
        return _decode_entry(d)
    except (KeyError, TypeError, IndexError, AttributeError,
            struct.error) as exc:
        raise ValueError(f"malformed cache entry: {exc!r}") from exc


def _decode_entry(d: dict):
    kind = d["kind"]
    if kind == "arena":
        from repro.arena.session import ArenaMetrics
        return ArenaMetrics(
            duration=d["duration"],
            discipline=d["discipline"],
            specs={int(fid): spec for fid, spec in d["specs"].items()},
            router_stats=list(d["router_stats"]),
            flows={int(fid): _decode_entry(m)
                   for fid, m in d["flows"].items()},
        )
    if kind != "session":
        raise ValueError(f"unknown cache entry kind {kind!r}")
    metrics = SessionMetrics(
        duration=d["duration"],
        packets_sent=d["packets_sent"],
        packets_lost=d["packets_lost"],
        packets_retransmitted=d["packets_retransmitted"],
    )
    metrics.frames = [FrameMetrics(*row)
                      for row in _decode_table(d["frames"], _FRAME_FIELDS)]
    metrics.send_events = list(_decode_table(d["send_events"], _SEND_FIELDS))
    metrics.bwe_history = list(_decode_table(d["bwe_history"], _BWE_FIELDS))
    return metrics


def canonical_metrics_json(metrics: SessionMetrics) -> str:
    """Stable JSON encoding of a session's full results.

    Byte-for-byte equality of this string is the determinism contract
    the parallel runner is tested against (serial == parallel == cached).
    """
    return json.dumps(_row_form(metrics), sort_keys=True)


def save_results(results: Iterable[RunResult], path: str | Path) -> None:
    """Write results as a JSON list (atomically — crash-safe run dirs)."""
    from repro.obs.atomicio import atomic_write_text
    payload = [r.to_dict() for r in results]
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_results(path: str | Path) -> list[RunResult]:
    """Read results written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    return [RunResult.from_dict(d) for d in payload]
