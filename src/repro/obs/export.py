"""Telemetry exporters: JSONL event log, Prometheus snapshot, timelines.

Three consumers, three formats:

* ``write_jsonl`` — the full structured event log, one JSON object per
  record, for offline analysis (CI uploads this as an artifact).
* ``prometheus_snapshot`` — a Prometheus text-exposition snapshot of
  the metric registry; ``repro live --stats-port`` serves it over HTTP
  while the session runs, sim commands write it at session end.
* ``render_span_timeline`` / ``render_record`` — fixed-width text for
  the ``repro trace`` CLI and the flight-recorder dump.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.spans import SPAN_COMPONENTS, SPAN_STAGES, FrameSpan

if TYPE_CHECKING:
    from repro.obs.recorder import Telemetry, TelemetryRecord
    from repro.obs.registry import MetricRegistry


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def write_jsonl(telemetry: "Telemetry", path) -> int:
    """Write the full event log as JSON lines; returns the record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w") as fh:
        for record in telemetry.events:
            fh.write(json.dumps(record.to_json_obj(),
                                separators=(",", ":")) + "\n")
            n += 1
    return n


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Label-value escaping per the text exposition format."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP-text escaping: backslash and newline only (no quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_str(labels, extra: Optional[dict] = None) -> str:
    """Rendered ``{k="v",...}`` block (sorted keys), or ``""`` if none."""
    merged: dict = dict(labels or {})
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = [f'{k}="{_escape_label(v)}"' for k, v in sorted(merged.items())]
    return "{" + ",".join(parts) + "}"


def prometheus_snapshot(registry: "MetricRegistry") -> str:
    """Prometheus text-format snapshot of every registered metric.

    Output order is fully deterministic — counters, then gauges, then
    histograms, each sorted by name — so two snapshots of equal
    registries are byte-identical and diffs stay readable.
    """
    return prometheus_rollup({"": registry}, label=None)


def prometheus_rollup(shards, label: Optional[str] = "session") -> str:
    """One Prometheus snapshot over many per-session registries.

    ``shards`` maps a shard name (e.g. ``"s3-ace"``) to its
    :class:`~repro.obs.registry.MetricRegistry`. Each metric family is
    rendered once — HELP/TYPE header, then one sample line per shard
    carrying ``{label="<shard>"}`` merged into the instrument's own
    labels (``label=None``: no shard label, the single-registry
    snapshot) — so a fleet of N sessions scrapes as one page with
    per-session series, exactly how a multi-tenant exporter labels
    tenants. Ordering is fully deterministic: counters, gauges,
    histograms; families sorted by name, shards sorted by key.
    """
    shards = dict(shards)
    keys = sorted(shards)
    lines: list[str] = []

    def family(attr: str):
        """(name, [(shard labels, instrument), ...]) per metric family."""
        names = sorted({n for reg in shards.values() for n in getattr(reg, attr)})
        for name in names:
            found = [({} if label is None else {label: key}, inst)
                     for key in keys
                     if (inst := getattr(shards[key], attr).get(name))
                     is not None]
            yield name, found

    def header(prom: str, kind: str, found) -> None:
        help_text = next((inst.help for _, inst in found if inst.help), "")
        if help_text:
            lines.append(f"# HELP {prom} {_escape_help(help_text)}")
        lines.append(f"# TYPE {prom} {kind}")

    for name, found in family("counters"):
        prom = _prom_name(name) + "_total"
        header(prom, "counter", found)
        for shard, counter in found:
            lines.append(f"{prom}{_labels_str(counter.labels, shard)} "
                         f"{_prom_value(counter.value)}")
    for name, found in family("gauges"):
        found = [(shard, g) for shard, g in found if g.value is not None]
        if not found:
            continue
        prom = _prom_name(name)
        header(prom, "gauge", found)
        for shard, gauge in found:
            lines.append(f"{prom}{_labels_str(gauge.labels, shard)} "
                         f"{_prom_value(gauge.value)}")
    for name, found in family("histograms"):
        prom = _prom_name(name)
        header(prom, "histogram", found)
        for shard, hist in found:
            for bound, cumulative in hist.cumulative():
                le = "+Inf" if bound == math.inf else repr(float(bound))
                labels = _labels_str(hist.labels, {**shard, "le": le})
                lines.append(f"{prom}_bucket{labels} {cumulative}")
            base = _labels_str(hist.labels, shard)
            lines.append(f"{prom}_sum{base} {_prom_value(hist.sum)}")
            lines.append(f"{prom}_count{base} {hist.count}")
    return "\n".join(lines) + "\n"


def write_snapshot(telemetry: "Telemetry", path) -> None:
    from repro.obs.atomicio import atomic_write_text
    atomic_write_text(path, prometheus_snapshot(telemetry.registry))


def write_export_dir(telemetry: "Telemetry", out_dir) -> tuple[Path, Path]:
    """Write both exporters into ``out_dir``; returns (jsonl, snapshot)."""
    out_dir = Path(out_dir)
    jsonl = out_dir / "events.jsonl"
    snapshot = out_dir / "metrics.prom"
    write_jsonl(telemetry, jsonl)
    write_snapshot(telemetry, snapshot)
    return jsonl, snapshot


# ----------------------------------------------------------------------
# text timelines
# ----------------------------------------------------------------------
def render_record(record: "TelemetryRecord") -> str:
    fields = " ".join(f"{k}={_fmt_field(v)}"
                      for k, v in record.fields.items())
    return f"{record.time:12.6f}  {record.kind:<6} {record.name:<24} {fields}".rstrip()


def _fmt_field(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_span_timeline(span: FrameSpan) -> str:
    """Fixed-width per-stage timeline of one frame's span.

    Stages print in pipeline order with the delta from the previous
    stamped stage; the footer shows the Fig. 2 component durations.
    """
    lines = [f"frame {span.frame_id} span:"]
    prev: Optional[float] = None
    for stage in SPAN_STAGES:
        t = span.stamps.get(stage)
        if t is None:
            continue
        delta = "" if prev is None else f"  (+{(t - prev) * 1000:8.3f} ms)"
        lines.append(f"  {stage:<14} t={t:12.6f}{delta}")
        prev = t
    durations = span.durations()
    parts = []
    for name, _start, _end in SPAN_COMPONENTS:
        d = durations[name]
        parts.append(f"{name}={'-' if d is None else f'{d * 1000:.3f}ms'}")
    e2e = span.e2e()
    parts.append(f"e2e={'-' if e2e is None else f'{e2e * 1000:.3f}ms'}")
    lines.append("  components: " + "  ".join(parts))
    return "\n".join(lines)


def filter_records(records: Iterable["TelemetryRecord"], *,
                   kind: Optional[str] = None,
                   name: Optional[str] = None,
                   frame_id: Optional[int] = None,
                   since: Optional[float] = None,
                   until: Optional[float] = None) -> list["TelemetryRecord"]:
    """Timeline filter used by ``repro trace``. ``name`` is a substring."""
    out = []
    for r in records:
        if kind is not None and r.kind != kind:
            continue
        if name is not None and name not in r.name:
            continue
        if frame_id is not None and r.fields.get("frame_id") != frame_id:
            continue
        if since is not None and r.time < since:
            continue
        if until is not None and r.time > until:
            continue
        out.append(r)
    return out
