"""ANSI sparkline dashboard over live-fleet heartbeat records.

One record, two feeds, one renderer: ``repro load --dash`` hands
:class:`FleetDashboard` each heartbeat record; ``repro watch`` polls a
running fleet's Prometheus rollup, where the supervisor publishes the
same record as ``live.*`` gauges, and reads it back with
:func:`record_from_prometheus`.

Rendering is deterministic: a frame is a pure function of the record
history and fixed width, glyph selection has no float ambiguity at
bucket edges, and color/cursor control is emitted only when enabled —
in a pipe or CI the CLI prints plain stacked frames and exits 0.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = ["FleetDashboard", "fleet_fields", "parse_prometheus",
           "record_from_prometheus", "sparkline"]

#: Eight-level block glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Per-series history depth (heartbeats, i.e. seconds at the default
#: 1 Hz cadence).
HISTORY = 64

#: frame width in columns, and the sparkline's share of each row.
WIDTH = 80
SPARK_WIDTH = 24

CLEAR = "\x1b[H\x1b[2J"
RED = "\x1b[31m"
BOLD = "\x1b[1m"
RESET = "\x1b[0m"


def sparkline(values: Sequence[Optional[float]], width: int = 24, *,
              lo: Optional[float] = None, hi: Optional[float] = None) -> str:
    """Render the last ``width`` samples as block glyphs.

    ``None`` samples render as spaces (session not started yet). Bounds
    default to the window's min/max; a flat window renders at the lowest
    glyph so "nothing changing" and "pegged at max" look different.
    """
    window = list(values)[-width:]
    finite = [v for v in window if v is not None]
    if not finite:
        return " " * len(window)
    w_lo = min(finite) if lo is None else lo
    w_hi = max(finite) if hi is None else hi
    span = w_hi - w_lo
    out = []
    for v in window:
        if v is None:
            out.append(" ")
        elif span <= 0:
            out.append(SPARK_GLYPHS[0])
        else:
            idx = int((v - w_lo) / span * (len(SPARK_GLYPHS) - 1) + 0.5)
            out.append(SPARK_GLYPHS[max(0, min(len(SPARK_GLYPHS) - 1, idx))])
    return "".join(out)


class FleetDashboard:
    """Stateful renderer: feed heartbeat records, get fixed-width frames.

    ``update(record)`` returns the full frame text; the caller decides
    where it goes (screen with a clear prefix, golden-file comparison in
    tests). With ``color=False`` and ``clear=False`` the output is plain
    ASCII-plus-glyph text with no escape codes at all.
    """

    def __init__(self, *, color: bool = True, clear: bool = True) -> None:
        self.color = color
        self.clear = clear
        self.frames_rendered = 0
        self._fleet_p99: Deque[Optional[float]] = deque(maxlen=HISTORY)
        self._session_p99: Dict[str, Deque[Optional[float]]] = {}

    # -- styling -------------------------------------------------------
    def _alert(self, text: str) -> str:
        return f"{RED}{BOLD}{text}{RESET}" if self.color else text

    def _bold(self, text: str) -> str:
        return f"{BOLD}{text}{RESET}" if self.color else text

    # -- rendering -----------------------------------------------------
    def update(self, record: dict) -> str:
        """Ingest one heartbeat record and render the next frame."""
        self.frames_rendered += 1
        sessions: Dict[str, dict] = record.get("sessions", {}) or {}
        firing: List[str] = list(record.get("slo_firing", ()) or ())

        self._fleet_p99.append(record.get("pacing_p99_ms"))
        for label in sessions:
            self._session_p99.setdefault(
                label, deque(maxlen=HISTORY))
        for label, ring in self._session_p99.items():
            info = sessions.get(label, {})
            ring.append(info.get("pacing_p99_ms"))

        lines: List[str] = []
        # Short count labels so the header + p99 fit left of the
        # sparkline in the 80-column frame.
        counts = " ".join(
            f"{short} {record.get(key, 0)}"
            for key, short in (("running", "run"), ("completed", "ok"),
                               ("failed", "fail"), ("pending", "wait"))
            if record.get(key) is not None)
        head = (f"live fleet  {counts}  "
                f"p99 {_fmt_ms(record.get('pacing_p99_ms'))}")
        lines.append(self._bold(_pad(head, WIDTH - SPARK_WIDTH))
                     + _pad(sparkline(self._fleet_p99, SPARK_WIDTH),
                            SPARK_WIDTH))

        gauges = []
        if record.get("rss_mb") is not None:
            gauges.append(f"rss {record['rss_mb']:.0f} MB")
        if record.get("cpu_total_s") is not None:
            gauges.append(f"cpu {record['cpu_total_s']:.1f} s")
        if gauges:
            lines.append(_pad("  " + "  ".join(gauges), WIDTH))

        for label in sorted(self._session_p99):
            info = sessions.get(label, {})
            status = str(info.get("status", "?"))
            row = (f"  {label:<18.18} {status:<9.9} "
                   f"f {int(info.get('frames', 0) or 0):>5} "
                   f"p99 {_fmt_ms(info.get('pacing_p99_ms'))}")
            row = _pad(row, WIDTH - SPARK_WIDTH)
            spark = _pad(sparkline(self._session_p99[label],
                                   SPARK_WIDTH), SPARK_WIDTH)
            if status == "failed":
                row = self._alert(row)
            lines.append(row + spark)

        if firing:
            lines.append(self._alert(
                _pad("SLO FIRING: " + ", ".join(sorted(firing)), WIDTH)))
        else:
            lines.append(_pad("slo: ok", WIDTH))

        frame = "\n".join(lines) + "\n"
        return (CLEAR + frame) if self.clear else frame


def _fmt_ms(value: Optional[float]) -> str:
    return f"{value:7.1f} ms" if value is not None else "    n/a   "


def _pad(text: str, width: int) -> str:
    if len(text) >= width:
        return text[:width]
    return text + " " * (width - len(text))


# ----------------------------------------------------------------------
# the record as live.* gauges (repro watch)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)\s*$")
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse text-exposition lines into (name, labels, value) triples.

    Tolerant by design: comment/blank lines and unparsable values are
    skipped, since the endpoint may be mid-rollup when polled.
    """
    out: List[Tuple[str, Dict[str, str], float]] = []
    for line in text.splitlines():
        m = _SAMPLE_RE.match(line.strip())  # no match: comment or blank
        if m is None:
            continue
        name, label_blob, raw = m.groups()
        try:
            value = float(raw)
        except ValueError:
            continue
        labels = {k: v.replace('\\"', '"').replace("\\\\", "\\")
                  for k, v in _LABEL_RE.findall(label_blob or "")}
        out.append((name, labels, value))
    return out


#: Session statuses, in the heartbeat's count order.
STATUSES = ("pending", "running", "completed", "failed", "skipped")

#: The heartbeat's per-session numbers, each published as the gauge
#: ``live.<key>`` (HELP text here) beside ``live.status{status="..."}``.
SESSION_GAUGES = {
    "frames": "Frames the session has started encoding",
    "pacing_p50_ms": "p50 of the session's recent pacing delays (ms)",
    "pacing_p99_ms": "p99 of the session's recent pacing delays (ms)",
    "cpu_s": "CPU seconds attributed to this session",
    "wire_faults": "Socket errors plus malformed datagrams on its endpoints",
}

#: The heartbeat's fleet numbers: key -> (fleet-shard gauge
#: ``live.<name>``, scale, decimals). The gauges hold raw numbers.
FLEET_FIELDS = {
    "pacing_p50_ms": ("pacing_p50_s", 1e3, 3),
    "pacing_p99_ms": ("pacing_p99_s", 1e3, 3),
    "cpu_total_s": ("cpu_total_s", 1.0, 4),
    "rss_mb": ("rss_bytes", 2.0 ** -20, 2),
}


def fleet_fields(gauge: Callable[[str], Optional[float]]) -> dict:
    """The heartbeat's fleet numbers from ``gauge(name)``, the fleet
    shard's ``live.<name>`` or None: the supervisor reads its registry
    through this and ``repro watch`` the scraped text."""
    return {key: None if (raw := gauge(name)) is None
            else round(raw * scale, digits)
            for key, (name, scale, digits) in FLEET_FIELDS.items()}


def record_from_prometheus(text: str) -> dict:
    """Read the heartbeat record back from a fleet Prometheus rollup:
    the fleet's numbers through :func:`fleet_fields`, each session's
    ``live.*`` gauges under the heartbeat's keys, the ``slo`` shard's
    firing rules."""
    shards: Dict[str, dict] = {}
    for name, labels, value in parse_prometheus(text):
        shards.setdefault(labels.get("session", ""), {})[name] = (
            labels.get("status") if name == "repro_live_status" else value)
    fleet, slo = shards.get("fleet", {}), shards.get("slo", {})
    sessions = {
        label: {"status": live["repro_live_status"],
                **{key: live[f"repro_live_{key}"] for key in SESSION_GAUGES
                   if f"repro_live_{key}" in live}}
        for label, live in sorted(shards.items())
        if "repro_live_status" in live}
    # A lone `repro live` session serves its row and no fleet shard:
    # count the rows instead.
    record: dict = {
        s: int(fleet.get(f"repro_live_sessions_{s}",
                         fleet.get(f"repro_live_sessions_{s}_total", 0)))
        if fleet else sum(row["status"] == s for row in sessions.values())
        for s in STATUSES}
    record["sessions"] = sessions
    record.update(fleet_fields(lambda name: fleet.get(f"repro_live_{name}")))
    if (firing := slo.get("repro_slo_firing", 0.0)) > 0:
        prefix = "repro_slo_breached_"
        record["slo_firing"] = [
            name[len(prefix):].replace("_", "-") for name, value in slo.items()
            if name.startswith(prefix) and value > 0
        ] or [f"{int(firing)} rule(s)"]
    return record
