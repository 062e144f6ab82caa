"""Paper-style figure rendering from time-series shards.

``repro plot <run-dir>`` turns the columnar shards the
:mod:`repro.obs.timeseries` recorder writes under ``<run_dir>/series/``
into a self-contained HTML report of hand-rolled SVG line charts — the
figures the paper argues with: sending rate vs. link capacity (Fig. 1
style), estimated/actual queuing delay, token-bucket size and level
(Algorithm 1's state), pacing-delay quantiles, and for arena runs the
per-flow rate shares plus Jain's fairness index over time.

Everything here is deterministic on purpose: series pass through
:func:`repro.obs.timeseries.m4_downsample` before hitting the SVG, all
coordinates are formatted with fixed precision, the palette and layout
are constants, and no timestamps or random ids are embedded — rendering
the same run directory twice yields byte-identical output (asserted in
CI), so plots can themselves be diffed as artifacts.

No plotting dependency: the container has no matplotlib, and a ~300-line
SVG writer is easier to keep deterministic anyway.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.atomicio import atomic_write_text
from repro.obs.timeseries import SeriesFrame, load_shard, m4_downsample, rate_series

__all__ = [
    "ChartSeries",
    "figures_for_frame",
    "render_html_report",
    "render_run",
    "svg_line_chart",
]

#: Okabe–Ito-ish fixed palette; index = series order in the chart.
PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7",
           "#e69f00", "#56b4e9", "#8a8a8a", "#000000")

CHART_WIDTH = 640
CHART_HEIGHT = 240
MARGIN_LEFT = 56
MARGIN_RIGHT = 12
MARGIN_TOP = 28
MARGIN_BOTTOM = 34
#: every chart's x axis is session time.
X_LABEL = "time (s)"

#: pixel budget for M4 downsampling — the plot area width.
DEFAULT_PIXEL_WIDTH = CHART_WIDTH - MARGIN_LEFT - MARGIN_RIGHT

_ARENA_FLOW_RE = re.compile(r"^arena\.flow(\d+)\.sent_bytes$")


@dataclass
class ChartSeries:
    """One polyline: a label plus aligned (t, v) points."""

    label: str
    t: Sequence[float]
    v: Sequence[float]
    color: Optional[str] = None


def _nice_ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] — deterministic."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(1, count)
    mag = 10.0 ** _floor_log10(raw)
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mag * mult
        if step >= raw:
            break
    first = _ceil_div(lo, step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 9))
        value += step
    return ticks or [lo]


def _floor_log10(x: float) -> int:
    import math
    return int(math.floor(math.log10(x))) if x > 0 else 0


def _ceil_div(x: float, step: float) -> float:
    import math
    return math.ceil(x / step - 1e-9)


def _fmt_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def svg_line_chart(title: str, serieses: Sequence[ChartSeries], *,
                   y_label: str = "",
                   width: int = CHART_WIDTH, height: int = CHART_HEIGHT,
                   pixel_width: Optional[int] = None) -> str:
    """Render one deterministic SVG line chart.

    Series are M4-downsampled to the plot's pixel width first, so the
    polyline is identical for a given (shard, width) on any machine.
    """
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM
    budget = pixel_width if pixel_width is not None else plot_w

    reduced: List[ChartSeries] = []
    for i, s in enumerate(serieses):
        rt, rv = m4_downsample(s.t, s.v, budget)
        if rt:
            reduced.append(ChartSeries(
                s.label, rt, rv, s.color or PALETTE[i % len(PALETTE)]))

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="16" font-size="13" font-weight="bold">'
        f'{_esc(title)}</text>',
    ]
    if not reduced:
        parts.append(
            f'<text x="{width // 2}" y="{height // 2}" text-anchor="middle" '
            f'fill="#8a8a8a">no data</text></svg>')
        return "".join(parts)

    x_lo = min(s.t[0] for s in reduced)
    x_hi = max(s.t[-1] for s in reduced)
    y_lo = min(min(s.v) for s in reduced)
    y_hi = max(max(s.v) for s in reduced)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    # Zero-anchor the y axis when data is non-negative — rate/queue/size
    # figures read wrong with a truncated baseline.
    if y_lo > 0 and y_lo < 0.5 * y_hi:
        y_lo = 0.0
    pad = 0.05 * (y_hi - y_lo)
    y_hi += pad
    if y_lo != 0.0:
        y_lo -= pad

    def sx(t: float) -> float:
        return MARGIN_LEFT + (t - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_TOP + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    # Axes, gridlines, ticks.
    axis_bottom = MARGIN_TOP + plot_h
    for tick in _nice_ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" '
            f'x2="{MARGIN_LEFT + plot_w}" y2="{y:.2f}" '
            f'stroke="#e5e5e5" stroke-width="1"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{y + 3.5:.2f}" '
            f'text-anchor="end">{_fmt_tick(tick)}</text>')
    for tick in _nice_ticks(x_lo, x_hi, 6):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_bottom}" x2="{x:.2f}" '
            f'y2="{axis_bottom + 4}" stroke="#333333" stroke-width="1"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{axis_bottom + 16}" '
            f'text-anchor="middle">{_fmt_tick(tick)}</text>')
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>')
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{height - 4}" '
        f'text-anchor="middle">{_esc(X_LABEL)}</text>')
    if y_label:
        cy = MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="12" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 12 {cy:.1f})">{_esc(y_label)}</text>')

    # Polylines.
    for s in reduced:
        coords = " ".join(f"{sx(tt):.2f},{sy(vv):.2f}"
                          for tt, vv in zip(s.t, s.v))
        parts.append(
            f'<polyline fill="none" stroke="{s.color}" stroke-width="1.5" '
            f'points="{coords}"/>')

    # Legend row under the title.
    lx = MARGIN_LEFT
    for s in reduced:
        parts.append(
            f'<line x1="{lx}" y1="{MARGIN_TOP - 6}" x2="{lx + 16}" '
            f'y2="{MARGIN_TOP - 6}" stroke="{s.color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 20}" y="{MARGIN_TOP - 2}">{_esc(s.label)}</text>')
        lx += 26 + 6 * len(s.label)
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# figure selection: shard columns -> paper-style charts
# ----------------------------------------------------------------------

def _mbps(t: Sequence[float], v: Sequence[float]) -> Tuple[List[float], List[float]]:
    return list(t), [x / 1e6 for x in v]


def _kb(t: Sequence[float], v: Sequence[float]) -> Tuple[List[float], List[float]]:
    return list(t), [x / 1e3 for x in v]


def _ms(t: Sequence[float], v: Sequence[float]) -> Tuple[List[float], List[float]]:
    return list(t), [x * 1e3 for x in v]


def _jain(shares: Sequence[float]) -> float:
    total = sum(shares)
    squares = sum(x * x for x in shares)
    n = len(shares)
    return (total * total) / (n * squares) if squares > 0 else 1.0


def figures_for_frame(name: str, frame: SeriesFrame, *,
                      pixel_width: int = DEFAULT_PIXEL_WIDTH) -> List[str]:
    """Build the SVG figures a shard's columns support, in a fixed order."""
    svgs: List[str] = []

    def chart(title: str, serieses: List[ChartSeries], y_label: str) -> None:
        serieses = [s for s in serieses if s.t]
        if serieses:
            svgs.append(svg_line_chart(
                f"{name}: {title}", serieses, y_label=y_label,
                pixel_width=pixel_width))

    # Fig. 1 style: sending rate riding the capacity curve, BWE below.
    rate_like: List[ChartSeries] = []
    if "pacer.sent_bytes" in frame.series:
        rt, rv = rate_series(*frame.points("pacer.sent_bytes"))
        rate_like.append(ChartSeries("sending rate", *_mbps(rt, rv)))
    if "link.capacity_bps" in frame.series:
        rate_like.append(
            ChartSeries("link capacity", *_mbps(*frame.points("link.capacity_bps"))))
    if "cc.bwe_bps" in frame.series:
        rate_like.append(ChartSeries("BWE", *_mbps(*frame.points("cc.bwe_bps"))))
    chart("sending rate vs capacity", rate_like, "Mbps")

    # Queuing view: estimator vs ground-truth link queue.
    queue_like: List[ChartSeries] = []
    if "ace.est_queue_bytes" in frame.series:
        queue_like.append(
            ChartSeries("estimated queue", *_kb(*frame.points("ace.est_queue_bytes"))))
    if "link.queue_bytes" in frame.series:
        queue_like.append(
            ChartSeries("link queue", *_kb(*frame.points("link.queue_bytes"))))
    if "pacer.backlog_bytes" in frame.series:
        queue_like.append(
            ChartSeries("pacer backlog", *_kb(*frame.points("pacer.backlog_bytes"))))
    chart("queue occupancy", queue_like, "KB")

    # Algorithm 1 state: bucket size vs token level.
    bucket_like: List[ChartSeries] = []
    if "ace.bucket_bytes" in frame.series:
        bucket_like.append(
            ChartSeries("ACE bucket size", *_kb(*frame.points("ace.bucket_bytes"))))
    if "bucket.size_bytes" in frame.series:
        bucket_like.append(
            ChartSeries("pacer bucket", *_kb(*frame.points("bucket.size_bytes"))))
    if "bucket.token_level_bytes" in frame.series:
        bucket_like.append(ChartSeries(
            "token level", *_kb(*frame.points("bucket.token_level_bytes"))))
    chart("token-bucket state", bucket_like, "KB")

    # Burstiness outcome: pacing-delay quantiles over time.
    pacing_like: List[ChartSeries] = []
    for col, label in (("burst.pacing_p50_s", "pacing p50"),
                       ("burst.pacing_p99_s", "pacing p99")):
        if col in frame.series:
            pacing_like.append(ChartSeries(label, *_ms(*frame.points(col))))
    chart("pacing delay quantiles", pacing_like, "ms")

    # Arena figures: per-flow sending rates and Jain index over time.
    flow_ids = sorted(
        int(m.group(1)) for col in frame.series
        if (m := _ARENA_FLOW_RE.match(col)))
    if flow_ids:
        flow_rates: Dict[int, Tuple[List[float], List[float]]] = {}
        per_flow: List[ChartSeries] = []
        for fid in flow_ids:
            rt, rv = rate_series(*frame.points(f"arena.flow{fid}.sent_bytes"))
            flow_rates[fid] = (rt, rv)
            per_flow.append(ChartSeries(f"flow {fid}", *_mbps(rt, rv)))
        chart("per-flow sending rate", per_flow, "Mbps")

        shares: List[ChartSeries] = []
        for fid in flow_ids:
            col = f"arena.flow{fid}.queue_share"
            if col in frame.series:
                ts, vs = frame.points(col)
                shares.append(ChartSeries(f"flow {fid}", ts, vs))
        chart("per-flow queue share", shares, "share")

        # Jain over time on the rate samples: all flows share the
        # recorder's time axis, so rate columns align index-for-index.
        if len(flow_rates) >= 2:
            lengths = {len(rt) for rt, _ in flow_rates.values()}
            jt: List[float] = []
            jv: List[float] = []
            if len(lengths) == 1:
                base_t = next(iter(flow_rates.values()))[0]
                for i, tt in enumerate(base_t):
                    jt.append(tt)
                    jv.append(_jain([rv[i] for _, rv in flow_rates.values()]))
            chart("Jain fairness index (rates)",
                  [ChartSeries("jain", jt, jv)], "index")
    return svgs


# ----------------------------------------------------------------------
# run-directory report
# ----------------------------------------------------------------------

_CSS = """body{font-family:sans-serif;margin:24px;color:#222}
h1{font-size:20px}h2{font-size:15px;border-bottom:1px solid #ddd;
padding-bottom:4px;margin-top:28px}svg{display:block;margin:10px 0}
p.meta{color:#666;font-size:12px}"""


def discover_shards(target: Path) -> List[Tuple[str, Path]]:
    """(label, path) pairs for every series shard under ``target``.

    Accepts a single shard file, a ``series/`` directory, or a run dir
    containing one. Sorted by label for deterministic report order.
    """
    target = Path(target)
    if target.is_file():
        return [(target.stem, target)]
    series_dir = target / "series" if (target / "series").is_dir() else target
    if not series_dir.is_dir():
        return []
    return sorted(
        (p.stem, p) for p in series_dir.glob("*.json") if p.is_file())


def render_html_report(shards: Sequence[Tuple[str, SeriesFrame]], *,
                       title: str = "repro time-series report",
                       pixel_width: int = DEFAULT_PIXEL_WIDTH) -> str:
    """Self-contained HTML: inline SVGs, inline CSS, zero external refs."""
    body: List[str] = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if not shards:
        body.append("<p>No time-series shards found. Re-run with "
                    "<code>--series</code> / <code>--series-out</code>.</p>")
    for label, frame in shards:
        body.append(f"<h2>{_esc(label)}</h2>")
        meta = frame.meta
        stride = meta.get("stride")
        body.append(
            f'<p class="meta">{len(frame.t)} samples, stride {stride}, '
            f"{len(frame.series)} series</p>")
        figs = figures_for_frame(label, frame, pixel_width=pixel_width)
        if figs:
            body.extend(figs)
        else:
            body.append("<p>No renderable series in this shard.</p>")
    body.append("</body></html>")
    return "\n".join(body) + "\n"


def render_run(target: str | Path, out: Optional[str | Path] = None, *,
               pixel_width: int = DEFAULT_PIXEL_WIDTH) -> Path:
    """Render a run dir (or single shard) to a self-contained HTML file.

    Deterministic end to end: shard order, M4 reduction, and SVG
    emission are all pure functions of the inputs, so re-rendering the
    same run is byte-identical. The write is atomic.
    """
    target = Path(target)
    pairs = discover_shards(target)
    frames = [(label, load_shard(path)) for label, path in pairs]
    base = target if target.is_dir() else target.parent
    out_path = Path(out) if out is not None else base / "report.html"
    title = f"repro time-series report: {base.name or 'run'}"
    atomic_write_text(
        out_path,
        render_html_report(frames, title=title, pixel_width=pixel_width))
    return out_path
