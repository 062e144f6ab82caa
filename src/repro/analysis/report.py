"""Human-readable comparison of run results."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.results import RunResult


def compare_runs(results: Iterable[RunResult],
                 reference_baseline: str = "webrtc-star") -> str:
    """Tabulate results relative to a reference baseline.

    Results are grouped by (trace, seed, category); within each group,
    latency and quality are expressed relative to the reference (the
    Fig. 12 reading: "X% latency cut at Y VMAF delta").
    """
    results = list(results)
    groups: dict[tuple, list[RunResult]] = {}
    for r in results:
        groups.setdefault((r.trace, r.seed, r.category), []).append(r)

    lines = []
    for (trace, seed, category), group in sorted(groups.items()):
        reference: Optional[RunResult] = next(
            (r for r in group if r.baseline == reference_baseline), None)
        lines.append(f"== {trace} seed={seed} {category} ==")
        header = (f"{'baseline':<14}{'p95':>10}{'vs ref':>9}"
                  f"{'VMAF':>7}{'dVMAF':>7}{'loss':>8}{'stall':>8}")
        lines.append(header)
        for r in sorted(group, key=lambda x: x.p95_latency):
            if reference is not None and reference.p95_latency > 0:
                rel = (1 - r.p95_latency / reference.p95_latency) * 100
                rel_s = f"{rel:+.0f}%"
                dv = r.mean_vmaf - reference.mean_vmaf
                dv_s = f"{dv:+.1f}"
            else:
                rel_s, dv_s = "n/a", "n/a"
            lines.append(
                f"{r.baseline:<14}"
                f"{r.p95_latency * 1000:>8.1f}ms{rel_s:>9}"
                f"{r.mean_vmaf:>7.1f}{dv_s:>7}"
                f"{r.loss_rate * 100:>7.2f}%{r.stall_rate * 100:>7.2f}%")
        lines.append("")
    return "\n".join(lines).rstrip()


# ----------------------------------------------------------------------
# time-series divergence (repro report --diff)
# ----------------------------------------------------------------------
def series_divergence_lines(candidate_dir, reference_dir, *,
                            window_s: float = 1.0) -> list[str]:
    """Per-shard max-divergence lines for two run directories.

    Both run dirs must carry ``series/`` shards (recorded with
    ``--series``); shards present in only one side are skipped. Each
    common shard contributes one line naming the series and the time
    window where the candidate diverged the most from the reference —
    the "when", complementing the aggregate diff's "whether". Returns
    ``[]`` when either side has no shards, so the diff degrades cleanly
    on pre-series run dirs.
    """
    from pathlib import Path

    from repro.obs.timeseries import load_shard, max_divergence_window

    def shards(run_dir) -> dict:
        series_dir = Path(run_dir) / "series"
        if not series_dir.is_dir():
            return {}
        return {p.stem: p for p in sorted(series_dir.glob("*.json"))}

    cand = shards(candidate_dir)
    ref = shards(reference_dir)
    lines: list[str] = []
    for name in sorted(set(cand) & set(ref)):
        try:
            window = max_divergence_window(
                load_shard(cand[name]), load_shard(ref[name]),
                window_s=window_s)
        except (ValueError, OSError, KeyError):
            continue
        if window is None:
            continue
        lines.append(
            f"  {name}: max divergence in {window['series']} over "
            f"t=[{window['start']:.2f}, {window['end']:.2f}]s "
            f"(candidate mean {window['candidate_mean']:.6g} vs "
            f"reference {window['reference_mean']:.6g}, "
            f"normalized {window['divergence']:.3f})")
    if lines:
        lines.insert(0, "time-series divergence (worst window per shard):")
    return lines
