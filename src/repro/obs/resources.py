"""Process resource probes for live-mode accounting.

Stdlib-only (``/proc`` with a ``resource`` fallback): the live
supervisor samples RSS on every heartbeat, so the probe must be cheap
and must not import psutil (not a dependency). CPU attribution is
*not* here — per-session CPU is measured where the work actually
happens, in :class:`repro.live.clock.WallClock`'s per-wake accounting,
because all session work (pacer pump, capture tick, feedback) runs as
clock callbacks rather than coroutine steps.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["process_rss_bytes"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def process_rss_bytes() -> Optional[float]:
    """Resident set size of this process in bytes, or None.

    Linux: second field of ``/proc/self/statm`` (pages). Fallback:
    ``resource.getrusage`` peak RSS (kilobytes on Linux, bytes on
    macOS) — a peak rather than a current value, but monotone and
    better than nothing on non-procfs platforms.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return float(int(fields[1]) * _PAGE_SIZE)
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        import sys
        scale = 1 if sys.platform == "darwin" else 1024
        return float(peak * scale)
    except Exception:
        return None
