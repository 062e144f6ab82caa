"""Correctness checks against ``expected.json``.

``expected.json`` pins, for the default seed, what the **reference
engine** produces from each simulated workload's inputs, unobserved: a
sha256 over every timing-sensitive output and the six headline
statistics. A workload that asks for the reference engine must
reproduce the hash; one that asks for the batch engine must keep the
statistics within the engine contract's ``REL_TOL`` — whether it runs
the fast path or falls back — so a workload that one day moves from
fallback to fast path is still held to the oracle. Other seeds have no
pins: they report ``unpinned`` and keep only the determinism check the
parent makes (every repetition of a run hashes the same).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from perfbench.spec import DEFAULT_SEED
from perfbench.workloads import (QUICK_SCALE, REL_TOL, WORKLOADS, divergence,
                                 fingerprint, headline)

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def pinned_variants(path: Optional[str], name: str, seed: int,
                    scale: float) -> Optional[list]:
    """The pins of ``(workload, seed, scale)``, one per variant, or None
    if that combination is not pinned."""
    file = Path(path) if path else EXPECTED
    if not file.is_file():
        return None
    expected = json.loads(file.read_text())
    if seed != expected.get("seed"):
        return None
    return expected.get("entries", {}).get(name, {}).get(f"{scale:g}")


def check_rep(workload, rep, pinned: Optional[dict]) -> list:
    """Failure notes for one repetition (empty = correct)."""
    if pinned is None or workload.kind == "live":
        return []
    if workload.kind == "sim" and workload.engine == "batch":
        worst = divergence(rep.stats, pinned["stats"])
        if worst > REL_TOL:
            return [f"headline statistics diverge {worst:.3g} from the "
                    f"pinned reference-engine values (tolerance {REL_TOL:g})"]
        return []
    if rep.fingerprint != pinned["fingerprint"]:
        return [f"fingerprint {rep.fingerprint[:16]}... does not match the "
                f"pinned {pinned['fingerprint'][:16]}..."]
    return []


def repin(path: Optional[str] = None) -> dict:
    """Regenerate ``expected.json`` from the reference engine."""
    entries: dict = {}
    for name, workload in WORKLOADS.items():
        if workload.kind == "live":
            continue
        entries[name] = {}
        for scale in (1.0, QUICK_SCALE):
            pins = []
            for variant in workload.inputs(DEFAULT_SEED, scale):
                if workload.kind != "sim":
                    rep = workload.digest(workload.run(variant), variant)
                    pins.append({"fingerprint": rep.fingerprint})
                    continue
                _session, metrics, result, _build = workload.twin(
                    variant, "reference")
                pins.append({"stats": headline(result)}
                            if workload.engine == "batch"
                            else {"fingerprint": fingerprint(metrics)})
            entries[name][f"{scale:g}"] = pins
    expected = {"seed": DEFAULT_SEED, "entries": entries}
    file = Path(path) if path else EXPECTED
    file.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return expected
