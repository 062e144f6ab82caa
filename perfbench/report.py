"""Plain-text rendering of results, for people reading a terminal."""

from __future__ import annotations

import json
import re
import statistics

from perfbench.spec import END_TO_END, per_layer


def describe(result, traced: bool) -> str:
    """Every metric of one run by name, with its unit."""
    units = per_layer() if traced else END_TO_END
    lines = [f"{result.workload} seed={result.seed} "
             f"{'traced' if traced else 'untraced'}: "
             f"{result.attempted} operations, {result.failed} failed"]
    for note in result.notes:
        lines.append(f"  ! {note}")
    for name, spec in units.items():
        value = result.metrics[name]
        if traced and not value:
            continue            # 0 = does not apply to this workload
        lines.append(f"  {name:<38}{value:>16.6g} {spec[0]}")
    return "\n".join(lines)


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def dump_json(obj) -> str:
    """Indented JSON, with lists of scalars kept on one line."""
    text = json.dumps(obj, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]",
                  text) + "\n"
