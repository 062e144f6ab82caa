"""The decision log: one row per control-law choice, in columns.

ACE-N's bucket moves, ACE-C's per-frame levels and every congestion
controller's BWE updates are rows of one shape — ``time``, the law's
``branch``, the controlled value ``before`` and ``after`` it, and the
law's ``input`` (DESIGN §14 registers each controller's branches and
units). A row costs five list appends and no object.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence


class DecisionLog:
    """Five parallel plain-list columns, appended one row at a time."""

    __slots__ = ("time", "branch", "before", "after", "input")

    def __init__(self) -> None:
        self.time, self.branch, self.before, self.after, self.input = (
            [], [], [], [], [])

    def append(self, time: float, branch: str, before: float, after: float,
               input: float) -> None:
        self.time.append(time)
        self.branch.append(branch)
        self.before.append(before)
        self.after.append(after)
        self.input.append(input)

    def __len__(self) -> int:
        return len(self.time)


def step_function(history: Sequence[tuple[float, float]]
                  ) -> Callable[[float], float]:
    """The value a time-ordered, non-empty ``(time, value)`` history holds
    at ``t``: its last entry at or before ``t`` — so of two entries at one
    instant the later write, which a sort by value gets wrong — or the
    first entry for an earlier ``t``."""
    times = [t for t, _ in history]
    values = [v for _, v in history]

    def at(t: float) -> float:
        return values[max(bisect_right(times, t) - 1, 0)]

    return at
