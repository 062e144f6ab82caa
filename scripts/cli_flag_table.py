#!/usr/bin/env python3
"""Print README's "which command takes which shared flag" table.

Read off the real parser (``repro.cli.FLAGS``, the flag groups and
``build_parser()``), so the table cannot describe a flag a command does
not define. Run from the repo root: ``PYTHONPATH=src python
scripts/cli_flag_table.py``.
"""

import argparse

from repro import cli

GROUPS = [("workload", cli.WORKLOAD), ("stack", cli.STACK),
          ("runner", cli.RUNNER),
          ("live path", tuple(f for f in cli.LIVE_PATH if f != "--rtt")),
          ("SLO/stall", cli.SLO)]


def ticks(flags) -> str:
    return " ".join(f"`{flag}`" for flag in flags) or "–"


def main() -> None:
    grouped = {flag for _, flags in GROUPS for flag in flags}
    singles = [flag for flag in cli.FLAGS if flag not in grouped]
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    print("| command | "
          + " | ".join(f"{name}: {ticks(flags)}" for name, flags in GROUPS)
          + " | other shared flags | states its own |")
    print("|---|" + "---|" * (len(GROUPS) + 2))
    for name, parser in sub.choices.items():
        taken = {flag: action for action in parser._actions
                 for flag in action.option_strings if flag in cli.FLAGS}
        if not taken:
            continue
        cells = []
        for _, flags in GROUPS:
            have = [flag for flag in flags if flag in taken]
            cells.append("all" if len(have) == len(flags) else ticks(have))
        own = [f"`{flag}` required" if action.required
               else f"`{flag}` default {action.default}"
               for flag, action in taken.items()
               if action.required
               or action.default != cli.FLAGS[flag].get("default", False)]
        print(f"| `{name}` | " + " | ".join(cells)
              + f" | {ticks(f for f in singles if f in taken)}"
              + f" | {', '.join(own) or '–'} |")


if __name__ == "__main__":
    main()
