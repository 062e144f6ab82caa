"""Every ``DESIGN §N`` and ``ROADMAP item N`` reference resolves.

Code, tests and docs cite DESIGN.md by section (``DESIGN §3a``,
``DESIGN.md §10``) and ROADMAP.md by open item (``ROADMAP item 8``). A
section that is renumbered or an item that is dropped must take its
citations with it. A placeholder written without a digit (``DESIGN §N``)
is not a reference.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples", "scripts", ".claude")
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md")
SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".txt"}
REFERENCE = re.compile(r"DESIGN(?:\.md)?\s+§(\w+)|ROADMAP\s+item\s+(\w+)")


def scanned_files() -> list[Path]:
    files = [ROOT / name for name in DOCS]
    for tree in TREES:
        files += sorted(p for p in (ROOT / tree).rglob("*")
                        if p.suffix in SUFFIXES and p.is_file()
                        and "__pycache__" not in p.parts)
    return files


def design_sections() -> set[str]:
    """``3``, ``3a``, ... from DESIGN.md's ``##``/``###`` headings."""
    text = (ROOT / "DESIGN.md").read_text()
    return set(re.findall(r"^#{2,3} (\d+[a-z]?)\.", text, flags=re.M))


def roadmap_items() -> set[str]:
    """The numbers of ROADMAP.md's open items."""
    text = (ROOT / "ROADMAP.md").read_text()
    section = text[text.index("\n## Open items"):]
    section = section[:section.index("\n## ", 1)]
    return set(re.findall(r"^(\d+)\. \*\*", section, flags=re.M))


def test_every_design_and_roadmap_reference_resolves():
    sections, items = design_sections(), roadmap_items()
    found, dangling = 0, []
    for path in scanned_files():
        for match in REFERENCE.finditer(path.read_text(encoding="utf-8")):
            section, item = match.groups()
            name = section or item
            if not any(ch.isdigit() for ch in name):
                continue                    # a placeholder, e.g. DESIGN §N
            found += 1
            if name not in (sections if section else items):
                dangling.append(f"{path.relative_to(ROOT)}: "
                                f"{' '.join(match.group(0).split())}")
    assert found >= 50, "the scan is meant to see the repo's references"
    assert dangling == [], "references to no section or item:\n" + "\n".join(
        dangling)

