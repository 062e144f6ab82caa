"""The docs point at things that exist.

* Every ``DESIGN §N`` and ``ROADMAP item N`` reference resolves. Code,
  tests and docs cite DESIGN.md by section (``DESIGN §3``,
  ``DESIGN.md §10``) and ROADMAP.md by open item (``ROADMAP item 8``).
  A section that is renumbered or an item that is dropped must take its
  citations with it. A placeholder written without a digit
  (``DESIGN §N``) is not a reference.
* Every numbered DESIGN section after the paper summary names the code
  that implements it and the tests that check it.
* Every backticked repo path and every dotted ``repro.…`` name in the
  docs exists: a path on disk (a ``::name`` suffix must be defined in
  that file), a name after import plus ``getattr``.
* README's flag table is what ``scripts/cli_flag_table.py`` prints.

None of these can tell a citation that points at the wrong section;
re-point a citation by its content.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples", "scripts", ".claude",
         ".github")
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md")
SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".txt"}
REFERENCE = re.compile(r"DESIGN(?:\.md)?`?\s+§(\w+)|ROADMAP\s+item\s+(\w+)")

#: the docs whose paths and ``repro.`` names must resolve
NAMING_DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md",
               ".claude/skills/verify/SKILL.md")
#: a backticked span, which may wrap onto the next line
BACKTICKED = re.compile(r"`([^`]{1,200})`")
REPO_PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks|scripts|examples)"
                       r"/[\w./*<>-]*[\w*>])(?:::\s*(\w+))?")
DOTTED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
TEST_FILE = re.compile(r"(?<![\w/])tests/test_\w+\.py")
SRC_FILE = re.compile(r"(?<![\w/])src/repro/[\w/]+\.py")


def scanned_files() -> list[Path]:
    files = [ROOT / name for name in DOCS]
    for tree in TREES:
        files += sorted(p for p in (ROOT / tree).rglob("*")
                        if p.suffix in SUFFIXES and p.is_file()
                        and "__pycache__" not in p.parts)
    return files


def design_section_bodies() -> dict[str, str]:
    """Each numbered ``##`` section of DESIGN.md (``3``, ``3a``, ...),
    from its heading to the next ``##``."""
    text = (ROOT / "DESIGN.md").read_text()
    heads = list(re.finditer(r"^## (\d+[a-z]?)\. ", text, flags=re.M))
    ends = [m.start() for m in re.finditer(r"^## ", text, flags=re.M)]
    return {head.group(1): text[head.start():next(
                (end for end in ends if end > head.start()), len(text))]
            for head in heads}


def roadmap_items() -> set[str]:
    """The numbers of ROADMAP.md's open items."""
    text = (ROOT / "ROADMAP.md").read_text()
    section = text[text.index("\n## Open items"):]
    section = section[:section.index("\n## ", 1)]
    return set(re.findall(r"^(\d+)\. \*\*", section, flags=re.M))


def resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    else:
        return False
    for attr in parts[cut:]:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return False
    return True


def path_exists(path: str, member: str | None) -> bool:
    if "*" in path:
        return any(ROOT.glob(path))
    target = ROOT / path
    if not target.exists():
        return False
    if member is None:
        return True
    return re.search(rf"^\s*(?:def|class) {member}\b", target.read_text(),
                     flags=re.M) is not None


def test_every_design_and_roadmap_reference_resolves():
    sections, items = set(design_section_bodies()), roadmap_items()
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


def test_each_design_section_names_its_code_and_tests():
    bodies = design_section_bodies()
    assert len(bodies) >= 10, "the scan is meant to see DESIGN's sections"
    missing = []
    for number, body in bodies.items():
        if number == "1":
            continue                        # the paper summary
        code = ([p for p in SRC_FILE.findall(body) if (ROOT / p).is_file()]
                + [n for n in DOTTED.findall(body) if resolves(n)])
        tests = [p for p in TEST_FILE.findall(body) if (ROOT / p).is_file()]
        if not code:
            missing.append(f"§{number} names no existing module")
        if not tests:
            missing.append(f"§{number} names no existing test file")
    assert missing == [], "\n".join(missing)


def test_every_path_and_name_the_docs_cite_exists():
    checked, stale = 0, []
    for doc in NAMING_DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for span in BACKTICKED.findall(text.replace("```", "")):
            for path, member in REPO_PATH.findall(span):
                if "<" in path:
                    continue                # a pattern, e.g. test_fig<NN>
                checked += 1
                if not path_exists(path, member or None):
                    stale.append(f"{doc}: {path}"
                                 + (f"::{member}" if member else ""))
        for name in DOTTED.findall(text):
            checked += 1
            if not resolves(name):
                stale.append(f"{doc}: {name}")
    assert checked >= 100, "the scan is meant to see the docs' names"
    assert stale == [], "cited but missing:\n" + "\n".join(sorted(set(stale)))


def test_readme_flag_table_is_what_the_parser_prints():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        runpy.run_path(str(ROOT / "scripts" / "cli_flag_table.py"),
                       run_name="__main__")
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| command |"))
    end = next((i for i in range(start, len(lines))
                if not lines[i].startswith("|")), len(lines))
    assert "\n".join(lines[start:end]) == printed.getvalue().rstrip("\n"), (
        "regenerate README's table: PYTHONPATH=src python "
        "scripts/cli_flag_table.py")
