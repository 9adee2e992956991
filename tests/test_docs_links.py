"""Every document, module and `repro bench` experiment the docs, CI and
docstrings point at exists."""

import argparse
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# ROADMAP.md, CHANGES.md and ISSUE.md are history: they may name files
# that are gone, and are not scanned.
SOURCES = [ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml",
           *(ROOT / "docs").glob("*.md"), *(ROOT / "src").rglob("*.py")]
# docs/<NAME>.md, or a bare <NAME>.md (root level, or a docs/ sibling).
DOC_NAME = re.compile(r"(docs/)?\b([A-Z][A-Za-z_]*\.md)\b")


def test_named_documents_exist():
    missing = sorted({
        f"{source.relative_to(ROOT)}: {match.group(0)}"
        for source in SOURCES
        for match in DOC_NAME.finditer(source.read_text(encoding="utf-8"))
        if not (ROOT / "docs" / match.group(2)).exists()
        and (match.group(1) or not (ROOT / match.group(2)).exists())})
    assert not missing, "\n".join(missing)


# A dotted module path under repro, with any attribute chain after it.
DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
BENCH_EXPERIMENT = re.compile(r"\brepro\s+bench\s+([a-z]\w*)")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _mentions(pattern):
    for source in SOURCES:
        for match in pattern.finditer(source.read_text(encoding="utf-8")):
            yield source.relative_to(ROOT), match


def test_named_repro_names_resolve():
    missing = sorted({f"{source}: {match.group(0)}"
                      for source, match in _mentions(DOTTED_NAME)
                      if not _resolves(match.group(0))})
    assert not missing, "\n".join(missing)


def test_named_bench_experiments_are_cli_choices():
    from repro.cli import build_parser

    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    [experiment] = [action for action in commands.choices["bench"]._actions
                    if action.dest == "experiment"]
    unknown = sorted({f"{source}: {match.group(0)}"
                      for source, match in _mentions(BENCH_EXPERIMENT)
                      if match.group(1) not in experiment.choices})
    assert not unknown, "\n".join(unknown)
