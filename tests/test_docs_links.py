"""Every document the docs, CI and docstrings point at exists."""

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
