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


def _catalogue() -> dict[str, tuple[str, bool]]:
    """docs/OBSERVABILITY.md's catalogue tables: name -> (kind, det)."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split("## Instrument catalogue")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            names, kind, det = line.split("|")[1:4]
            for name in re.findall(r"`([^`]+)`", names):
                rows[name] = (kind.strip(), det.strip(" *") == "yes")
    return rows


def test_the_instrument_catalogue_is_the_registry(tmp_path):
    """Every instrument an enabled registry holds is a catalogue row of
    the same kind and determinism flag, and every row is registered."""
    from repro.core.cache import SummaryCache
    from repro.eval.service import run_service
    from repro.eval.telemetry import run_instrumented
    from repro.obs import MetricsRegistry
    from repro.scilla.backend import SqliteBackend

    cache_registry = MetricsRegistry()
    SummaryCache(metrics=cache_registry)
    registries = [cache_registry, run_instrumented(epochs=1).registry]
    for durable_or_paged in (dict(data_dir=str(tmp_path)),
                             dict(state_backend=SqliteBackend())):
        net = run_service(ticks=2, txns_per_tick=10, population=50,
                          drain_ticks=4, **durable_or_paged).net
        net.close()
        registries.append(net.metrics)
    registered = {name: (kind[:-1], data["deterministic"])
                  for registry in registries
                  for kind, instruments in registry.snapshot().items()
                  for name, data in instruments.items()}
    catalogue = _catalogue()
    assert sorted(set(registered) - set(catalogue)) == []
    assert sorted(set(catalogue) - set(registered)) == []
    assert {name: catalogue[name] for name in registered} == registered
