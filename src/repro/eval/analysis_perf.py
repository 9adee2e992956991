"""Fig. 12 — parsing, type-checking and sharding-analysis times.

Runs the deployment pipeline over the whole corpus, repeating each
contract and averaging, exactly as the paper does (1000 repetitions on
their machine; configurable here).  Reports per-stage microseconds and
the analysis overhead relative to total deployment time.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..contracts import CORPUS
from ..core.pipeline import run_pipeline


@dataclass
class Fig12Row:
    contract: str
    parse_us: float
    typecheck_us: float
    analysis_us: float

    @property
    def total_us(self) -> float:
        return self.parse_us + self.typecheck_us + self.analysis_us


@dataclass
class Fig12Result:
    rows: list[Fig12Row] = dc_field(default_factory=list)
    repetitions: int = 0

    @property
    def analysis_overhead(self) -> float:
        """Analysis time as a fraction of parse+typecheck (Sec. 5.1.1
        reports ~46% of total deployment time added)."""
        base = sum(r.parse_us + r.typecheck_us for r in self.rows)
        analysis = sum(r.analysis_us for r in self.rows)
        return analysis / base if base else 0.0


def run_fig12(repetitions: int = 20,
              contracts: dict[str, str] | None = None) -> Fig12Result:
    contracts = contracts if contracts is not None else CORPUS
    result = Fig12Result(repetitions=repetitions)
    for name, source in contracts.items():
        parse = typecheck = analysis = 0.0
        for _ in range(repetitions):
            r = run_pipeline(source, name)
            us = r.timings.as_microseconds()
            parse += us["parse"]
            typecheck += us["typecheck"]
            analysis += us["analysis"]
        result.rows.append(Fig12Row(
            name, parse / repetitions, typecheck / repetitions,
            analysis / repetitions))
    result.rows.sort(key=lambda r: r.total_us, reverse=True)
    return result


def format_fig12(result: Fig12Result) -> str:
    lines = [
        "Fig. 12 — deployment pipeline times (µs, averaged over "
        f"{result.repetitions} runs)",
        "",
        f"{'contract':28s} {'parse':>9s} {'typecheck':>10s} "
        f"{'analysis':>9s} {'total':>9s}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.contract:28s} {row.parse_us:>9.1f} "
            f"{row.typecheck_us:>10.1f} {row.analysis_us:>9.1f} "
            f"{row.total_us:>9.1f}")
    lines.append("")
    lines.append(
        f"analysis adds {100 * result.analysis_overhead:.1f}% on top of "
        "parsing+typechecking (paper: ~46% of total)")
    return "\n".join(lines)

