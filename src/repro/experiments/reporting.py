"""Plain-text experiment output: tables, series bars and the one-shot
reproduction report.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output aligned and greppable
(no external plotting dependencies).  ``python -m repro report``
(:func:`generate_report`) regenerates, in one run, a compact version of
everything EXPERIMENTS.md records: the six figure scenarios, Table 1,
the Figure 7 sweep (reduced), the per-scheme overhead comparison, and a
pair of execution timelines — a self-contained artifact a reviewer can
diff against the paper.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .figure7 import Figure7Config


def format_cell(value: Any, precision: int = 3) -> str:
    """Render one cell: floats get fixed precision, the rest ``str``."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: Optional[str] = None, precision: int = 3) -> str:
    """An aligned ASCII table."""
    str_rows: List[List[str]] = [[format_cell(c, precision) for c in row]
                                 for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def log_series_bar(value: float, lo: float = 1.0, hi: float = 10_000.0,
                   width: int = 40) -> str:
    """A crude log-scale bar, for eyeballing Figure 7 shapes in text."""
    import math
    if value <= 0:
        return ""
    frac = (math.log10(value) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
    frac = min(1.0, max(0.0, frac))
    return "#" * max(1, int(round(frac * width)))


def generate_report(fig7_config: Optional["Figure7Config"] = None) -> str:
    """Build the full report as one string."""
    # Deferred: these modules import format_table from this one.
    from ..coordination.scheme import Scheme
    from .figure7 import Figure7Config, format_figure7, run_figure7
    from .overhead import OverheadConfig, format_overhead, run_overhead
    from .scenarios import run_all_scenarios
    from .table1 import Table1Config, format_table1, run_table1
    from .timeline import demo_timeline

    out = io.StringIO()
    with redirect_stdout(out):
        print("=" * 72)
        print("Reproduction report — 'Synergistic Coordination between "
              "Software and")
        print("Hardware Fault Tolerance Techniques' (DSN 2001)")
        print("=" * 72)
        print()
        print("--- Scenario reproductions (Figures 1, 2, 3, 4, 6) ---")
        results = run_all_scenarios()
        for result in results:
            print(result)
        print()
        print("--- Checkpoint-pattern timelines ---")
        for scheme, title in (
                (Scheme.MDCD_ONLY, "Figure 1 — original MDCD"),
                (Scheme.COORDINATED,
                 "Figure 3 — modified MDCD under coordination")):
            print(title)
            print(demo_timeline(scheme, since=200.0, until=1800.0, width=96))
            print()
        print("--- Table 1 ---")
        config = Table1Config()
        print(format_table1(run_table1(config), config))
        print()
        print("--- Figure 7 (reduced sweep) ---")
        fig7 = fig7_config if fig7_config is not None else Figure7Config(
            internal_rates=(60, 120, 200), horizon=20_000.0, replications=1)
        print(format_figure7(run_figure7(fig7)))
        print()
        print("--- Performance cost by scheme ---")
        print(format_overhead(run_overhead(OverheadConfig())))
        print()
        passed = sum(1 for r in results if r.passed)
        print(f"Scenario verdict: {passed}/{len(results)} paper claims "
              f"reproduced.")
    return out.getvalue()
