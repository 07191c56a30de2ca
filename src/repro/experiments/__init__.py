"""Experiment harnesses: the paper's figures and table, plus ablations.

* :mod:`~repro.experiments.scenarios` — executable reproductions of the
  illustrative Figures 1, 2, 3, 4 and 6.
* :mod:`~repro.experiments.table1` — the original-vs-adapted TB
  comparison of Table 1, measured.
* :mod:`~repro.experiments.figure7` — the headline rollback-distance
  sweep (E[D_co] vs E[D_wt]).
* :mod:`~repro.experiments.ablations` — removals of each load-bearing
  design choice, plus the regime study of the Figure 7 gap.
"""

from .ablations import (
    AblationRow,
    ablate_at_coverage,
    ablate_blocking,
    ablate_dirty_fraction,
    ablate_interval,
    ablate_ndc_gating,
    ablate_swap,
    format_ablation,
)
from .figure7 import Figure7Config, Figure7Point, format_figure7, run_figure7, run_point
from .overhead import (
    CostProfile,
    OverheadConfig,
    format_overhead,
    measure_scheme,
    run_overhead,
)
from .reporting import format_table, generate_report, log_series_bar
from .runner import CampaignResult, replication_seeds, run_campaign
from .scenarios import (
    PairSystem,
    ScenarioResult,
    figure1_checkpoint_pattern,
    figure2_tb_blocking,
    figure3_modified_pattern,
    figure4a_naive_loss,
    figure4b_in_transit_notification,
    figure6_coordination_cases,
    run_all_scenarios,
)
from .table1 import Table1Config, format_table1, run_table1
from .timeline import render_timeline

__all__ = [
    "AblationRow",
    "CampaignResult",
    "CostProfile",
    "Figure7Config",
    "Figure7Point",
    "OverheadConfig",
    "PairSystem",
    "ScenarioResult",
    "Table1Config",
    "ablate_at_coverage",
    "ablate_blocking",
    "ablate_dirty_fraction",
    "ablate_interval",
    "ablate_ndc_gating",
    "ablate_swap",
    "figure1_checkpoint_pattern",
    "figure2_tb_blocking",
    "figure3_modified_pattern",
    "figure4a_naive_loss",
    "figure4b_in_transit_notification",
    "figure6_coordination_cases",
    "format_ablation",
    "format_figure7",
    "format_overhead",
    "format_table",
    "format_table1",
    "generate_report",
    "log_series_bar",
    "measure_scheme",
    "replication_seeds",
    "run_all_scenarios",
    "run_campaign",
    "run_figure7",
    "run_overhead",
    "run_point",
    "run_table1",
    "render_timeline",
]
