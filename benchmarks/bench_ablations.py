"""Ablations — removing each load-bearing design choice.

Not in the paper; DESIGN.md calls these out.  Each ablation prints a
table and asserts the mechanism's measured value:

* the mid-blocking swap prevents Fig. 4(b) line corruption;
* the ``Ndc`` gate prevents wrong-epoch knowledge application;
* the blocking period prevents consistency violations;
* acceptance-test coverage below 1.0 lets contamination hide behind a
  clean dirty bit;
* the Fig. 7 gap erodes as the dirty fraction approaches 1 (regime
  boundary of the headline result).
"""

from conftest import full_mode

from repro.experiments.ablations import (
    ablate_at_coverage,
    ablate_blocking,
    ablate_dirty_fraction,
    ablate_interval,
    ablate_ndc_gating,
    ablate_swap,
    format_ablation,
)


def test_ablation_swap(bench_once):
    rows = bench_once(ablate_swap, 40 if full_mode() else 12)
    print()
    print(format_ablation("Ablation 1 — mid-blocking content swap", rows))
    off = next(r for r in rows if r.label == "swap disabled")
    on = next(r for r in rows if r.label == "swap enabled")
    assert off.metrics["fig4b windows"] > 0
    assert off.metrics["invalid lines"] > 0
    assert on.metrics["invalid lines"] == 0


def test_ablation_ndc_gating(bench_once):
    rows = bench_once(ablate_ndc_gating, 4 if full_mode() else 2, 2000.0)
    print()
    print(format_ablation("Ablation 2 — Ndc gating of passed-AT handling", rows))
    on = next(r for r in rows if "on" in r.label)
    off = next(r for r in rows if "off" in r.label)
    assert on.metrics["violations"] == "none"
    assert off.metrics["violations"] != "none"
    assert on.metrics["gated (mismatched-epoch) notifications"] > 0


def test_ablation_blocking(bench_once):
    rows = bench_once(ablate_blocking, 4 if full_mode() else 2, 2000.0)
    print()
    print(format_ablation("Ablation 3 — blocking period", rows))
    on = next(r for r in rows if "on" in r.label)
    off = next(r for r in rows if "off" in r.label)
    assert on.metrics["violations"] == "none"
    assert off.metrics["violations"] != "none"


def test_ablation_at_coverage(bench_once):
    coverages = (1.0, 0.9, 0.6, 0.3) if full_mode() else (1.0, 0.5)
    rows = bench_once(ablate_at_coverage, coverages, 4, 3000.0)
    print()
    print(format_ablation("Ablation 4 — acceptance-test coverage", rows))
    perfect = rows[0]
    weakest = rows[-1]
    key = "undetected contamination in believed-clean state"
    assert perfect.metrics[key] == 0
    assert weakest.metrics[key] > 0


def test_ablation_dirty_fraction(bench_once):
    mults = (1, 5, 20, 80, 300) if full_mode() else (1, 20, 300)
    rows = bench_once(ablate_dirty_fraction, mults)
    print()
    print(format_ablation("Ablation 5 — dirty-fraction regime (Fig. 7 boundary)",
                          rows))
    factors = [r.metrics["measured wt/co"] for r in rows]
    # The gap collapses monotonically toward ~1 as f_d -> 1.
    assert factors[0] > 3.0
    assert factors[-1] < factors[0] / 2.0
    assert factors[-1] < 2.5


def test_ablation_interval(bench_once):
    rows = bench_once(ablate_interval,
                      (2.0, 6.0, 12.0, 24.0) if full_mode() else (2.0, 24.0))
    print()
    print(format_ablation("Ablation 6 — checkpoint interval (Delta/2 trade)",
                          rows))
    co = [r.metrics["E[D_co]"] for r in rows]
    wt = [r.metrics["E[D_wt]"] for r in rows]
    # E[D_co] grows with the interval; write-through is interval-blind.
    assert co[-1] > co[0]
    assert wt[0] == wt[-1]
    # The model's Delta/2 slope: widening Delta by 22 s should add
    # roughly 11 s (loose band for the rare-event estimator).
    assert 4.0 < (co[-1] - co[0]) < 25.0
