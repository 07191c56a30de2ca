"""Warm-start prefix-resume speedup vs cold replay, with equivalence gates.

Measures, via :mod:`repro.experiments.warmstart_bench`:

* wall-clock of a late-divergence boundary audit campaign, cold vs
  warm (``run_audit(..., warmstart=True)``) — asserting the headline
  claim that prefix-resume is **at least 3x** faster;
* wall-clock of shrinking every violator the campaign found, cold vs
  warm — the same **3x** bar (shrink replays all share the violator's
  prefix, the warm-start best case);
* wall-clock of a dense near-boundary campaign run cold, warm and
  flock (``run_audit(..., flock=True)``) — recorded, not gated: warm
  resumes and template forks thaw through one shared-table codec, so
  the flock-vs-warm ratio is what a resident template saves on top of
  it, and the campaign ledger (``benchmarks/e2e``) bounds both rows
  relative to their parent commit;
* that acceleration is invisible: identical violation sets, identical
  error sets, identical shrink results (schedule, replays, memo hits),
  identical full-run canonical trace digests on a schedule sample, and
  unchanged pinned Fig. 6 golden digests.

Runnable directly for the CI smoke artifact::

    PYTHONPATH=src python benchmarks/bench_warmstart.py --json BENCH_warmstart.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.warmstart_bench import (
    bench_record,
    format_record,
    write_record,
)

#: The acceptance bar: warm-start vs cold replay, campaign and shrink.
MIN_SPEEDUP = 3.0


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_warmstart_speedup_and_equivalence(bench_once):
    record = bench_once(bench_record)
    print()
    print(format_record(record))
    campaign, shrink = record["campaign"], record["shrink"]
    flock = record["flock"]
    # The equivalence gates first: a fast wrong answer is worthless.
    assert campaign["violations_identical"], "warm campaign changed findings"
    assert campaign["errors_identical"], "warm campaign changed errors"
    assert campaign["violations"] > 0, "bench campaign found no violators"
    assert shrink["results_identical"], "warm shrink changed results"
    assert record["digests"]["identical"], record["digests"]["cases"]
    assert flock["violations_identical"], "flock campaign changed findings"
    assert flock["errors_identical"], "flock campaign changed errors"
    assert flock["digests_identical"], "flock traces diverged from cold"
    assert record["golden"]["identical"] is not False, "golden digests moved"
    # The acceptance criteria: >= 3x warm vs cold, campaign and shrink.
    assert campaign["speedup"] >= MIN_SPEEDUP, campaign
    assert shrink["speedup"] >= MIN_SPEEDUP, shrink


# ----------------------------------------------------------------------
# CI smoke artifact
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the measurement record to PATH")
    parser.add_argument("--horizon", type=float, default=None,
                        help="campaign horizon override (seconds)")
    parser.add_argument("--golden", metavar="PATH", default=None,
                        help="pinned golden digests path override")
    args = parser.parse_args(argv)

    kwargs = {}
    if args.horizon is not None:
        kwargs["horizon"] = args.horizon
    if args.golden is not None:
        kwargs["golden_path"] = args.golden
    record = bench_record(**kwargs)
    if args.json:
        write_record(record, args.json)
    print(format_record(record))

    failed = False
    for phase in ("campaign", "shrink"):
        speedup = record[phase]["speedup"]
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: {phase} speedup {speedup:.2f}x < {MIN_SPEEDUP}x",
                  file=sys.stderr)
            failed = True
    if not record["equivalent"]:
        print("FAIL: accelerated execution diverged from cold "
              "(findings, shrink results, or digests)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
