"""Self-tests of the campaign ledger.

    python -m pytest benchmarks/e2e/tests -o addopts=""

They drive ``run.py`` the way the driver does (a subprocess, the JSON
object on the last line of standard output) at ``--rounds 2 --scale
0.1``, which exists for exactly this smoke.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))
RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARATION = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
#: Measured by the runner, not gated on by ``BENCHMARK.json``.
UNGATED = ["fabric_2w"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Per-layer metrics that are counts of the program, not timings.
EXACT = ("sim.events_per_schedule", "audit.checks_per_schedule",
         "audit.shrink_replays", "snapshot.stable_bytes_per_schedule",
         "snapshot.volatile_bytes_per_schedule", "warmstart.image_bytes",
         "warmstart.hit_share", "flock.dumps", "flock.forks_per_dump",
         "fabric.shards")


def smoke(workload, *extra, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--rounds", "2",
         "--scale", "0.1", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False)
    return done


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def needs_cpus(workload):
    if workload == "fabric_2w" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fabric_2w is unresolved on fewer than 2 CPUs")


def test_declaration_meets_the_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8 and not set(UNGATED) & set(WORKLOADS)
    names = WORKLOADS + [m["name"] for m in DECLARATION["end_to_end"]
                         + DECLARATION["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARATION["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # 4 + 22 x workloads runs of run_seconds plus set-up, warm-up and
    # checks (about 5 s) must fit the driver's 3420 s.
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (DECLARATION["run_seconds"] + 5) <= 3420


@pytest.mark.parametrize("workload", WORKLOADS + UNGATED)
def test_end_to_end_emits_every_declared_metric(workload):
    needs_cpus(workload)
    result = result_of(smoke(workload, "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS + UNGATED)
def test_trace_emits_every_layer_metric_and_counts_repeat(workload, tmp_path):
    needs_cpus(workload)
    spans_path = tmp_path / "spans.json"
    first = result_of(smoke(workload, "--trace", str(spans_path)))
    second = result_of(smoke(workload, "--trace", "1"))
    declared = {m["name"]: m["unit"] for m in DECLARATION["per_layer"]}
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(declared)
    for name in EXACT:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name

    # Span self-times account for every traced round (within 5 %).
    with open(spans_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == trace["rounds"]
    assert all(s["name"] == "round" for s in roots)
    round_seconds = sum(s["end"] - s["start"] for s in roots)
    assert sum(trace["self_time_s"].values()) == pytest.approx(
        round_seconds, rel=0.05)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks", "e2e")]

    def as_dicts(prepared):
        return [s.to_dict() for s in prepared.schedules]

    try:
        import workloads
        for name in ("cold_paper", "warm_shrink", "flock_dense"):
            a = workloads.prepare(name, 3, scale=0.1)
            b = workloads.prepare(name, 3, scale=0.1)
            c = workloads.prepare(name, 4, scale=0.1)
            assert as_dicts(a) == as_dicts(b)
            assert as_dicts(a) != as_dicts(c)
            assert len(a.schedules) == len(c.schedules)
    finally:
        del sys.path[:2]


def test_a_changed_result_fails_the_pinned_gate(tmp_path):
    """The runner exits non-zero when seed 7 stops digesting to the
    pinned value: a copy of the benchmark with a wrong pin."""
    copy = tmp_path / "repo"
    (copy / "benchmarks").mkdir(parents=True)
    shutil.copytree(os.path.join(ROOT, "benchmarks", "e2e"),
                    copy / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
    os.symlink(os.path.join(ROOT, "src"), copy / "src")
    pins = copy / "benchmarks" / "e2e" / "expected.json"
    data = json.loads(pins.read_text())
    data["digests"]["warm_shrink"]["results"] = "0" * 64
    pins.write_text(json.dumps(data))
    done = subprocess.run(
        [sys.executable, str(copy / "benchmarks" / "e2e" / "run.py"),
         "--workload", "warm_shrink", "--rounds", "1"],
        cwd=copy, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "pinned_inputs=True pinned_results=False" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_no_source_tree_is_an_error_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files the runner must fail and print no result."""
    shutil.copytree(os.path.join(ROOT, "benchmarks", "e2e"),
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = smoke("cold_paper", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert done.returncode not in (0, None)
    assert done.stdout.strip() == ""
