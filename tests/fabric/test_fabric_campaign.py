"""End-to-end fabric campaigns: equivalence, death, resume, dedup.

Workers are real subprocesses (spawned through the CLI), so the kill
tests exercise genuine process death — EOF on the supervisor's socket,
half-executed shards, torn journal appends — not simulations of it.
Everything asserts bit-for-bit equality against the in-process serial
paths: the fabric moves execution, never changes it.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.audit import AuditConfig, execute_shard
from repro.audit.generator import generate_schedules, reference_timeline
from repro.fabric import (
    FabricConfig,
    FabricSupervisor,
    plan_shards,
    read_journal,
    run_fabric_campaign,
    spawn_worker,
)
from repro.warmstart import share_schedule_seeds


@pytest.fixture(scope="module")
def config():
    return AuditConfig(scheme="coordinated", seed=3, schedules=16,
                       horizon=240.0)


@pytest.fixture(scope="module")
def timeline(config):
    return reference_timeline(config)


@pytest.fixture(scope="module")
def shared(config, timeline):
    return share_schedule_seeds(
        config, generate_schedules(config, timeline=timeline))


@pytest.fixture(scope="module")
def serial_cold(config, shared):
    return execute_shard(config.to_dict(), [s.to_dict() for s in shared])


@pytest.fixture(scope="module")
def serial_flock(config, shared):
    return execute_shard(config.to_dict(), [s.to_dict() for s in shared],
                         mode="flock")


class TestEquivalence:
    def test_cold_campaign_matches_serial(self, config, shared, serial_cold,
                                          tmp_path):
        results, stats = run_fabric_campaign(
            config, shared, mode="cold", workers=2,
            cas_dir=str(tmp_path / "cas"),
            fabric=FabricConfig(shard_size=4))
        assert results == serial_cold
        assert stats["shards"] == len(plan_shards(config, shared,
                                                  shard_size=4))
        assert stats["workers"]

    def test_flock_campaign_matches_serial_flock(self, config, shared,
                                                 serial_flock, timeline,
                                                 tmp_path):
        results, stats = run_fabric_campaign(
            config, shared, mode="flock", workers=1,
            cas_dir=str(tmp_path / "cas"), timeline=timeline)
        assert results == serial_flock
        assert stats["mode"] == "fabric-flock"

    def test_flock_and_cold_agree_on_verdicts(self, serial_cold,
                                              serial_flock):
        # Result dicts say what a schedule computed, never how it
        # started: the two modes agree on every byte.
        assert serial_cold == serial_flock


class TestWorkerDeath:
    def test_kill9_worker_mid_campaign(self, config, shared, serial_cold,
                                       tmp_path):
        """SIGKILL one of two workers mid-flight: the campaign must
        still complete with results identical to serial."""
        supervisor = FabricSupervisor(
            config, shared, mode="cold", cas_root=str(tmp_path / "cas"),
            journal_path=str(tmp_path / "journal.jsonl"),
            fabric=FabricConfig(shard_size=2, heartbeat_timeout=1.5))
        supervisor.prepare()
        victim = spawn_worker("127.0.0.1", supervisor.port,
                              str(tmp_path / "cas"), name="victim")
        survivor = spawn_worker("127.0.0.1", supervisor.port,
                                str(tmp_path / "cas"), name="survivor")

        def assassinate():
            time.sleep(0.9)
            try:
                os.kill(victim.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Thread(target=assassinate)
        killer.start()
        try:
            results = supervisor.serve()
        finally:
            killer.join()
            for proc in (victim, survivor):
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert results == serial_cold
        kinds = [r["type"]
                 for r in read_journal(str(tmp_path / "journal.jsonl"))]
        assert kinds[0] == "campaign"
        assert kinds.count("done") == len(supervisor.plan)


class TestSupervisorResume:
    def test_resume_from_partial_journal(self, config, shared, serial_cold,
                                         tmp_path):
        """A supervisor restarted over a half-written journal (torn
        tail included) re-dispatches only the missing shards and
        reassembles the identical result set."""
        journal = tmp_path / "journal.jsonl"
        cas = str(tmp_path / "cas")
        first, stats1 = run_fabric_campaign(
            config, shared, mode="cold", workers=1, cas_dir=cas,
            journal=str(journal), fabric=FabricConfig(shard_size=4))
        assert first == serial_cold
        assert stats1["recovered_shards"] == 0

        # Re-create the journal a kill -9'd supervisor leaves behind:
        # header, a prefix of the done records, one torn append.
        records = read_journal(str(journal))
        done = [r for r in records if r["type"] == "done"]
        keep = done[: len(done) // 2]
        with open(journal, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(records[0]) + "\n")
            for record in keep:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps(done[-1])[:17])  # torn mid-append

        second, stats2 = run_fabric_campaign(
            config, shared, mode="cold", workers=1, cas_dir=cas,
            journal=str(journal), fabric=FabricConfig(shard_size=4))
        assert second == serial_cold
        assert stats2["recovered_shards"] == len(keep)

    def test_fully_complete_journal_needs_no_workers(self, config, shared,
                                                     serial_cold, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        cas = str(tmp_path / "cas")
        run_fabric_campaign(config, shared, mode="cold", workers=1,
                            cas_dir=cas, journal=journal,
                            fabric=FabricConfig(shard_size=4))
        # Zero workers: completion must come entirely from the journal.
        results, stats = run_fabric_campaign(
            config, shared, mode="cold", workers=0, cas_dir=cas,
            journal=journal, fabric=FabricConfig(shard_size=4))
        assert results == serial_cold
        assert stats["recovered_shards"] == stats["shards"]
        assert stats["workers"] == []


class TestTransferEconomics:
    def test_image_set_transfers_exactly_once_across_campaigns(
            self, config, shared, serial_flock, timeline, tmp_path):
        """Distinct worker CAS dir (the separate-host shape): campaign
        one ships each image set once; campaign two ships nothing."""
        sup_cas = str(tmp_path / "sup-cas")
        worker_cas = str(tmp_path / "worker-cas")
        r1, s1 = run_fabric_campaign(
            config, shared, mode="flock", workers=1, cas_dir=sup_cas,
            worker_cas_dirs=[worker_cas], timeline=timeline)
        r2, s2 = run_fabric_campaign(
            config, shared, mode="flock", workers=1, cas_dir=sup_cas,
            worker_cas_dirs=[worker_cas], timeline=timeline)
        assert r1 == serial_flock and r2 == serial_flock

        prefixes = len({s.prefix for s in plan_shards(config, shared)
                        if s.prefix is not None})
        assert prefixes >= 1
        w1 = s1["worker_stats"]["w0"]
        w2 = s2["worker_stats"]["w0"]
        assert w1["transfers"] == prefixes
        assert sum(s1["blob_serves"].values()) == prefixes
        assert w2["transfers"] == 0, "second campaign must re-ship nothing"
        assert w2["cas_hits"] >= prefixes
        assert s2["blob_serves"] == {}
        # The supervisor reused its exported blobs via refs, too.
        assert s1["sets_exported"] >= 1 and s2["sets_exported"] == 0
        # One on-disk layout, one copy per host: refs name blobs, no
        # materialized set files beside them.
        for cas in (tmp_path / "sup-cas", tmp_path / "worker-cas"):
            refs = sorted(p.name for p in (cas / "refs").iterdir())
            assert len(refs) == prefixes
            assert all(name.startswith("imgset-") for name in refs)
            assert len(list((cas / "blobs").iterdir())) == prefixes
            assert not list(cas.rglob("*.imgset"))


class TestDegradation:
    def test_exhausted_shard_runs_in_supervisor(self, config, shared,
                                                serial_cold, tmp_path):
        """Shards past the retry budget execute in-process; the
        campaign completes with identical results and no workers."""
        supervisor = FabricSupervisor(
            config, shared, mode="cold", cas_root=str(tmp_path / "cas"),
            fabric=FabricConfig(shard_size=4, max_retries=1))
        supervisor.prepare()
        for shard in supervisor.plan:
            supervisor._attempts[shard.shard_id] = 5  # past the budget
        supervisor._degrade_exhausted()
        results = supervisor.serve()
        assert results == serial_cold
        assert supervisor.stats()["local_runs"] == len(supervisor.plan)

    def test_strikes_exclude_workers(self, config, shared, tmp_path):
        supervisor = FabricSupervisor(
            config, shared, mode="cold", cas_root=str(tmp_path / "cas"),
            journal_path=str(tmp_path / "j.jsonl"),
            fabric=FabricConfig(max_worker_strikes=2))
        supervisor.prepare()
        supervisor._strike("flaky", "shard 0 died")
        assert "flaky" not in supervisor._excluded
        supervisor._strike("flaky", "shard 1 died")
        assert "flaky" in supervisor._excluded
        supervisor.journal.close()
        kinds = [r["type"] for r in read_journal(str(tmp_path / "j.jsonl"))]
        assert "exclude" in kinds


@pytest.mark.slow
class TestSupervisorKill9:
    def test_kill9_supervisor_then_resume(self, config, tmp_path):
        """SIGKILL the supervisor process mid-campaign; a restart over
        the same journal completes with a serial-identical artifact."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        serial_art = tmp_path / "serial.json"
        subprocess.run(
            [sys.executable, "-m", "repro", "audit", "--schedules", "24",
             "--horizon", "240", "--seed", "3", "--out", str(serial_art)],
            env=env, check=True, capture_output=True, timeout=300)

        fabric_cmd = [
            sys.executable, "-m", "repro", "audit", "--schedules", "24",
            "--horizon", "240", "--seed", "3", "--fabric", "2",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--cas-dir", str(tmp_path / "cas"),
            "--out", str(tmp_path / "fabric.json")]
        first = subprocess.Popen(fabric_cmd, env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        time.sleep(2.5)
        try:
            os.kill(first.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        first.wait()

        second = subprocess.run(fabric_cmd, env=env, capture_output=True,
                                text=True, timeout=300)
        assert second.returncode == 0, second.stdout + second.stderr
        with open(serial_art) as fh:
            serial_report = json.load(fh)
        with open(tmp_path / "fabric.json") as fh:
            fabric_report = json.load(fh)
        for field in ("violations", "errors", "shrunk", "fingerprint"):
            assert fabric_report[field] == serial_report[field]
