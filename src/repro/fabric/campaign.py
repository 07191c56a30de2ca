"""One-call fabric campaigns: supervisor + spawned local workers.

:func:`run_fabric_campaign` is the in-process entry the audit layer and
the benches use: it prepares a :class:`FabricSupervisor` on an
ephemeral localhost port, optionally spawns ``workers`` real worker
*processes* (each its own interpreter — same isolation as a remote
host, minus the network distance), serves the campaign to completion,
and returns results in schedule order plus the fabric stats.

Workers are real subprocesses on purpose: the acceptance tests
``kill -9`` them mid-campaign, and only a separate PID makes that an
honest experiment.  :func:`spawn_worker` is exported so tests and the
smoke harness can manage worker lifetimes (and death) themselves.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .supervisor import FabricConfig, FabricSupervisor


def _worker_env() -> Dict[str, str]:
    """An environment whose ``PYTHONPATH`` can import this repro tree."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p and p != src]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def spawn_worker(host: str, port: int, cas_dir: str, *,
                 name: Optional[str] = None,
                 once: bool = True,
                 connect_timeout: float = 30.0) -> subprocess.Popen:
    """Start one worker agent process against ``host:port``."""
    cmd = [sys.executable, "-m", "repro", "fabric-worker",
           "--connect", f"{host}:{port}", "--cas-dir", cas_dir,
           "--connect-timeout", str(connect_timeout)]
    if name:
        cmd += ["--name", name]
    if once:
        cmd.append("--once")
    return subprocess.Popen(cmd, env=_worker_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def run_fabric_campaign(config, schedules: Sequence, *,
                        mode: str = "cold",
                        workers: int = 2,
                        cas_dir: Optional[str] = None,
                        worker_cas_dirs: Optional[Sequence[str]] = None,
                        journal: Optional[str] = None,
                        timeline=None,
                        fabric: Optional[FabricConfig] = None,
                        log: Optional[Callable[[str], None]] = None,
                        ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Run one campaign over the fabric; results in schedule order.

    ``workers == 0`` serves external workers only (the two-host /
    CLI-supervisor shape); otherwise ``workers`` local worker processes
    are spawned against the supervisor's ephemeral port.  Spawned
    workers share the supervisor's CAS directory unless
    ``worker_cas_dirs`` gives each its own (the distinct-host shape the
    transfer-accounting bench uses).
    """
    tmp = None
    if cas_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-fabric-")
        cas_dir = tmp.name
    supervisor = FabricSupervisor(
        config, schedules, mode=mode,
        cas_root=cas_dir, journal_path=journal,
        fabric=fabric or FabricConfig(), timeline=timeline, log=log)
    procs: List[subprocess.Popen] = []
    try:
        supervisor.prepare()
        host = supervisor.fabric.host
        for rank in range(max(0, int(workers))):
            worker_dir = (worker_cas_dirs[rank]
                          if worker_cas_dirs is not None else cas_dir)
            procs.append(spawn_worker(host, supervisor.port, worker_dir,
                                      name=f"w{rank}"))
        results = supervisor.serve()
        stats = supervisor.stats()
        if log is not None:
            log(f"fabric: {stats['shards']} shards over "
                f"{len(stats['workers'])} workers, "
                f"{stats['steals']} steals, {stats['requeues']} requeues, "
                f"{stats['recovered_shards']} recovered from journal")
    finally:
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if tmp is not None:
            tmp.cleanup()
    return results, stats
