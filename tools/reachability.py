#!/usr/bin/env python3
"""Reachability sweep: which ``src/repro`` functions does any real entry
point run?

    python3 tools/reachability.py [--out DIR] [--only GROUP,...]

Stdlib only.  The sweep puts a ``sitecustomize`` module on
``PYTHONPATH`` that installs a :func:`sys.setprofile` hook in every
Python process the entry points start (pool workers, fabric workers and
live agents included).  Each process appends every ``src/repro`` code
object it runs for the first time to its own per-pid file, one write
per line, so a forked worker that leaves through ``os._exit`` is still
counted.

The entry points are the project's user surface, never ``tests/``:

* ``ci``        -- the CI command lines, at reduced schedule counts;
* ``cli``       -- every ``repro`` subcommand, ``report`` included;
* ``e2e``       -- one round of each ``benchmarks/e2e`` workload (traced,
  so ``layers.py`` runs too) and the ledger's self-tests;
* ``benches``   -- the paper benches, ``benchmarks/bench_*.py``;
* ``examples``  -- every script in ``examples/``.

A function that never ran is split by whether ``src/repro`` names it
anywhere besides its own definition (a static call site), and each one
without a call site gets its test cost: the number of test functions
under ``tests/`` that name it.  The report is printed and written to
``DIR/reachability.json``.  The sweep takes about 12 minutes on a
2-CPU host.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

SITECUSTOMIZE = '''\
import os
import sys
import threading

_PREFIX = os.environ.get("REACH_PREFIX", "")
_OUT = os.environ.get("REACH_OUT", "")
_seen = set()
_sink = [None, None]  # [pid, fd]


def _note(code):
    pid = os.getpid()
    if _sink[0] != pid:
        _sink[0] = pid
        _sink[1] = os.open(os.path.join(_OUT, "ran-%d.tsv" % pid),
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.write(_sink[1], ("%s\\t%d\\n" % (code.co_filename,
                                       code.co_firstlineno)).encode())


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PREFIX):
                _note(code)


if _PREFIX and _OUT:
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


def _py(*args: str) -> List[str]:
    return [sys.executable, *args]


def _repro(*args: str) -> List[str]:
    return _py("-m", "repro", *args)


def entry_points(work: str) -> Dict[str, List[Tuple[str, List[str]]]]:
    """Every command the sweep drives, by group."""
    naive = os.path.join(work, "naive.json")
    flock = os.path.join(work, "flock.json")
    flock_topo = os.path.join(work, "flock-topo.json")
    cas = os.path.join(work, "cas")
    cold_vs_flock = (
        "from repro.audit import (generate_schedules, read_artifact,"
        " reference_timeline, run_audit)\n"
        "from repro.warmstart import share_schedule_seeds\n"
        f"flock = read_artifact({flock_topo!r})\n"
        "timeline = reference_timeline(flock.config)\n"
        "cold = run_audit(flock.config, timeline=timeline,"
        " schedules=share_schedule_seeds(flock.config, generate_schedules("
        "flock.config, timeline=timeline)))\n"
        "assert cold.violations == flock.violations\n")
    ci = [
        ("audit naive warm shrink", _repro(
            "audit", "--scheme", "naive", "--seed", "7", "--schedules", "16",
            "--workers", "2", "--shrink", "--warmstart", "--out", naive,
            "--expect-violation")),
        ("audit replay", _repro("audit", "--replay", naive,
                                "--expect-violation")),
        ("audit coordinated warm", _repro(
            "audit", "--scheme", "coordinated", "--seed", "7",
            "--schedules", "40", "--workers", "2", "--warmstart",
            "--expect-clean")),
    ]
    for mutation in ("skip-pseudo-dirty", "drop-unacked-save",
                     "skip-blocking"):
        ci.append((f"mutation {mutation}", _repro(
            "audit", "--mutation", mutation, "--schedules", "8",
            "--workers", "2", "--expect-violation")))
        ci.append((f"mutation {mutation} 2x2+3", _repro(
            "audit", "--mutation", mutation, "--topology", "2x2+3",
            "--schedules", "16", "--workers", "2", "--expect-violation")))
    ci += [
        ("flock naive shrink", _repro(
            "audit", "--scheme", "naive", "--seed", "7", "--schedules", "16",
            "--flock", "--shrink", "--out", flock, "--expect-violation")),
        ("flock replay", _repro("audit", "--replay", flock,
                                "--expect-violation")),
        ("flock warm workers", _repro(
            "audit", "--scheme", "coordinated", "--seed", "7",
            "--schedules", "40", "--flock", "--warmstart", "--workers", "2",
            "--expect-clean")),
        ("flock 2x2+3", _repro(
            "audit", "--scheme", "coordinated", "--topology", "2x2+3",
            "--seed", "7", "--schedules", "16", "--flock", "--warmstart",
            "--out", flock_topo)),
        ("flock 2x2+3 == cold", _py("-c", cold_vs_flock)),
        ("fabric 2 local workers", _repro(
            "audit", "--scheme", "coordinated", "--seed", "7",
            "--schedules", "24", "--fabric", "2", "--shrink", "--warmstart",
            "--journal", os.path.join(work, "fabric.journal"),
            "--cas-dir", cas, "--expect-clean")),
        ("live-demo", _repro(
            "live-demo", "--seed", "2", "--tb-interval", "0.5",
            "--heartbeat", "0.1", "--timeout", "0.5", "--deadline", "120",
            "--workdir", os.path.join(work, "live-demo"))),
        ("live-crosscheck", _repro(
            "live-crosscheck", "--seed", "0",
            "--workdir", os.path.join(work, "live-cross"))),
        ("live-crosscheck 1x2+2", _repro(
            "live-crosscheck", "--seed", "0", "--topology", "1x2+2",
            "--workdir", os.path.join(work, "live-topo"))),
    ]
    for topology in ("2x2", "1x1+3", "4x1"):
        ci.append((f"audit {topology}", _repro(
            "audit", "--scheme", "coordinated", "--topology", topology,
            "--seed", "7", "--schedules", "20", "--workers", "2",
            "--expect-clean")))
    cli = [
        ("scenarios", _repro("scenarios")),
        ("fig7 workers", _repro("fig7", "--replications", "1",
                                "--workers", "2")),
        ("fig7 cached", _repro("fig7", "--replications", "1")),
        ("table1", _repro("table1")),
        ("overhead", _repro("overhead")),
        ("ablations", _repro("ablations")),
        ("topology-sweep", _repro("topology-sweep", "--horizon", "1500",
                                  "--workers", "2")),
        ("report", _repro("report")),
        ("snapshot-stats", _repro("snapshot-stats", "--horizon", "1000")),
        ("snapshot-stats full", _repro("snapshot-stats", "--full-snapshots",
                                       "--horizon", "600")),
        ("timeline", _repro("timeline")),
        ("demo", _repro("demo")),
        ("live-crosscheck smoke", _repro(
            "live-crosscheck", "--smoke", "--seed", "5",
            "--workdir", os.path.join(work, "live-smoke"))),
    ]
    e2e = [(f"e2e {workload}", _py(
        "benchmarks/e2e/run.py", "--workload", workload, "--rounds", "1",
        "--trace", "1"))
        for workload in ("cold_paper", "cold_topo", "warm_shrink",
                         "flock_dense", "fabric_2w")]
    e2e.append(("e2e self-tests", _py(
        "-m", "pytest", "-q", "benchmarks/e2e/tests", "-o", "addopts=",
        "-p", "no:cacheprovider")))
    benches = [("paper benches", _py(
        "-m", "pytest", "-q", "benchmarks", "--ignore=benchmarks/e2e",
        "-o", "addopts=", "-p", "no:cacheprovider"))]
    examples = [(f"example {os.path.basename(path)}", _py(path))
                for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                          "*.py")))]
    return {"ci": ci, "cli": cli, "e2e": e2e, "benches": benches,
            "examples": examples}


def drive(groups: Iterable[str], work: str, ran_dir: str) -> List[Dict]:
    """Run the entry points of ``groups`` under the profile hook."""
    site = os.path.join(work, "site")
    os.makedirs(site, exist_ok=True)
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [site, SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                       if p])
    env["REACH_PREFIX"] = PACKAGE + os.sep
    env["REACH_OUT"] = ran_dir
    env["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    points = entry_points(work)
    outcomes = []
    for group in groups:
        for name, argv in points[group]:
            started = time.monotonic()
            proc = subprocess.run(argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=1800)
            outcomes.append({"group": group, "name": name,
                             "status": proc.returncode,
                             "seconds": round(time.monotonic() - started, 1)})
            print(f"  [{group}] {name}: exit {proc.returncode} "
                  f"({outcomes[-1]['seconds']} s)", flush=True)
    return outcomes


def executed(ran_dir: str) -> Set[Tuple[str, int]]:
    """(file, first line) of every code object any process ran."""
    seen: Set[Tuple[str, int]] = set()
    for path in glob.glob(os.path.join(ran_dir, "ran-*.tsv")):
        with open(path) as fh:
            for line in fh:
                filename, _, lineno = line.rstrip("\n").rpartition("\t")
                if lineno.isdigit():
                    seen.add((filename, int(lineno)))
    return seen


def _is_stub(node: ast.AST) -> bool:
    """A body that is only a docstring, ``...`` or ``pass``: a Protocol
    or abstract declaration that never runs by design."""
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return all(isinstance(stmt, ast.Pass)
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant)
                   and stmt.value.value is Ellipsis)
               for stmt in body)


def functions() -> List[Dict]:
    """Every function and method defined under ``src/repro``."""
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found.append({
                        "file": os.path.relpath(path, ROOT),
                        "path": path, "first": first, "def": child.lineno,
                        "name": child.name,
                        "qualname": f"{scope}{child.name}",
                        "lines": child.end_lineno - first + 1,
                        "stub": _is_stub(child)})
                    visit(child, f"{scope}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}{child.name}.")
                else:
                    visit(child, scope)

        visit(tree, "")
    return found


def _references(paths: Iterable[str]) -> Dict[str, List[Tuple[str, int]]]:
    """Identifier -> [(file, line)] of every expression naming it: a
    bare name or an attribute.  Imports and ``__all__`` strings are not
    references."""
    where: Dict[str, List[Tuple[str, int]]] = {}
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                where.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                where.setdefault(node.attr, []).append((path, node.lineno))
    return where


def tests_naming(names: Set[str]) -> Dict[str, int]:
    """How many ``tests/`` test functions name each of ``names``."""
    cost = {name: 0 for name in names}
    for path in glob.glob(os.path.join(ROOT, "tests", "**", "*.py"),
                          recursive=True):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("test")):
                used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                used |= {n.attr for n in ast.walk(node)
                         if isinstance(n, ast.Attribute)}
                for name in used & names:
                    cost[name] += 1
    return cost


def classify(ran: Set[Tuple[str, int]]) -> Dict:
    """Split the functions that never ran by static call site."""
    defs = functions()
    sources = sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                               recursive=True))
    refs = _references(sources)
    # ``getattr(self, f"_cmd_{name}")``: a literal name prefix is a call
    # site of every method it begins.
    prefixes: Set[str] = set()
    for path in sources:
        with open(path) as fh:
            prefixes.update(p for p in re.findall(
                r"""["']([A-Za-z_][A-Za-z0-9_]*_)(?:["']|\{)""", fh.read())
                if len(p) >= 3)
    never = [fn for fn in defs
             if not fn["stub"] and (fn["path"], fn["first"]) not in ran]
    no_site, called = [], []
    for fn in never:
        name = fn["name"]
        sites = [(path, line) for path, line in refs.get(name, [])
                 if path != fn["path"]
                 or not fn["first"] <= line < fn["first"] + fn["lines"]]
        implicit = (name.startswith("__") and name.endswith("__")
                    or any(name.startswith(p) and name != p
                           for p in prefixes))
        (called if sites or implicit else no_site).append(fn)
    cost = tests_naming({fn["name"] for fn in no_site})
    for fn in no_site:
        fn["tests"] = cost[fn["name"]]

    def brief(fn: Dict) -> Dict:
        out = {k: fn[k] for k in ("file", "def", "qualname", "lines")}
        if "tests" in fn:
            out["tests"] = fn["tests"]
        return out

    return {
        "functions": len([fn for fn in defs if not fn["stub"]]),
        "never_ran": len(never),
        "never_ran_lines": sum(fn["lines"] for fn in never),
        "no_call_site": [brief(fn) for fn in no_site],
        "called_never_ran": [brief(fn) for fn in called],
    }


def report(result: Dict) -> str:
    no_site = result["no_call_site"]
    lines = [
        f"{result['functions']} src/repro functions (declaration stubs "
        f"excluded); {result['never_ran']} never ran "
        f"({result['never_ran_lines']} lines)",
        f"never ran, no src/ call site: {len(no_site)} functions, "
        f"{sum(fn['lines'] for fn in no_site)} lines, "
        f"{sum(fn['tests'] for fn in no_site)} tests name them",
    ]
    for fn in no_site:
        lines.append(f"  {fn['file']}:{fn['def']} {fn['qualname']} "
                     f"({fn['lines']} lines, {fn['tests']} tests)")
    called = result["called_never_ran"]
    lines.append(f"never ran, called from src/: {len(called)} functions, "
                 f"{sum(fn['lines'] for fn in called)} lines")
    for fn in called:
        lines.append(f"  {fn['file']}:{fn['def']} {fn['qualname']} "
                     f"({fn['lines']} lines)")
    return "\n".join(lines)


def main(argv=None) -> int:
    groups = ("ci", "cli", "e2e", "benches", "examples")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None,
                        help="directory for reachability.json and the "
                             "per-process files (default: a temp dir)")
    parser.add_argument("--only", default=",".join(groups),
                        help="comma-separated entry-point groups")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out or tempfile.mkdtemp(prefix="reach-"))
    ran_dir = os.path.join(out, "ran")
    shutil.rmtree(ran_dir, ignore_errors=True)
    os.makedirs(ran_dir)
    selected = [g for g in args.only.split(",") if g]
    with tempfile.TemporaryDirectory(prefix="reach-work-") as work:
        outcomes = drive(selected, work, ran_dir)
    result = classify(executed(ran_dir))
    result["entry_points"] = outcomes
    with open(os.path.join(out, "reachability.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(report(result))
    print(f"written to {os.path.join(out, 'reachability.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
