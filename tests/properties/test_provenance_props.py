"""Property-based tests of the provenance machinery under random
interleavings of sends, peer-to-peer relays, faults and validations,
on a manually driven ``1x1+3`` membership."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.app.workload import Action, ActionKind, WorkloadConfig
from repro.coordination.scheme import SystemConfig, build_system
from repro.tb.blocking import TbConfig

slow = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ACTIVE = "C1_act"

#: A step of the random schedule: (actor, operation, stimulus)
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),   # 0 = active, 1..3 peers
              st.sampled_from(["internal", "external"]),
              st.integers(min_value=0, max_value=7)),
    min_size=5, max_size=40)


def peers(system):
    return [system.member(p.role_id) for p in system.topology.peers()]


def drive(system, schedule, fault_after=None):
    """Apply a schedule of manual protocol actions."""
    for index, (actor, op, stimulus) in enumerate(schedule):
        if fault_after is not None and index == fault_after:
            system.low_version.fault_active = True
        process = (system.member(ACTIVE) if actor == 0
                   else peers(system)[actor - 1])
        if process.deposed:
            continue
        kind = (ActionKind.SEND_INTERNAL if op == "internal"
                else ActionKind.SEND_EXTERNAL)
        getattr(process.software, f"on_send_{op}")(
            Action(index=10_000_000 + index, kind=kind, gap=0.0,
                   stimulus=stimulus))
        system.sim.run(until=system.sim.now + 0.5)
    system.sim.run(until=system.sim.now + 2.0)


def build(seed):
    horizon = 10_000.0
    quiet = WorkloadConfig(internal_rate=1e-9, external_rate=1e-9,
                           step_rate=0.001, horizon=horizon)
    system = build_system(SystemConfig(
        topology="1x1+3", seed=seed, horizon=horizon,
        tb=TbConfig(interval=100_000.0), workload1=quiet, workload2=quiet,
        trace_enabled=False))
    system.start()
    return system


@slow
@given(st.integers(min_value=0, max_value=1000), steps)
def test_clean_bit_implies_no_taint(seed, schedule):
    system = build(seed)
    drive(system, schedule)
    for proc in peers(system):
        if proc.mdcd.dirty_bit == 0:
            assert not proc.mdcd.taint_map


@slow
@given(st.integers(min_value=0, max_value=1000), steps,
       st.integers(min_value=0, max_value=10))
def test_dirty_bits_conservative_under_fault(seed, schedule, fault_after):
    """With perfect AT coverage, any truly contaminated in-service state
    is either flagged dirty or belongs to the always-suspect active."""
    system = build(seed)
    drive(system, schedule, fault_after=fault_after)
    for proc in system.process_list():
        if proc.deposed or proc is system.member(ACTIVE):
            continue
        if proc.component.state.corrupt:
            assert proc.mdcd.dirty_bit == 1, str(proc.process_id)


@slow
@given(st.integers(min_value=0, max_value=1000), steps)
def test_vr_monotone_and_bounded(seed, schedule):
    system = build(seed)
    observed = {p.process_id: [] for p in peers(system)}

    # Sample the active's valid bound between steps by interleaving
    # manually.
    for step in schedule:
        drive(system, [step])
        for proc in peers(system):
            observed[proc.process_id].append(
                (proc.mdcd.vr_map or {}).get(ACTIVE))
    top = system.member(ACTIVE).sn.current
    for series in observed.values():
        cleaned = [v for v in series if v is not None]
        assert cleaned == sorted(cleaned)
        assert all(v <= top for v in cleaned)


@slow
@given(st.integers(min_value=0, max_value=1000), steps)
def test_dsn_streams_sequential_per_pair(seed, schedule):
    system = build(seed)
    drive(system, schedule)
    for receiver in system.process_list():
        per_sender = {}
        for rec in receiver.journal_recv.records():
            if rec.dsn is not None:
                per_sender.setdefault(rec.sender, []).append(rec.dsn)
        for sender, dsns in per_sender.items():
            assert sorted(dsns) == list(range(1, len(dsns) + 1)), \
                f"{sender}->{receiver.process_id}: {dsns}"
