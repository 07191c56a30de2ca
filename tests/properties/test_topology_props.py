"""Property-based tests for the topology layer: election safety and
liveness under arbitrary seeded crash/recovery sequences, view-epoch
monotonicity, and sim/live conformance beyond the paper shape.

The model-level properties drive a :class:`GroupView` directly through
randomized member crash/restart sequences, emulating the recovery
manager's takeover rule (elect on active loss, depose the loser,
promote the winner); the system-level properties run the full
discrete-event stack on non-paper topologies with injected hardware
and software faults.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.global_state import common_stable_line
from repro.analysis.invariants import check_system_line
from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.tb.blocking import TbConfig
from repro.topology.election import CRASHED, DEPOSED, UP
from repro.topology.model import Topology, parse_topology
from repro.topology.view import GroupView

# ----------------------------------------------------------------------
# model-level: GroupView + election under random crash/restart sequences
# ----------------------------------------------------------------------
topologies = st.builds(
    Topology.general,
    components=st.integers(min_value=1, max_value=3),
    shadows=st.integers(min_value=1, max_value=3),
    peers=st.integers(min_value=1, max_value=3))

#: A seeded sequence of membership events: (member index, is_crash).
event_sequences = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
    max_size=40)


def _process_takeovers(view: GroupView) -> None:
    """The recovery manager's rule, in miniature: whenever a
    component's acting active is not up, elect; if anyone is eligible,
    depose the loser and promote the winner (else defer)."""
    for component in range(1, view.topology.n_components + 1):
        acting = view.acting_active(component)
        if acting is not None and view.is_up(acting):
            continue
        winner = view.elect(component)
        if winner is None:
            continue
        if acting is not None:
            view.note_deposed(acting)
        view.note_promoted(winner)


def _apply(view: GroupView, index: int, crash: bool) -> None:
    member = view.topology.members[index % len(view.topology.members)]
    if crash:
        view.node_crashed(member.node_id)
    else:
        view.node_restarted(member.node_id)


@given(topologies, event_sequences)
def test_election_safety_one_acting_active_per_component(topo, events):
    """Safety: at every point of every crash/recovery schedule, each
    component has at most one acting active, it is never deposed, and
    every superseded candidate is deposed."""
    view = GroupView(topo)
    for index, crash in events:
        _apply(view, index, crash)
        _process_takeovers(view)
        for component in range(1, topo.n_components + 1):
            acting = view.acting_active(component)
            candidates = [topo.active_of(component).role_id] + \
                [s.role_id for s in topo.shadows_of(component)]
            serving = [c for c in candidates
                       if view.status[c] != DEPOSED
                       and view.acting_active(component) == c]
            assert len(serving) <= 1
            if acting is not None:
                assert view.status[acting] != DEPOSED
                assert acting in candidates


@given(topologies, event_sequences)
def test_election_liveness_eligible_shadow_is_seated(topo, events):
    """Liveness: after takeover processing, a component is only ever
    leaderless if nobody is eligible — the configured active is down or
    deposed and every never-promoted shadow is down."""
    view = GroupView(topo)
    for index, crash in events:
        _apply(view, index, crash)
        _process_takeovers(view)
        for component in range(1, topo.n_components + 1):
            acting = view.acting_active(component)
            if acting is not None and view.is_up(acting):
                continue
            # Nobody up and eligible may remain: elect() must have
            # nothing to offer, or the takeover rule failed to seat it.
            assert view.elect(component) is None


@given(topologies, event_sequences)
def test_view_epochs_strictly_monotone(topo, events):
    """Every membership change installs exactly the next epoch, and
    per-member change stamps never exceed the view epoch."""
    view = GroupView(topo)
    for index, crash in events:
        _apply(view, index, crash)
        _process_takeovers(view)
    assert [epoch for epoch, _, _ in view.history] == \
        list(range(1, len(view.history) + 1))
    assert view.epoch == len(view.history)
    for role_id, stamped in view.changed_at.items():
        assert 0 <= stamped <= view.epoch
        assert view.status[role_id] in (UP, CRASHED, DEPOSED)


@given(topologies, event_sequences)
def test_election_deterministic_under_identical_views(topo, events):
    """The bully election is a pure function of the view: re-running
    the same sequence gives byte-identical history and winners."""
    def run():
        view = GroupView(topo)
        for index, crash in events:
            _apply(view, index, crash)
            _process_takeovers(view)
        winners = {c: view.elect(c)
                   for c in range(1, topo.n_components + 1)}
        return view.history, view.promoted, winners
    assert run() == run()


# ----------------------------------------------------------------------
# system-level: the full stack on a non-paper topology
# ----------------------------------------------------------------------
HORIZON = 500.0

system_params = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=5_000),
    "spec": st.sampled_from(["1x2+1", "2x1+2", "2x2+2"]),
    "crash_member": st.integers(min_value=0, max_value=63),
    "crash_at": st.floats(min_value=50.0, max_value=HORIZON - 100.0),
    "software_at": st.floats(min_value=50.0, max_value=HORIZON - 100.0),
})

slow = settings(max_examples=8, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def build(spec, seed):
    return build_system(SystemConfig(
        scheme=Scheme.COORDINATED, seed=seed, horizon=HORIZON,
        tb=TbConfig(interval=20.0),
        workload1=WorkloadConfig(internal_rate=0.08, external_rate=0.02,
                                 step_rate=0.01, horizon=HORIZON),
        workload2=WorkloadConfig(internal_rate=0.04, external_rate=0.02,
                                 step_rate=0.01, horizon=HORIZON),
        trace_categories=("view.change",), topology=spec))


@slow
@given(system_params)
def test_crash_recovery_view_invariants(params):
    """A random node crash on a random non-paper topology: the run
    completes, view epochs in the trace are strictly increasing, the
    final view seats exactly one acting active per component, and the
    common stable line verifies."""
    system = build(params["spec"], params["seed"])
    topo = system.topology
    node = topo.members[params["crash_member"] % topo.size].node_id
    system.inject_crash(HardwareFaultPlan(node_id=node,
                                          crash_at=params["crash_at"],
                                          repair_time=1.0))
    system.run()
    assert system.hw_recovery.recoveries >= 1
    epochs = [r.data["epoch"] for r in system.trace.records("view.change")]
    assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
    for component in range(1, topo.n_components + 1):
        acting = system.view.acting_active(component)
        assert acting is not None
        assert system.view.is_up(acting)
    assert check_system_line(common_stable_line(system), topology=topo,
                             include_ground_truth=False) == []


@slow
@given(system_params)
def test_software_fault_elects_exactly_one_successor(params):
    """A software fault in a random component: recovery promotes the
    deterministic election winner, deposes the failed active and the
    losing shadows, and every component still has exactly one acting
    active afterwards."""
    system = build(params["spec"], params["seed"])
    topo = system.topology
    component = (params["crash_member"] % topo.n_components) + 1
    system.inject_software_fault(SoftwareFaultPlan(
        activate_at=params["software_at"], component=component))
    system.run()
    view = system.view
    active_id = topo.active_of(component).role_id
    if view.promoted.get(component):
        # Takeover ran: the configured active is out, the winner is the
        # elected shadow, the losers are deposed.
        assert view.status[active_id] == DEPOSED
        winner = view.promoted[component]
        assert winner in {s.role_id for s in topo.shadows_of(component)}
        for shadow in topo.shadows_of(component):
            if shadow.role_id != winner:
                assert view.status[shadow.role_id] == DEPOSED
    for c in range(1, topo.n_components + 1):
        acting = view.acting_active(c)
        assert acting is not None and view.is_up(acting)
    epochs = [r.data["epoch"] for r in system.trace.records("view.change")]
    assert epochs == sorted(epochs)


def test_sim_live_conformance_on_elected_topology(tmp_path):
    """Sim/live conformance beyond the paper shape: the generalized
    script (including a peer-node kill and hardware recovery) produces
    identical decision sequences on the discrete-event backend and on
    four real OS processes of a 1-component, 2-shadow topology.

    (The paper-shape standard-script conformance lives in
    ``tests/runtime/test_crosscheck.py``.)
    """
    from repro.runtime.crosscheck import run_crosscheck
    result = run_crosscheck(seed=0, workdir=str(tmp_path / "live"),
                            topology="1x2+1")
    assert result.differences == []
    assert result.equivalent
    assert set(result.sim_decisions) == \
        set(parse_topology("1x2+1").role_ids())
