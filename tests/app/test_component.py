"""Unit tests for the deterministic application components."""

import dataclasses
import itertools

from repro.app.component import ApplicationComponent, AppState, Payload
from repro.app.versions import HighConfidenceVersion


def component(name="c"):
    return ApplicationComponent(name, HighConfidenceVersion("v"))


class TestAppState:
    def test_apply_payload_accumulates(self):
        state = AppState()
        state.apply_payload(Payload(5))
        state.apply_payload(Payload(7))
        assert state.value == 12
        assert state.inputs_applied == 2

    def test_corrupt_payload_contaminates(self):
        state = AppState()
        state.apply_payload(Payload(1, corrupt=True))
        assert state.corrupt

    def test_contamination_is_sticky(self):
        state = AppState()
        state.apply_payload(Payload(1, corrupt=True))
        state.apply_payload(Payload(1, corrupt=False))
        assert state.corrupt

    def test_commutativity_of_inputs(self):
        payloads = [Payload(3), Payload(11), Payload(-4)]
        results = set()
        for perm in itertools.permutations(payloads):
            state = AppState()
            for p in perm:
                state.apply_payload(p)
            results.add(state.value)
        assert len(results) == 1

    def test_steps_and_inputs_commute(self):
        a, b = AppState(), AppState()
        a.apply_step(9)
        a.apply_payload(Payload(5))
        b.apply_payload(Payload(5))
        b.apply_step(9)
        assert a.value == b.value


class TestComponent:
    def test_replicas_converge_on_same_inputs(self):
        left, right = component(), component()
        for stim in (1, 2, 3):
            left.local_step(stim)
            right.local_step(stim)
        left.receive_internal(Payload(10))
        right.receive_internal(Payload(10))
        assert left.state.value == right.state.value

    def test_produced_payload_is_deterministic(self):
        left, right = component(), component()
        assert left.produce_internal(42).value == right.produce_internal(42).value

    def test_external_inherits_state_corruption(self):
        comp = component()
        comp.receive_internal(Payload(1, corrupt=True))
        assert comp.produce_external(5).corrupt

    def test_clean_state_produces_clean_payloads(self):
        comp = component()
        comp.local_step(3)
        assert not comp.produce_external(5).corrupt

    def test_snapshot_restore_roundtrip(self):
        comp = component()
        comp.local_step(1)
        saved = dataclasses.replace(comp.state)
        comp.local_step(2)
        comp.restore(saved)
        assert comp.state.steps_applied == 1

    def test_restore_is_unaliased(self):
        comp = component()
        saved = dataclasses.replace(comp.state)
        comp.restore(saved)
        comp.local_step(1)
        assert saved.steps_applied == 0

    def test_describe_summarizes(self):
        info = component("telemetry").describe()
        assert info["name"] == "telemetry"
        assert info["corrupt"] is False
