"""Unit tests for acceptance tests."""

import pytest

from repro.app.acceptance import AcceptanceTest, AcceptanceTestConfig
from repro.app.component import Payload
from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry


def make_at(coverage=1.0, false_alarm=0.0, seed=1):
    return AcceptanceTest(AcceptanceTestConfig(coverage=coverage,
                                               false_alarm=false_alarm),
                          RngRegistry(seed), "t")


class TestConfig:
    def test_rejects_bad_coverage(self):
        with pytest.raises(ConfigurationError):
            AcceptanceTestConfig(coverage=1.5)

    def test_rejects_bad_false_alarm(self):
        with pytest.raises(ConfigurationError):
            AcceptanceTestConfig(false_alarm=-0.1)


class TestPerfectDetector:
    def test_detects_corrupt(self):
        at = make_at()
        assert at.test(Payload(1, corrupt=True)) is False
        assert at.detections == 1

    def test_passes_clean(self):
        at = make_at()
        assert at.test(Payload(1)) is True
        assert at.passes == 1

    def test_counters(self):
        at = make_at()
        at.test(Payload(1))
        at.test(Payload(1, corrupt=True))
        assert at.runs == 2
        assert at.passes == 1
        assert at.detections == 1
        assert at.misses == 0
        assert at.false_alarms == 0


class TestImperfectDetector:
    def test_zero_coverage_misses_everything(self):
        at = make_at(coverage=0.0)
        for _ in range(20):
            assert at.test(Payload(1, corrupt=True)) is True
        assert at.misses == 20

    def test_partial_coverage_statistics(self):
        at = make_at(coverage=0.5, seed=42)
        results = [at.test(Payload(1, corrupt=True)) for _ in range(400)]
        detected = results.count(False)
        assert 140 < detected < 260  # ~200 expected

    def test_false_alarms_fire_on_clean(self):
        at = make_at(false_alarm=1.0)
        assert at.test(Payload(1)) is False
        assert at.false_alarms == 1

    def test_partial_false_alarm_statistics(self):
        at = make_at(false_alarm=0.1, seed=7)
        results = [at.test(Payload(1)) for _ in range(500)]
        alarms = results.count(False)
        assert 20 < alarms < 90  # ~50 expected

    def test_determinism_per_seed(self):
        a = make_at(coverage=0.5, seed=9)
        b = make_at(coverage=0.5, seed=9)
        pa = [a.test(Payload(1, corrupt=True)) for _ in range(50)]
        pb = [b.test(Payload(1, corrupt=True)) for _ in range(50)]
        assert pa == pb


class TestLazyStream:
    def test_imperfect_detector_draws_what_an_eager_stream_would(self):
        """The stream is taken on the first draw, by name, so the
        pass/fail sequence is the one an ``at.<name>`` stream taken at
        construction would have produced."""
        registry = RngRegistry(13)
        at = AcceptanceTest(AcceptanceTestConfig(coverage=0.7,
                                                 false_alarm=0.1),
                            registry, "P1_act")
        assert "at.P1_act" not in registry._streams
        eager = RngRegistry(13).stream("at.P1_act")
        payloads = [Payload(n, corrupt=n % 3 == 0) for n in range(300)]
        got = [at.test(payload) for payload in payloads]
        expected = [not eager.random() < (0.7 if payload.corrupt else 0.1)
                    for payload in payloads]
        assert got == expected
        assert 0 < got.count(False) < len(got)
        assert registry._streams["at.P1_act"] is at._rng

    def test_perfect_detector_takes_no_stream(self):
        registry = RngRegistry(13)
        at = AcceptanceTest(AcceptanceTestConfig(), registry, "P1_act")
        assert [at.test(Payload(1, corrupt=c)) for c in (True, False)] == \
            [False, True]
        assert not registry._streams
