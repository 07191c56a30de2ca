"""Unit tests for the timer resynchronization service."""

from repro.sim.clock import ClockConfig, DriftingClock
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.tb.resync import ResyncService


def make_service(n_clocks=3, cooldown=1.0, delta=0.5, rho=1e-4, seed=6):
    sim = Simulator()
    reg = RngRegistry(seed)
    config = ClockConfig(delta=delta, rho=rho)
    clocks = [DriftingClock(sim, config, reg, f"c{i}") for i in range(n_clocks)]
    return sim, clocks, ResyncService(sim, clocks, cooldown=cooldown)


class TestRequest:
    def test_resyncs_all_clocks(self):
        sim, clocks, service = make_service()
        sim.schedule_at(1000.0, lambda: None)
        sim.run()
        assert service.request()
        assert all(c.elapsed_since_resync() == 0.0 for c in clocks)

    def test_bounds_pairwise_skew_after_resync(self):
        sim, clocks, service = make_service(delta=0.5)
        sim.schedule_at(10_000.0, lambda: None)
        sim.run()
        service.request()
        readings = [c.now() for c in clocks]
        assert max(readings) - min(readings) <= 0.5 + 1e-9

    def test_cooldown_coalesces(self):
        sim, _, service = make_service(cooldown=5.0)
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert service.request()
        assert not service.request()
        assert service.resync_count == 1
        assert service.coalesced_count == 1

    def test_request_after_cooldown_runs(self):
        sim, _, service = make_service(cooldown=5.0)
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        service.request()
        sim.schedule_at(20.0, lambda: None)
        sim.run()
        assert service.request()
        assert service.resync_count == 2

    def test_register_adds_clock(self):
        sim, clocks, service = make_service(n_clocks=1)
        extra = DriftingClock(sim, ClockConfig(delta=0.5, rho=1e-4),
                              RngRegistry(9), "extra")
        service.register(extra)
        sim.schedule_at(100.0, lambda: None)
        sim.run()
        service.request()
        assert extra.elapsed_since_resync() == 0.0
