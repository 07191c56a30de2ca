"""Unit tests for the campaign runner."""

from repro.experiments.runner import replication_seeds, run_campaign


def _det_task(seed):
    """Module-level (hence picklable) deterministic task."""
    return [float(seed % 13), float(seed % 7)]


class TestSeeds:
    def test_stable_across_calls(self):
        assert replication_seeds(1, "x", 3) == replication_seeds(1, "x", 3)

    def test_distinct_per_replication(self):
        seeds = replication_seeds(1, "x", 10)
        assert len(set(seeds)) == 10

    def test_label_pairs_configurations(self):
        # Same label + master seed -> same seeds: this is what pairs the
        # E[D_co] and E[D_wt] campaigns.
        assert replication_seeds(7, "rate60", 4) == replication_seeds(7, "rate60", 4)
        assert replication_seeds(7, "rate60", 4) != replication_seeds(7, "rate80", 4)


class TestRunCampaign:
    def test_aggregates_all_samples(self):
        result = run_campaign("t", 1, 3, lambda seed: [1.0, 2.0])
        assert result.stat.count == 6
        assert result.mean == 1.5
        assert result.replications == 3

    def test_passes_derived_seeds(self):
        seen = []
        run_campaign("t", 1, 2, lambda seed: seen.append(seed) or [0.0])
        assert seen == replication_seeds(1, "t", 2)

    def test_ci_property(self):
        result = run_campaign("t", 1, 1, lambda seed: [1.0, 3.0])
        assert result.stat.confidence_halfwidth() > 0

    def test_workers_path_matches_serial(self):
        serial = run_campaign("w", 2, 5, _det_task)
        parallel = run_campaign("w", 2, 5, _det_task, workers=2)
        assert parallel.samples == serial.samples
        assert parallel.replications == serial.replications
