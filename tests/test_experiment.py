"""Sweep-harness, statistics, and seed fan-out checks."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

import swarmnet
from swarmnet.benchmarks import FunctionId, ObjectiveSpec
from swarmnet.errors import ConfigurationError, InputError
from swarmnet.experiment import (
    ExperimentConfig,
    TopologySpec,
    _confidence_interval,
    correlate,
    run_cell,
    run_sweep,
    spearman,
    summarize,
)
from swarmnet.pso import PsoParams
from swarmnet.topology import TopologyKind


def _config(**overrides):
    base = dict(
        objective=ObjectiveSpec(FunctionId.SPHERE, dimension=3),
        topologies=(TopologySpec(TopologyKind.RING),),
        params=PsoParams(swarm_size=8, t_max=30, delta_window=10),
        repetitions=2,
        windows=(5, 10),
        id_sample_stride=10,
        base_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid_config_passes(self):
        _config().validate()

    def test_infeasible_topology_rejected(self):
        cfg = _config(topologies=(TopologySpec(TopologyKind.K_REGULAR, 9),))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(repetitions=0).validate()
        with pytest.raises(ConfigurationError):
            _config(windows=()).validate()
        with pytest.raises(ConfigurationError):
            _config(id_sample_stride=0).validate()
        with pytest.raises(ConfigurationError):
            _config(topologies=()).validate()


class TestRunCell:
    def test_seed_fan_out(self):
        cfg = _config()
        spec = cfg.topologies[0]
        again = run_cell(cfg, spec, 1)
        first = run_cell(cfg, spec, 1)
        other = run_cell(cfg, spec, 0)
        assert first.rng_seed == cfg.base_seed + 1
        assert np.array_equal(first.log.choices, again.log.choices)
        assert np.array_equal(first.trace.global_best_fitness,
                              again.trace.global_best_fitness)
        assert not np.array_equal(first.trace.global_best_fitness,
                                  other.trace.global_best_fitness)

    def test_series_lengths_consistent(self):
        cfg = _config()
        result = run_cell(cfg, cfg.topologies[0], 0)
        total = len(result.log)
        assert len(result.trace.global_best_fitness) == total
        assert result.id_iterations[-1] == total
        assert len(result.id_iterations) == len(result.id_values)

    def test_degenerate_stride_single_sample(self):
        cfg = _config(id_sample_stride=10 ** 6)
        result = run_cell(cfg, cfg.topologies[0], 0)
        assert len(result.id_values) == 1
        assert result.id_iterations[0] == len(result.log)

    def test_resolved_degree_recorded(self):
        cfg = _config(topologies=(TopologySpec(TopologyKind.GLOBAL),))
        result = run_cell(cfg, cfg.topologies[0], 0)
        assert result.k == 7
        assert result.label == "global_7"

    def test_sphere_control_converges_on_global(self):
        cfg = _config(
            objective=ObjectiveSpec(FunctionId.SPHERE, dimension=2),
            topologies=(TopologySpec(TopologyKind.GLOBAL),),
            params=PsoParams(swarm_size=10, t_max=6000, delta_window=40),
            repetitions=3,
            windows=(10, 25),
            id_sample_stride=500,
            base_seed=0,
        )
        _, summaries = run_sweep(cfg)
        assert summaries[0].converged_fraction == 1.0


class TestSummarize:
    def _results(self, mean_ids):
        cfg = _config(repetitions=len(mean_ids))
        results = []
        for rep in range(len(mean_ids)):
            result = run_cell(cfg, cfg.topologies[0], rep)
            object.__setattr__(result, "id_values",
                               np.array([mean_ids[rep]]))
            results.append(result)
        return results

    def test_zero_variance_interval(self):
        row = summarize(self._results([0.3, 0.3, 0.3]))
        assert row.mean_id == 0.3
        assert (row.id_ci_low, row.id_ci_high) == (0.3, 0.3)
        assert not row.degenerate_interval

    def test_two_sample_interval_matches_t_quantile(self):
        row = summarize(self._results([0.2, 0.4]))
        assert row.mean_id == pytest.approx(0.3, abs=1e-15)
        # nu = 1 is the Cauchy distribution, so t_0.975(1) = tan(0.475 pi).
        with mpmath.workdps(40):
            half = mpmath.tan(mpmath.mpf("0.475") * mpmath.pi) * mpmath.mpf("0.1")
            low = float(mpmath.mpf("0.3") - half)
            high = float(mpmath.mpf("0.3") + half)
        assert row.id_ci_low == pytest.approx(low, rel=1e-12)
        assert row.id_ci_high == pytest.approx(high, rel=1e-12)

    def test_single_repetition_flagged(self):
        row = summarize(self._results([0.4]))
        assert row.repetitions == 1
        assert (row.id_ci_low, row.id_ci_high) == (0.4, 0.4)
        assert row.degenerate_interval

    def test_interval_brackets_mean(self):
        row = summarize(self._results([0.1, 0.25, 0.3, 0.2]))
        assert row.id_ci_low <= row.mean_id <= row.id_ci_high

    def test_mixed_cells_rejected(self):
        cfg = _config(topologies=(
            TopologySpec(TopologyKind.RING),
            TopologySpec(TopologyKind.GLOBAL),
        ))
        a = run_cell(cfg, cfg.topologies[0], 0)
        b = run_cell(cfg, cfg.topologies[1], 0)
        with pytest.raises(InputError):
            summarize([a, b])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            summarize([])

    def test_interval_equals_t_ppf_bound_bitwise(self):
        rng = np.random.default_rng(7)
        for n in range(2, 51):
            values = rng.random(n)
            mean = float(values.mean())
            half = stats.t.ppf(0.975, n - 1) * float(values.std(ddof=1)) / np.sqrt(n)
            assert _confidence_interval(values) == (mean - half, mean + half, False)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second per command; only spearman loads it.
    package_root = str(Path(swarmnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, swarmnet.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestCorrelation:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert correlate(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
        assert correlate(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_worked_value(self):
        assert correlate((1, 2, 3), (2, 1, 3)) == pytest.approx(0.5, abs=1e-15)

    def test_zero_variance_is_missing(self):
        assert correlate((1, 1, 1), (1, 2, 3)) is None
        assert correlate((1, 2, 3), (5, 5, 5)) is None

    def test_shape_checked(self):
        with pytest.raises(InputError):
            correlate((1, 2, 3), (1, 2))
        with pytest.raises(InputError):
            correlate((1, 2), (1, 2))

    def test_spearman_monotone_nonlinear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [v ** 3 for v in x]
        assert spearman(x, y) == pytest.approx(1.0)
        assert spearman(x, y[::-1]) == pytest.approx(-1.0)

    def test_spearman_matches_scipy_with_ties(self):
        x = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
        y = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0]
        expected = stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, rel=1e-12)


class TestSweep:
    def test_completeness_and_order(self):
        cfg = _config(topologies=(
            TopologySpec(TopologyKind.RING),
            TopologySpec(TopologyKind.GLOBAL),
        ), repetitions=3)
        results, summaries = run_sweep(cfg)
        assert len(results) == 6
        assert [(r.label, r.repetition) for r in results] == [
            ("ring_2", 0), ("ring_2", 1), ("ring_2", 2),
            ("global_7", 0), ("global_7", 1), ("global_7", 2),
        ]
        assert len(summaries) == 2
        assert summaries[0].repetitions == 3

    def test_parallel_matches_serial(self):
        cfg = _config(repetitions=2)
        serial_results, serial_summary = run_sweep(cfg, jobs=1)
        parallel_results, parallel_summary = run_sweep(cfg, jobs=2)
        assert serial_summary == parallel_summary
        for a, b in zip(serial_results, parallel_results):
            assert a.repetition == b.repetition
            assert np.array_equal(a.id_values, b.id_values)
            assert np.array_equal(a.trace.global_best_fitness,
                                  b.trace.global_best_fitness)

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -2):
            with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
                run_sweep(_config(), jobs=jobs)

    def test_shared_seeds_across_topologies(self):
        cfg = _config(topologies=(
            TopologySpec(TopologyKind.RING),
            TopologySpec(TopologyKind.GLOBAL),
        ))
        results, _ = run_sweep(cfg)
        by_label = {}
        for r in results:
            by_label.setdefault(r.label, []).append(r.rng_seed)
        assert by_label["ring_2"] == by_label["global_7"] == [5, 6]
