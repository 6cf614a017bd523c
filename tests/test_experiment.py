"""Sweep-harness, statistics, and seed fan-out checks."""

import dataclasses
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special, stats

import swarmnet
from swarmnet import experiment, io, pso
from swarmnet.benchmarks import FunctionId, ObjectiveSpec, make_objective
from swarmnet.errors import ConfigurationError, InputError, SwarmnetError
from swarmnet.experiment import (
    CellRecord,
    ExperimentConfig,
    TopologySpec,
    _average_ranks,
    _confidence_interval,
    correlate,
    ordered_map,
    read_cell,
    run_cell,
    run_sweep,
    spearman,
    summarize,
)
from swarmnet.interaction import diversity_series
from swarmnet.pso import PsoParams
from swarmnet.topology import TopologyKind, build_topology


def _tree(out):
    """Every file under out, by relative path, with its bytes."""
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


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

    def test_repeated_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window 10 is listed more than once"):
            _config(windows=(10, 25, 10)).validate()

    def test_repeated_topology_rejected(self):
        ring = TopologySpec(TopologyKind.RING)
        cfg = _config(topologies=(ring, TopologySpec(TopologyKind.GLOBAL), ring))
        with pytest.raises(ConfigurationError, match="topology ring_2 is listed more than once"):
            cfg.validate()
        # a ring and a 2-regular circulant are different entries
        _config(topologies=(ring, TopologySpec(TopologyKind.K_REGULAR, 2))).validate()


def _in_memory(cfg, spec, repetition):
    """run_cell's run, diversity series and record, computed without files."""
    graph = build_topology(spec.kind, cfg.params.swarm_size, spec.k)
    params = dataclasses.replace(cfg.params, rng_seed=cfg.seed_for(repetition))
    trace, log = pso.run(make_objective(cfg.objective), graph, params)
    iters, values = diversity_series(log, cfg.windows, cfg.id_sample_stride)
    record = CellRecord(cfg.objective.function_id, graph.kind, graph.k, repetition,
                        cfg.seed_for(repetition), float(values.mean()),
                        float(trace.fitness_improvement.mean()),
                        float(trace.final_fitness), trace.converged_at)
    return trace, log, iters, values, record


class TestRunCell:
    def test_seed_fan_out(self, tmp_path):
        cfg = _config()
        spec = cfg.topologies[0]
        again = run_cell(cfg, spec, 1, tmp_path / "again")
        first = run_cell(cfg, spec, 1, tmp_path / "first")
        run_cell(cfg, spec, 0, tmp_path / "other")
        assert first.rng_seed == again.rng_seed == cfg.base_seed + 1
        assert _tree(tmp_path / "first") == _tree(tmp_path / "again")
        f_g = {name: io.read_run_trace(tmp_path / name / "trace.csv")[1]
               for name in ("first", "other")}
        assert not np.array_equal(f_g["first"], f_g["other"])

    def test_series_lengths_consistent(self, tmp_path):
        cfg = _config()
        run_cell(cfg, cfg.topologies[0], 0, tmp_path)
        total = len(io.read_interaction_log(tmp_path / "log.csv"))
        iters, _, _ = io.read_run_trace(tmp_path / "trace.csv")
        id_iterations, id_values = io.read_diversity_series(tmp_path / "diversity.csv")
        assert len(iters) == total
        assert id_iterations[-1] == total
        assert len(id_iterations) == len(id_values)

    def test_degenerate_stride_single_sample(self, tmp_path):
        cfg = _config(id_sample_stride=10 ** 6)
        run_cell(cfg, cfg.topologies[0], 0, tmp_path)
        id_iterations, _ = io.read_diversity_series(tmp_path / "diversity.csv")
        assert id_iterations.tolist() == [len(io.read_interaction_log(tmp_path / "log.csv"))]

    def test_resolved_degree_recorded(self, tmp_path):
        cfg = _config(topologies=(TopologySpec(TopologyKind.GLOBAL),))
        record = run_cell(cfg, cfg.topologies[0], 0, tmp_path)
        assert record.k == 7
        assert record.label == "global_7"

    def test_sphere_control_converges_on_global(self, tmp_path):
        cfg = _config(
            objective=ObjectiveSpec(FunctionId.SPHERE, dimension=2),
            topologies=(TopologySpec(TopologyKind.GLOBAL),),
            params=PsoParams(swarm_size=10, t_max=6000, delta_window=40),
            repetitions=3,
            windows=(10, 25),
            id_sample_stride=500,
            base_seed=0,
        )
        _, summaries = run_sweep(cfg, tmp_path)
        assert summaries[0].converged_fraction == 1.0


class TestReadCell:
    def _runs(self):
        """A config whose run converges before t_max, then the same config
        with t_max where that run stops, where it converges exactly at t_max,
        and one iteration lower, where it never converges."""
        cfg = _config(objective=ObjectiveSpec(FunctionId.SPHERE, dimension=2),
                      topologies=(TopologySpec(TopologyKind.GLOBAL),),
                      params=PsoParams(swarm_size=8, t_max=400, delta_window=10))
        stop = _in_memory(cfg, cfg.topologies[0], 0)[0].converged_at + 10
        return [dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, t_max=t))
                for t in (400, stop, stop - 1)]

    def test_converged_at_agrees_with_the_run(self, tmp_path):
        got, runs = [], self._runs()
        for k, cfg in enumerate(runs):
            record = run_cell(cfg, cfg.topologies[0], 0, tmp_path / str(k))
            trace = _in_memory(cfg, cfg.topologies[0], 0)[0]
            assert record.converged_at == trace.converged_at
            assert read_cell(tmp_path / str(k), cfg, cfg.topologies[0], 0) == record
            got.append(record.converged_at)
        stop = runs[1].params.t_max
        assert got == [stop - 10, stop - 10, None]

    def test_replay_matches_the_run_on_many_runs(self, tmp_path):
        # 2 functions x 5 seeds x 3 windows x 3 t_max x 3 epsilons = 270 runs
        outcomes = set()
        for fid in (FunctionId.SPHERE, FunctionId.F2):
            for window in (2, 5, 10):
                for t_max in (8, 20, 60):
                    for epsilon in (1e-2, 1e-3, 1e-4):
                        cfg = _config(
                            objective=ObjectiveSpec(fid, dimension=10),
                            params=PsoParams(swarm_size=12, t_max=t_max,
                                             delta_window=window, epsilon=epsilon),
                            repetitions=5, windows=(4,), id_sample_stride=7)
                        for rep in range(5):
                            cell = tmp_path / f"{fid.value}_{window}_{t_max}_{epsilon}_{rep}"
                            got = run_cell(cfg, cfg.topologies[0], rep, cell).converged_at
                            want = _in_memory(cfg, cfg.topologies[0], rep)[0].converged_at
                            assert got == want, cell.name
                            outcomes.add("never" if want is None else
                                         "at t_max" if want + window == t_max else "early")
        assert outcomes == {"never", "at t_max", "early"}

    def test_an_improvement_equal_to_epsilon_counts(self, tmp_path):
        # improvements at or above epsilon restart the quiet window: with
        # t_s = 2, a run with delta_window 3 stops at 5
        cfg = _config(params=PsoParams(swarm_size=8, t_max=30, delta_window=3, epsilon=0.5),
                      id_sample_stride=2)
        trace = pso.RunTrace(np.array([4.0, 2.0, 2.0, 2.0, 2.0]),
                             np.array([0.0, 0.5, 0.0, 0.0, 0.0]), 2, 2.0)
        io.write_run_trace(tmp_path / "trace.csv", trace)
        io.write_diversity_series(tmp_path / "diversity.csv", np.array([2, 4, 5]),
                                  np.array([0.5, 0.25, 0.75]))
        record = read_cell(tmp_path, cfg, cfg.topologies[0], 1)
        assert record == CellRecord(FunctionId.SPHERE, TopologyKind.RING, 2, 1, 6,
                                    0.5, 0.1, 2.0, 2)

    def _cell(self, tmp_path):
        cfg = self._runs()[0]
        run_cell(cfg, cfg.topologies[0], 0, tmp_path)
        return cfg, lambda: read_cell(tmp_path, cfg, cfg.topologies[0], 0)

    def test_missing_trace_names_the_file(self, tmp_path):
        _, read = self._cell(tmp_path)
        (tmp_path / "trace.csv").unlink()
        with pytest.raises(InputError, match=re.escape(f"{tmp_path / 'trace.csv'}: cannot read")):
            read()

    @pytest.mark.parametrize("rows_kept", [0, -1, -2])
    def test_trace_cut_at_a_line_end_names_the_file(self, tmp_path, rows_kept):
        # rows_kept 0 leaves the header only; -1 and -2 cut the last rows
        _, read = self._cell(tmp_path)
        path = tmp_path / "trace.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:rows_kept or 1]))
        with pytest.raises(InputError, match=re.escape(f"{path}: not the iterations 1..T")):
            read()

    def test_id_samples_off_the_stride_grid_name_the_file(self, tmp_path):
        cfg, read = self._cell(tmp_path)
        path = tmp_path / "diversity.csv"
        points, values = io.read_diversity_series(path)
        for bad in (points[:-1], points + 1, np.append(points, points[-1] + 1)):
            io.write_diversity_series(path, bad, np.full(len(bad), 0.5))
            with pytest.raises(InputError, match=re.escape(f"{path}: expected ID every")):
                read()
        io.write_diversity_series(path, points, values)
        assert read() == run_cell(cfg, cfg.topologies[0], 0, tmp_path / "again")


class TestSummarize:
    def _results(self, mean_ids, kind=TopologyKind.RING, k=2):
        return [CellRecord(FunctionId.SPHERE, kind, k, rep, 5 + rep, mean_id, 0.01, 0.5, None)
                for rep, mean_id in enumerate(mean_ids)]

    def test_zero_variance_interval(self):
        row = summarize(self._results([0.3, 0.3, 0.3]))
        assert row.mean_id == 0.3
        assert (row.id_ci_low, row.id_ci_high) == (0.3, 0.3)
        assert row.repetitions == 3

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

    def test_interval_brackets_mean(self):
        row = summarize(self._results([0.1, 0.25, 0.3, 0.2]))
        assert row.id_ci_low <= row.mean_id <= row.id_ci_high

    def test_mixed_cells_rejected(self):
        (a,) = self._results([0.3])
        (b,) = self._results([0.3], TopologyKind.GLOBAL, 7)
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
            assert _confidence_interval(values) == (mean - half, mean + half)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second per command, and no command uses it.
    package_root = str(Path(swarmnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, swarmnet.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_t_table_is_stdtrit_bitwise():
    assert len(experiment._T975) == 100
    for df, t in enumerate(experiment._T975, start=1):
        assert t.hex() == float(special.stdtrit(df, 0.975)).hex(), df


def test_t_table_agrees_with_mpmath_quantile():
    # 1 - F(t) = I_x(df/2, 1/2) / 2 at x = df / (df + t^2); the installed
    # scipy is off by up to 19 ulps (df = 6).
    for df, t in enumerate(experiment._T975, start=1):
        with mpmath.workdps(40):
            nu = mpmath.mpf(df)
            half = mpmath.mpf(1) / 2

            def upper_tail(x):
                return mpmath.betainc(nu / 2, half, 0, nu / (nu + x * x),
                                      regularized=True) / 2 - mpmath.mpf("0.025")

            exact = mpmath.findroot(upper_tail, mpmath.mpf(t))
            assert abs(mpmath.mpf(t) - exact) <= 1e-14 * exact, df


def test_interval_above_the_table_equals_stdtrit_bitwise():
    rng = np.random.default_rng(11)
    for n in (100, 101, 102, 103):
        values = rng.random(n)
        mean = float(values.mean())
        half = special.stdtrit(n - 1, 0.975) * float(values.std(ddof=1)) / np.sqrt(n)
        assert _confidence_interval(values) == (mean - half, mean + half)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_an_input_error(self, bad):
        # A NaN r once passed the zero-variance check and was clipped to -1.0.
        with pytest.raises(InputError, match="not finite"):
            correlate([bad, 1, 2], [1, 2, 3])
        with pytest.raises(InputError, match="not finite"):
            correlate([1, 2, 3], [1, bad, 3])
        with pytest.raises(InputError, match="not finite"):
            spearman([bad, 1, 2], [1, 2, 3])

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

    def test_average_ranks_equal_rankdata_bitwise(self):
        rng = np.random.default_rng(17)
        cases = [[3.0, 1.0, 3.0, 2.0, 1.0, 3.0], [5, 5, 5], [0.1, -2.0], [7.0]]
        for size in (2, 9, 50, 301):
            cases += [rng.integers(0, 5, size), rng.integers(0, 5, size) / 7,
                      rng.random(size)]
        for values in cases:
            ranks = _average_ranks(values)
            expected = stats.rankdata(values)
            assert ranks.dtype == expected.dtype == np.float64
            assert ranks.tobytes() == expected.tobytes()


_STARTS = None  # the directory _failing_cell marks each started cell in


def _failing_cell(config, spec, repetition, cell_dir):
    """run_cell stand-in: marks its start, fails at repetition 0, else idles."""
    (_STARTS / f"{spec.kind.value}_{repetition}").touch()
    if repetition == 0:
        raise InputError(f"{spec.kind.value} failed")
    time.sleep(0.3)


def _no_child_left():
    """True when this process has no child, live or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception cannot be pickled")


def _task(x):
    """ordered_map task: x squared, or a failure chosen by x."""
    if x == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if x == "value":
        raise ValueError("task failed")
    if x == "input":
        raise InputError("bad input")
    if x == "unpicklable":
        raise _Unpicklable()
    if x == "lambda":
        return lambda: None
    if x == "pid":
        return os.getpid()
    if x == "affinity":
        return os.getpid(), sorted(os.sched_getaffinity(0))
    return x * x


class TestOrderedMap:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_come_back_in_input_order(self, jobs):
        with ordered_map(jobs) as mapped:
            assert list(mapped(_task, range(20))) == [x * x for x in range(20)]
            assert list(mapped(_task, [])) == []
            # a second map runs on its own workers, not on the first map's
            assert list(mapped(len, ["ab", "c"])) == [2, 1]
        assert _no_child_left()

    def test_results_larger_than_a_pipe_buffer(self):
        with ordered_map(2) as mapped:
            assert list(mapped(len, [b"x" * (1 << 20), b"y" * 3])) == [1 << 20, 3]
        assert _no_child_left()

    def test_first_failure_in_input_order_keeps_the_worker_traceback(self):
        with pytest.raises(ValueError, match="task failed") as exc:
            with ordered_map(2) as mapped:
                results = mapped(_task, [1, 2, "value", "input", 5])
                assert [next(results), next(results)] == [1, 4]
                next(results)
        cause = exc.value.__cause__
        assert type(cause).__name__ == "_RemoteTraceback"
        assert 'in _task\n    raise ValueError("task failed")' in str(cause)
        assert _no_child_left()

    def test_swarmnet_error_comes_back_without_a_traceback(self):
        with pytest.raises(InputError, match="bad input") as exc:
            with ordered_map(2) as mapped:
                list(mapped(_task, [1, "input", 3]))
        assert exc.value.__cause__ is None
        assert _no_child_left()

    def test_unpicklable_result_is_the_task_failure(self):
        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            with ordered_map(2) as mapped:
                list(mapped(_task, [1, "lambda"]))
        assert _no_child_left()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_workers_exit_once_no_task_is_left(self, jobs):
        # Each worker gets a task right after its fork, and its task pipe is
        # closed with its last result: once the last result is read, every
        # worker exits while the block, and the map, are still open.
        with ordered_map(jobs) as mapped:
            tasks = ["pid"] * (2 * jobs + 1)
            results = mapped(_task, tasks)
            pids = {next(results) for _ in tasks}
            assert len(pids) == jobs
            deadline, left = time.monotonic() + 5, pids
            while left and time.monotonic() < deadline:
                time.sleep(0.01)
                left = {pid for pid in left if os.waitid(
                    os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None}
            assert not left
            results.close()
        assert _no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="placement needs CPU affinity and at least 2 CPUs to tell shares apart")
    def test_workers_run_on_disjoint_shares(self):
        # Worker i of 2 pins itself to share i of the parent's CPUs: one CPU
        # each on 2 CPUs. The parent's own affinity is not touched.
        cpus = sorted(os.sched_getaffinity(0))
        with ordered_map(2) as mapped:
            seen = dict(mapped(_task, ["affinity"] * 6))
        assert len(seen) == 2
        assert sorted(seen.values()) == [pso.cpu_share(cpus, i, 2) for i in range(2)]
        assert sorted(os.sched_getaffinity(0)) == cpus
        assert _no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="placement needs CPU affinity and at least 2 CPUs to tell shares apart")
    def test_sweep_workers_split_their_runs_over_their_shares(self, tmp_path, monkeypatch):
        # Above the floor, the run of worker i of 2 splits its rows into one
        # block per CPU of share i. Each worker reports its affinity and
        # block count in a file named after its pid.
        cpus = sorted(os.sched_getaffinity(0))
        seen = tmp_path / "seen"
        seen.mkdir()
        rows = pso._Workspace.rows

        def spy(work, fn):
            report = [sorted(os.sched_getaffinity(0)), len(work.bounds)]
            (seen / str(os.getpid())).write_text(json.dumps(report))
            return rows(work, fn)

        monkeypatch.setattr(pso._Workspace, "rows", spy)
        cfg = _config(objective=ObjectiveSpec(FunctionId.F2, dimension=700),
                      params=PsoParams(swarm_size=100, t_max=3), windows=(2,))
        run_sweep(cfg, tmp_path / "out", jobs=2)
        shares = sorted(pso.cpu_share(cpus, i, 2) for i in range(2))
        assert sorted(json.loads(path.read_text()) for path in seen.iterdir()) == [
            [share, len(share)] for share in shares]
        assert _no_child_left()

    def test_one_task_forks_no_worker(self):
        # min(3, 1) workers is below 2: the task runs in this process.
        with ordered_map(3) as mapped:
            assert list(mapped(_task, ["pid"])) == [os.getpid()]
        assert _no_child_left()

    @pytest.mark.parametrize("task, how", [("kill", "killed by signal 9"),
                                           ("unpicklable", "exit status 1")])
    def test_worker_that_dies_without_a_result_is_an_error(self, task, how, capfd):
        start = time.perf_counter()
        with pytest.raises(SwarmnetError, match=rf"ended without sending its result \({how}\)"):
            with ordered_map(2) as mapped:
                list(mapped(_task, [1, task, 3, 4]))
        assert time.perf_counter() - start < 5
        assert _no_child_left()
        if task == "unpicklable":
            assert "this exception cannot be pickled" in capfd.readouterr().err


class TestSweep:
    def test_completeness_and_order(self, tmp_path):
        cfg = _config(topologies=(
            TopologySpec(TopologyKind.RING),
            TopologySpec(TopologyKind.GLOBAL),
        ), repetitions=3)
        records, summaries = run_sweep(cfg, tmp_path)
        assert len(records) == 6
        assert [(r.label, r.repetition) for r in records] == [
            ("ring_2", 0), ("ring_2", 1), ("ring_2", 2),
            ("global_7", 0), ("global_7", 1), ("global_7", 2),
        ]
        assert len(summaries) == 2
        assert summaries[0].repetitions == 3
        assert sorted(_tree(tmp_path)) == sorted(
            Path(r.cell_dir) / name for r in records
            for name in ("log.csv", "trace.csv", "diversity.csv")
        )

    def test_records_hold_the_written_cells_scalars(self, tmp_path):
        # The records read back from the files, in this process and from
        # forked workers, hold the run's in-memory scalars bit for bit.
        cfg = _config(topologies=(TopologySpec(TopologyKind.GLOBAL),), repetitions=2)
        expected = [_in_memory(cfg, cfg.topologies[0], rep) for rep in range(2)]
        for jobs in (1, 2):
            records, _ = run_sweep(cfg, tmp_path / str(jobs), jobs=jobs)
            assert records == [want for *_, want in expected]
            for record, (_, log, _, _, want) in zip(records, expected):
                # mean_id, mean_fdelta and final_fitness
                assert [v.hex() for v in record[5:8]] == [v.hex() for v in want[5:8]]
                cell = tmp_path / str(jobs) / record.cell_dir
                assert np.array_equal(io.read_interaction_log(cell / "log.csv").choices,
                                      log.choices)

    def test_parallel_matches_serial(self, tmp_path):
        cfg = _config(repetitions=2)
        serial_records, serial_summary = run_sweep(cfg, tmp_path / "serial", jobs=1)
        parallel_records, parallel_summary = run_sweep(cfg, tmp_path / "parallel", jobs=2)
        assert serial_summary == parallel_summary
        assert serial_records == parallel_records
        serial = _tree(tmp_path / "serial")
        assert len(serial) == 6
        assert serial == _tree(tmp_path / "parallel")

    def test_jobs_below_one_rejected(self, tmp_path):
        for jobs in (0, -2):
            with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
                run_sweep(_config(), tmp_path / "out", jobs=jobs)
            assert not (tmp_path / "out").exists()

    def test_shared_seeds_across_topologies(self, tmp_path):
        cfg = _config(topologies=(
            TopologySpec(TopologyKind.RING),
            TopologySpec(TopologyKind.GLOBAL),
        ))
        records, _ = run_sweep(cfg, tmp_path)
        by_label = {}
        for r in records:
            by_label.setdefault(r.label, []).append(r.rng_seed)
        assert by_label["ring_2"] == by_label["global_7"] == [5, 6]

    def test_failing_cell_stops_cells_not_yet_started(self, tmp_path, monkeypatch):
        # Forked workers inherit the patched module globals.
        starts = tmp_path / "starts"
        starts.mkdir()
        monkeypatch.setattr(sys.modules[__name__], "_STARTS", starts)
        monkeypatch.setattr(experiment, "run_cell", _failing_cell)
        cfg = _config(topologies=(
            TopologySpec(TopologyKind.RING),
            TopologySpec(TopologyKind.GLOBAL),
        ), repetitions=4)
        with pytest.raises(InputError, match="ring failed"):
            run_sweep(cfg, tmp_path / "out", jobs=2)
        started = sorted(p.name for p in starts.iterdir())
        assert "ring_0" in started
        assert len(started) < 8, started
        assert _no_child_left()

    def test_workers_fork_under_a_forkserver_default(self, tmp_path, monkeypatch):
        # From Python 3.14 the default on Linux is forkserver, whose
        # workers would import the module afresh and miss the patch.
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            self.test_failing_cell_stops_cells_not_yet_started(tmp_path, monkeypatch)
        finally:
            multiprocessing.set_start_method(previous, force=True)

    @pytest.mark.parametrize("repetitions", [1, 3])
    def test_summary_reads_back_equal(self, repetitions, tmp_path):
        cfg = _config(topologies=(
            TopologySpec(TopologyKind.RING),
            TopologySpec(TopologyKind.GLOBAL),
        ), repetitions=repetitions)
        _, summaries = run_sweep(cfg, tmp_path)
        path = tmp_path / "summary.csv"
        io.write_summary(path, summaries)
        assert io.read_summary(path) == summaries
