"""Constricted swarm-update and convergence-rule checks."""

import itertools
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from oracle import oracle_pso
from swarmnet import pso
from swarmnet.benchmarks import FunctionId, Objective, ObjectiveSpec, make_objective
from swarmnet.errors import ConfigurationError, NonFiniteFitnessError
from swarmnet.pso import (
    PsoParams,
    Swarm,
    constriction_factor,
    cpu_share,
    fitness_improvement,
    initialize_swarm,
    run,
    step,
)
from swarmnet.pso import _best_neighbors, _draw_rows, _Workspace
from swarmnet.topology import TopologyKind, build_topology


class TestConstriction:
    def test_standard_parameters(self):
        assert constriction_factor(2.05, 2.05) == pytest.approx(
            0.7298437881283576, abs=1e-15
        )

    def test_asymmetric_parameters(self):
        assert constriction_factor(3.0, 2.0) == pytest.approx(
            0.3819660112501051, abs=1e-15
        )

    def test_requires_phi_above_four(self):
        for c1 in (2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                constriction_factor(c1, 2.0)

    def test_params_derive_chi(self):
        params = PsoParams()
        assert params.chi == pytest.approx(0.7298437881283576, abs=1e-15)

    def test_params_reject_small_phi(self):
        for c1 in (1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                PsoParams(c1=c1, c2=1.0)

    def test_chi_cannot_be_set(self):
        with pytest.raises(TypeError):
            PsoParams(chi=0.9)

    def test_validate_rejects_bad_fields(self):
        for kwargs in (
            dict(swarm_size=2),
            dict(t_max=0),
            dict(epsilon=0.0),
            dict(epsilon=math.inf),
            dict(delta_window=0),
            dict(c1=-100.0, c2=106.0),
            dict(c1=5.2, c2=-1.0),
            dict(rng_seed=-1),
        ):
            with pytest.raises(ConfigurationError):
                PsoParams(**kwargs).validate()

    @pytest.mark.parametrize("epsilon, message", [
        (-1.0, "epsilon must be > 0, got -1.0"),
        (math.nan, "epsilon must be > 0, got nan"),
        (-math.inf, "epsilon must be > 0, got -inf"),
        (math.inf, "epsilon must be finite, got inf"),
    ])
    def test_epsilon_messages(self, epsilon, message):
        with pytest.raises(ConfigurationError) as exc:
            PsoParams(epsilon=epsilon).validate()
        assert str(exc.value) == message

    def test_social_only_acceleration_is_valid(self):
        PsoParams(c1=0.0, c2=4.1).validate()


class TestFitnessImprovement:
    def test_worked_value(self):
        assert fitness_improvement(10000.0, 9999.9) == pytest.approx(
            1e-5, rel=1e-9
        )

    def test_no_change_is_zero(self):
        assert fitness_improvement(5.0, 5.0) == 0.0

    def test_zero_previous_fitness(self):
        assert fitness_improvement(0.0, 0.0) == 0.0

    def test_worsening_is_negative(self):
        assert fitness_improvement(1.0, 2.0) == -1.0


def _manual_swarm(pbest_fitness):
    n = len(pbest_fitness)
    positions = np.zeros((n, 2))
    return Swarm(
        positions=positions,
        velocities=np.zeros_like(positions),
        pbest=positions.copy(),
        pbest_fitness=np.array(pbest_fitness, dtype=float),
    )


class TestBestNeighbor:
    def test_picks_minimum_fitness(self):
        g = build_topology(TopologyKind.RING, 4)
        swarm = _manual_swarm([3.0, 1.0, 2.0, 0.0])
        assert _best_neighbors(swarm, g).tolist() == [3, 2, 3, 2]
        assert _best_neighbors(_manual_swarm([3.0, 1.0, 2.0, 5.0]), g)[0] == 1

    def test_tie_goes_to_lowest_index(self):
        g = build_topology(TopologyKind.RING, 4)
        swarm = _manual_swarm([5.0, 2.0, 9.0, 2.0])
        assert _best_neighbors(swarm, g)[0] == 1
        # every topology kind, all fitness equal and partly equal, against
        # a plain loop over each particle's neighbors
        graphs = [build_topology(TopologyKind.RING, 12),
                  build_topology(TopologyKind.GLOBAL, 12),
                  build_topology(TopologyKind.K_REGULAR, 12, 4),
                  build_topology(TopologyKind.K_REGULAR, 12, 5),
                  build_topology(TopologyKind.VON_NEUMANN, 12)]
        rng = np.random.default_rng(7)
        fitnesses = [[3.0] * 12, rng.integers(0, 3, 12).astype(float).tolist(),
                     [1.0, 0.0] * 6]
        for g, fitness in itertools.product(graphs, fitnesses):
            expected = [min(map(int, row), key=lambda j: (fitness[j], j))
                        for row in g.adjacency]
            assert _best_neighbors(_manual_swarm(fitness), g).tolist() == expected

    @pytest.mark.parametrize("kind, k", [(TopologyKind.GLOBAL, None),
                                         (TopologyKind.K_REGULAR, 99)])
    def test_complete_graph_matches_per_particle_loop(self, kind, k):
        # the O(n) path for degree n - 1, on fitness drawn from three
        # values, so the best value is shared by many particles
        g = build_topology(kind, 100, k)
        assert g.k == g.n - 1
        rng = np.random.default_rng(24)
        for _ in range(50):
            fitness = rng.integers(0, 3, 100).astype(float).tolist()
            expected = [min((j for j in range(100) if j != i), key=lambda j: (fitness[j], j))
                        for i in range(100)]
            assert _best_neighbors(_manual_swarm(fitness), g).tolist() == expected

    def test_own_fitness_never_competes(self):
        g = build_topology(TopologyKind.RING, 4)
        swarm = _manual_swarm([0.0, 7.0, 8.0, 9.0])
        assert _best_neighbors(swarm, g)[0] in (1, 3)


class TestStep:
    def test_matches_scalar_reference(self):
        objective = make_objective(ObjectiveSpec(FunctionId.SPHERE, dimension=3))
        g = build_topology(TopologyKind.RING, 4)
        params = PsoParams(swarm_size=4, t_max=10)
        rng = np.random.default_rng(123)
        swarm = initialize_swarm(objective, params, rng)

        before_pos = swarm.positions.copy()
        before_vel = swarm.velocities.copy()
        before_pbest = swarm.pbest.copy()
        before_fit = swarm.pbest_fitness.copy()

        ref_rng = np.random.default_rng(123)
        ref_rng.uniform(*objective.bounds, (4, 3))
        draws = ref_rng.random((4, 3, 2))

        choices, f_g = step(swarm, g, objective, _Workspace(params, 3, rng))

        for i in range(4):
            nbrs = [int(v) for v in g.adjacency[i]]
            expected_choice = min(nbrs, key=lambda j: (before_fit[j], j))
            assert choices[i] == expected_choice
            for dim in range(3):
                r1, r2 = draws[i, dim]
                vel = params.chi * (
                    before_vel[i, dim]
                    + params.c1 * r1 * (before_pbest[i, dim] - before_pos[i, dim])
                    + params.c2 * r2
                    * (before_pbest[expected_choice, dim] - before_pos[i, dim])
                )
                assert swarm.velocities[i, dim] == vel
                assert swarm.positions[i, dim] == before_pos[i, dim] + vel

        fits = objective.evaluate_many(swarm.positions)
        for i in range(4):
            if fits[i] < before_fit[i]:
                assert swarm.pbest_fitness[i] == fits[i]
                assert np.array_equal(swarm.pbest[i], swarm.positions[i])
            else:
                assert swarm.pbest_fitness[i] == before_fit[i]
                assert np.array_equal(swarm.pbest[i], before_pbest[i])
        assert f_g == swarm.pbest_fitness.min()

    def test_choices_use_pre_step_state(self):
        objective = make_objective(ObjectiveSpec(FunctionId.SPHERE, dimension=2))
        g = build_topology(TopologyKind.RING, 4)
        params = PsoParams(swarm_size=4, t_max=10)
        rng = np.random.default_rng(7)
        swarm = initialize_swarm(objective, params, rng)
        before = swarm.pbest_fitness.copy()
        expected = [
            min((int(v) for v in g.adjacency[i]), key=lambda j: (before[j], j))
            for i in range(4)
        ]
        choices, _ = step(swarm, g, objective, _Workspace(params, 2, rng))
        assert list(choices) == expected

    def test_pbest_updates_only_on_strict_improvement(self):
        class Constant:
            dimension = 2
            bounds = (-1.0, 1.0)

            row_kernel = None

            def evaluate_many(self, xs):
                return np.full(len(xs), 3.0)

        objective = Constant()
        params = PsoParams(swarm_size=4, t_max=10)
        rng = np.random.default_rng(5)
        swarm = initialize_swarm(objective, params, rng)
        initial_pbest = swarm.pbest.copy()
        step(swarm, build_topology(TopologyKind.RING, 4), objective,
             _Workspace(params, 2, rng))
        assert np.array_equal(swarm.pbest, initial_pbest)
        assert np.all(swarm.pbest_fitness == 3.0)

    @pytest.mark.parametrize("fid", list(FunctionId))
    def test_threaded_step_hands_out_its_blocks_once(self, fid, monkeypatch):
        # Each block draws, moves and, under a row kernel, evaluates its own
        # rows in one task; F6 and F14 are evaluated whole after the blocks.
        objective = make_objective(ObjectiveSpec(fid, dimension=10, group_size=5))
        g = build_topology(TopologyKind.RING, 7)
        params = PsoParams(swarm_size=7)
        rng = np.random.default_rng(6)
        swarm = initialize_swarm(objective, params, rng)
        handoffs, evaluated = [], []
        rows, evaluate_many = _Workspace.rows, Objective.evaluate_many

        def rows_spy(work, fn):
            handoffs.append(len(work.bounds))
            return rows(work, fn)

        def evaluate_spy(obj, xs):
            evaluated.append(len(xs))
            return evaluate_many(obj, xs)

        monkeypatch.setattr(_Workspace, "rows", rows_spy)
        monkeypatch.setattr(Objective, "evaluate_many", evaluate_spy)
        with ThreadPoolExecutor(max_workers=2) as pool:
            step(swarm, g, objective, _Workspace(params, 10, rng, 3, pool))
        assert handoffs == [3]
        whole = fid in (FunctionId.F6, FunctionId.F14)
        assert evaluated == ([7] if whole else [])

    @pytest.mark.parametrize("row_local", [True, False])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_non_finite_step_leaves_personal_bests(self, row_local, blocks):
        objective = _OneRowNonFinite(row_local)
        params = PsoParams(swarm_size=7)
        rng = np.random.default_rng(8)
        swarm = initialize_swarm(objective, params, rng)
        pbest, pbest_fitness = swarm.pbest.copy(), swarm.pbest_fitness.copy()
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(NonFiniteFitnessError):
                step(swarm, build_topology(TopologyKind.RING, 7), objective,
                     _Workspace(params, 2, rng, blocks, pool))
        assert swarm.pbest.tobytes() == pbest.tobytes()
        assert swarm.pbest_fitness.tobytes() == pbest_fitness.tobytes()

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("improving", [False, True])
    def test_steps_allocate_less_than_one_swarm_array(self, blocks, improving):
        # Every buffer a step needs is in the swarm or the workspace. With
        # np.take's default mode="raise", which buffers out in a copy, the
        # moves or the improved-row copy (every row, under _Improving)
        # allocated a block's rows or all of pbest again.
        n, d = 100, 1000
        if improving:
            objective = _Improving(d)
        else:
            objective = make_objective(ObjectiveSpec(FunctionId.F2, dimension=d))
        g = build_topology(TopologyKind.RING, n)
        params = PsoParams(swarm_size=n)
        rng = np.random.default_rng(9)
        swarm = initialize_swarm(objective, params, rng)
        with ThreadPoolExecutor(max_workers=max(1, blocks - 1)) as pool:
            work = _Workspace(params, d, rng, blocks, pool)
            step(swarm, g, objective, work)  # starts the pool's thread
            tracemalloc.start()
            try:
                for _ in range(10):
                    if improving:
                        objective.level -= 1.0
                    step(swarm, g, objective, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < n * d * 8


class _OneRowNonFinite:
    """Finite at initialization; afterwards every row improves, except the
    last row of each evaluated block, which is NaN."""

    dimension = 2
    bounds = (-1.0, 1.0)

    def __init__(self, row_local):
        self.calls = 0
        self.row_kernel = self._rows if row_local else None

    def _rows(self, xs, out, tmp):
        out.fill(-1.0)
        out[-1:] = np.nan

    def evaluate_many(self, xs):
        self.calls += 1
        out = np.ones(len(xs))
        if self.calls > 1:
            self._rows(xs, out, None)
        return out


class _Improving:
    """Row-local; lowering `level` before a step makes every row improve."""

    bounds = (-1.0, 1.0)

    def __init__(self, dimension):
        self.dimension = dimension
        self.level = 0.0

    def evaluate_many(self, xs):
        return np.full(len(xs), self.level)

    def row_kernel(self, xs, out, tmp):
        out.fill(self.level)


class TestBufferOwnership:
    def test_initial_fitness_is_a_copy(self):
        returned = []

        class Remembering:
            dimension = 2
            bounds = (-1.0, 1.0)

            row_kernel = None

            def evaluate_many(self, xs):
                returned.append(np.sum(xs * xs, axis=1))
                return returned[-1]

        swarm = initialize_swarm(Remembering(), PsoParams(swarm_size=4),
                                 np.random.default_rng(3))
        assert not np.shares_memory(swarm.pbest_fitness, returned[0])

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_swarm_and_workspace_share_no_memory(self, blocks):
        objective = make_objective(ObjectiveSpec(FunctionId.F2, dimension=5))
        g = build_topology(TopologyKind.RING, 7)
        params = PsoParams(swarm_size=7)
        rng = np.random.default_rng(4)
        swarm = initialize_swarm(objective, params, rng)
        with ThreadPoolExecutor(max_workers=2) as pool:
            work = _Workspace(params, 5, rng, blocks, pool)
            for _ in range(4):
                step(swarm, g, objective, work)
        arrays = {
            "positions": swarm.positions,
            "velocities": swarm.velocities,
            "pbest": swarm.pbest,
            "pbest_fitness": swarm.pbest_fitness,
            "u": work.u,
            "nbest": work.nbest,
        }
        for (name_a, a), (name_b, b) in itertools.combinations(arrays.items(), 2):
            assert not np.shares_memory(a, b), (name_a, name_b)


class TestBlockDraw:
    @pytest.mark.parametrize("n,d,blocks", [(7, 1, 3), (7, 5, 2), (12, 10, 3),
                                            (100, 7, 2), (100, 7, 3)])
    def test_block_draws_are_the_serial_draw(self, n, d, blocks):
        rng = np.random.default_rng(21)
        serial = np.random.default_rng(21)
        with ThreadPoolExecutor(max_workers=blocks - 1) as pool:
            work = _Workspace(PsoParams(swarm_size=n), d, rng, blocks, pool)
            for _ in range(3):  # each draw starts where the one before ended
                work.rows(partial(_draw_rows, work))
                assert work.u.tobytes() == serial.random((n, d, 2)).tobytes()
        assert rng.random(9).tobytes() == serial.random(9).tobytes()

    def test_single_block_draws_from_the_run_generator(self):
        rng = np.random.default_rng(21)
        work = _Workspace(PsoParams(swarm_size=7), 5, rng)
        assert list(work.gens) == [0] and work.gens[0] is rng
        _draw_rows(work, 0, 7)
        assert work.u.tobytes() == np.random.default_rng(21).random((7, 5, 2)).tobytes()


class _ExplodingObjective:
    """Finite at initialization, non-finite afterwards."""

    dimension = 2
    bounds = (-1.0, 1.0)

    def __init__(self):
        self.calls = 0

    row_kernel = None

    def evaluate_many(self, xs):
        self.calls += 1
        if self.calls == 1:
            return np.ones(len(xs))
        return np.full(len(xs), np.inf)


class TestRun:
    def _sphere(self, dimension=4):
        return make_objective(ObjectiveSpec(FunctionId.SPHERE, dimension=dimension))

    def test_trace_and_log_are_consistent(self):
        g = build_topology(TopologyKind.RING, 8)
        params = PsoParams(swarm_size=8, t_max=120, delta_window=30)
        trace, log = run(self._sphere(), g, params)
        total = len(log)
        assert len(trace.global_best_fitness) == total
        assert len(trace.fitness_improvement) == total
        assert log.choices.shape == (total, 8)
        assert trace.final_fitness == trace.global_best_fitness[-1]
        diffs = np.diff(trace.global_best_fitness)
        assert np.all(diffs <= 0.0)

    def test_improvement_matches_trace(self):
        g = build_topology(TopologyKind.RING, 8)
        params = PsoParams(swarm_size=8, t_max=60, delta_window=20)
        trace, _ = run(self._sphere(), g, params)
        f_g = trace.global_best_fitness
        for t in range(1, len(f_g)):
            assert trace.fitness_improvement[t] == fitness_improvement(
                f_g[t - 1], f_g[t]
            )

    def test_convergence_stops_after_quiet_window(self):
        g = build_topology(TopologyKind.GLOBAL, 10)
        params = PsoParams(swarm_size=10, t_max=5000, delta_window=40)
        trace, log = run(self._sphere(2), g, params)
        assert trace.converged_at is not None
        assert len(log) == trace.converged_at + params.delta_window
        assert log.choices.base is None  # owns its rows, not the t_max buffer
        quiet = trace.fitness_improvement[trace.converged_at:]
        assert np.all(quiet < params.epsilon)

    def test_infinite_epsilon_converges_immediately(self):
        # An infinite epsilon is refused; the largest finite one is above
        # every relative improvement, so the first iteration converges.
        g = build_topology(TopologyKind.RING, 6)
        params = PsoParams(swarm_size=6, t_max=1000, epsilon=math.inf,
                           delta_window=25)
        with pytest.raises(ConfigurationError, match="epsilon must be finite"):
            run(self._sphere(), g, params)
        params.epsilon = sys.float_info.max
        trace, log = run(self._sphere(), g, params)
        assert trace.converged_at == 1
        assert len(log) == 1 + params.delta_window

    def test_t_max_reached_without_convergence(self):
        g = build_topology(TopologyKind.RING, 6)
        params = PsoParams(swarm_size=6, t_max=15, delta_window=500)
        trace, log = run(self._sphere(), g, params)
        assert trace.converged_at is None
        assert len(log) == 15

    def test_log_memory_is_one_buffer(self):
        # Each step's choices go into one (t_max, n) array, so the peak
        # stays near the log's own size; a list of per-step arrays and its
        # copy into one array peaked at over twice that.
        n, t_max = 100, 2000
        g = build_topology(TopologyKind.RING, n)
        params = PsoParams(swarm_size=n, t_max=t_max, delta_window=t_max)
        objective = self._sphere(2)
        tracemalloc.start()
        try:
            _, log = run(objective, g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log) == t_max
        assert peak <= 1.25 * log.choices.nbytes

    def test_step_works_in_the_swarm_and_three_workspace_arrays(self, monkeypatch):
        # Swarm (3 n*d arrays), u (2) and nbest (1) peak at 6 n*d floats. The
        # separate r1/r2 products, differences and F2 temporaries, and the
        # buffered copy of np.take's out, peaked at over 8.
        n, d = 100, 1000
        g = build_topology(TopologyKind.RING, n)
        params = PsoParams(swarm_size=n, t_max=5, delta_window=5)
        objective = make_objective(ObjectiveSpec(FunctionId.F2, dimension=d))
        monkeypatch.setattr(pso, "available_cpus", lambda: 2)
        tracemalloc.start()
        try:
            run(objective, g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * n * d * 8

    def test_same_seed_same_run(self):
        g = build_topology(TopologyKind.RING, 6)
        params = PsoParams(swarm_size=6, t_max=40, delta_window=10, rng_seed=9)
        trace_a, log_a = run(self._sphere(), g, params)
        trace_b, log_b = run(self._sphere(), g,
                             PsoParams(swarm_size=6, t_max=40, delta_window=10,
                                       rng_seed=9))
        assert np.array_equal(trace_a.global_best_fitness,
                              trace_b.global_best_fitness)
        assert np.array_equal(log_a.choices, log_b.choices)

    def test_different_seed_different_run(self):
        g = build_topology(TopologyKind.RING, 6)
        trace_a, _ = run(self._sphere(), g,
                         PsoParams(swarm_size=6, t_max=40, delta_window=10,
                                   rng_seed=1))
        trace_b, _ = run(self._sphere(), g,
                         PsoParams(swarm_size=6, t_max=40, delta_window=10,
                                   rng_seed=2))
        assert not np.array_equal(trace_a.global_best_fitness,
                                  trace_b.global_best_fitness)

    def test_swarm_size_must_match_topology(self):
        g = build_topology(TopologyKind.RING, 6)
        with pytest.raises(ConfigurationError):
            run(self._sphere(), g, PsoParams(swarm_size=8, t_max=10))

    def test_non_finite_fitness_names_iteration(self):
        g = build_topology(TopologyKind.RING, 4)
        params = PsoParams(swarm_size=4, t_max=10, delta_window=5)
        with pytest.raises(NonFiniteFitnessError, match="iteration 1"):
            run(_ExplodingObjective(), g, params)

    def test_log_choices_are_neighbors(self):
        g = build_topology(TopologyKind.VON_NEUMANN, 9)
        params = PsoParams(swarm_size=9, t_max=30, delta_window=10)
        _, log = run(self._sphere(), g, params)
        neighbor_sets = [set(int(v) for v in g.adjacency[i]) for i in range(9)]
        for row in log.choices:
            for i, choice in enumerate(row):
                assert int(choice) in neighbor_sets[i]


class _CoarseSphere:
    """Sphere rounded down to a multiple of 1000: personal bests tie often,
    and the global best stalls, so a run converges."""

    dimension = 3
    bounds = (-100.0, 100.0)
    row_kernel = None

    def evaluate_many(self, xs):
        return np.floor((xs * xs).sum(axis=1) / 1000.0)


_ORACLE_TOPOLOGIES = [(TopologyKind.RING, None), (TopologyKind.VON_NEUMANN, None),
                      (TopologyKind.K_REGULAR, 5), (TopologyKind.GLOBAL, None)]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestOracle:
    """pso.run against oracle_pso, bit for bit: the trace, the log, and the
    final swarm, which run keeps in the Swarm that initialize_swarm built."""

    def _check(self, monkeypatch, objective, kind, k, params, threads=1):
        swarms = []
        monkeypatch.setattr(pso, "available_cpus", lambda: threads)

        def keep(*args):
            swarms.append(initialize_swarm(*args))
            return swarms[-1]

        monkeypatch.setattr(pso, "initialize_swarm", keep)
        g = build_topology(kind, params.swarm_size, k)
        trace, log = run(objective, g, params)
        (best, delta, converged_at), choices, (x, v, p, pf) = oracle_pso(
            objective, kind.value, k, params)
        assert _bits(trace.global_best_fitness) == _bits(best)
        assert _bits(trace.fitness_improvement) == _bits(delta)
        assert trace.converged_at == converged_at
        assert log.choices.tolist() == choices
        swarm, = swarms
        for ours, theirs in ((swarm.positions, x), (swarm.velocities, v),
                             (swarm.pbest, p), (swarm.pbest_fitness, pf)):
            assert _bits(ours) == _bits(theirs)
        return trace

    @pytest.mark.parametrize("kind,k", _ORACLE_TOPOLOGIES)
    @pytest.mark.parametrize("fid", list(FunctionId))
    def test_run_matches_oracle(self, monkeypatch, fid, kind, k):
        objective = make_objective(ObjectiveSpec(fid, dimension=10, group_size=5))
        params = PsoParams(swarm_size=12, t_max=40, rng_seed=7)
        self._check(monkeypatch, objective, kind, k, params)

    @pytest.mark.parametrize("kind,k", _ORACLE_TOPOLOGIES)
    def test_ties_and_convergence_match_oracle(self, monkeypatch, kind, k):
        params = PsoParams(swarm_size=12, t_max=40, delta_window=10, rng_seed=7)
        trace = self._check(monkeypatch, _CoarseSphere(), kind, k, params)
        assert trace.converged_at is not None

    @pytest.mark.parametrize("threads", [1, 3])
    def test_row_blocks_match_oracle(self, monkeypatch, threads):
        n, d = 64, 1024
        assert n * d >= pso._THREAD_FLOOR
        objective = make_objective(ObjectiveSpec(FunctionId.F2, dimension=d))
        params = PsoParams(swarm_size=n, t_max=3, rng_seed=7)
        self._check(monkeypatch, objective, TopologyKind.RING, None, params, threads)


def _cpus():
    """The sorted CPUs this process may run on; none without CPU affinity."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


needs_two_cpus = pytest.mark.skipif(
    len(_cpus()) < 2, reason="placement needs CPU affinity and at least 2 CPUs to tell shares apart")


class TestPlacement:
    @pytest.fixture(autouse=True)
    def _own_affinity(self):
        # a test that finds the caller pinned must not pass its pin on
        cpus = _cpus()
        yield
        if cpus:
            os.sched_setaffinity(0, cpus)

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_cpu_share_table(self, c, w):
        cpus = [2, 3, 5, 8][:c]  # sorted, not 0..c-1
        shares = [cpu_share(cpus, i, w) for i in range(w)]
        for share in shares:
            assert share and share == cpus[cpus.index(share[0]):][:len(share)]
        used = [cpu for share in shares for cpu in share]
        if w <= c:  # a partition into near-equal runs, in order
            assert used == cpus
            assert max(map(len, shares)) - min(map(len, shares)) <= 1
        else:  # one CPU each, wrapping round
            assert all(len(share) == 1 for share in shares)
        if w >= c:
            assert set(used) == set(cpus)

    def test_no_affinity_no_pinning(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", None, raising=False)
        pso.pin_share(1, 2)  # reads no affinity, sets none

    @needs_two_cpus
    def test_each_pool_thread_runs_on_its_own_share(self, monkeypatch):
        # The caller runs block 0 on its own affinity; each pool thread pins
        # itself to one of shares 1..blocks-1, one CPU each up to 4 CPUs.
        cpus = _cpus()
        blocks = min(len(cpus), 4)
        monkeypatch.setattr(pso, "_THREAD_FLOOR", 0)
        seen = {}  # (thread, first row): affinity
        original = pso._step_rows

        def spy(swarm, choices, kernel, work, lo, hi):
            seen[threading.get_ident(), lo] = sorted(os.sched_getaffinity(0))
            return original(swarm, choices, kernel, work, lo, hi)

        monkeypatch.setattr(pso, "_step_rows", spy)
        monkeypatch.setattr(pso, "available_cpus", lambda: blocks)
        objective = make_objective(ObjectiveSpec(FunctionId.F2, dimension=4))
        run(objective, build_topology(TopologyKind.RING, 8), PsoParams(swarm_size=8, t_max=20))
        caller = threading.get_ident()
        assert {lo for _, lo in seen} == {8 * j // blocks for j in range(blocks)}
        assert all((thread == caller) == (lo == 0) for thread, lo in seen)
        assert seen[caller, 0] == cpus
        pinned = {thread: tuple(cpu) for (thread, _), cpu in seen.items() if thread != caller}
        shares = [tuple(cpu_share(cpus, i, blocks)) for i in range(1, blocks)]
        assert len(set(pinned.values())) == len(pinned)  # distinct shares
        assert set(pinned.values()) <= set(shares)
        if len(cpus) <= 4:
            assert all(len(cpu) == 1 for cpu in pinned.values())

    @pytest.mark.skipif(not _cpus(), reason="needs CPU affinity")
    def test_blocks_follow_the_cpus_of_the_calling_thread(self, monkeypatch):
        # Above the floor, a run splits over every CPU its thread may run
        # on, and pinned to one CPU, it runs one block.
        cpus = _cpus()
        n, d = 64, 1024
        assert n * d >= pso._THREAD_FLOOR
        splits = []
        rows = pso._Workspace.rows

        def spy(work, fn):
            splits.append(len(work.bounds))
            return rows(work, fn)

        monkeypatch.setattr(pso._Workspace, "rows", spy)
        objective = make_objective(ObjectiveSpec(FunctionId.SPHERE, dimension=d))
        g = build_topology(TopologyKind.RING, n)
        for affinity, blocks in ((cpus, min(len(cpus), n)), (cpus[:1], 1)):
            os.sched_setaffinity(0, affinity)
            splits.clear()
            run(objective, g, PsoParams(swarm_size=n, t_max=2))
            assert set(splits) == {blocks}

    @needs_two_cpus
    @pytest.mark.parametrize("explode", [False, True])
    def test_caller_affinity_is_left_as_it_was(self, monkeypatch, explode):
        monkeypatch.setattr(pso, "_THREAD_FLOOR", 0)
        monkeypatch.setattr(pso, "available_cpus", lambda: 2)
        before = os.sched_getaffinity(0)
        g = build_topology(TopologyKind.RING, 4)
        params = PsoParams(swarm_size=4, t_max=10, delta_window=5)
        if explode:
            with pytest.raises(NonFiniteFitnessError):
                run(_ExplodingObjective(), g, params)
        else:
            run(make_objective(ObjectiveSpec(FunctionId.SPHERE, dimension=4)), g, params)
        assert os.sched_getaffinity(0) == before
