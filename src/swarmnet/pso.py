"""Constricted particle swarm optimization with best-neighbor logging.

The velocity update is the Clerc-Kennedy constricted form

    v <- chi * (v + c1*r1*(pbest - x) + c2*r2*(nbest - x))
    x <- x + v

where chi = 2 / |2 - phi - sqrt(phi^2 - 4*phi)| with phi = c1 + c2 > 4,
and nbest is the personal best of the particle's best neighbor under the
communication topology. Each iteration records which neighbor every
particle copied from; that log feeds the interaction-network analysis.

Updates are synchronous: all best neighbors for iteration t are chosen
from the swarm state at the end of iteration t-1. A single seeded PCG64
stream drives the run; uniform draws are ordered by (iteration, particle,
dimension, r1-before-r2), so a (seed, config) pair fully determines every
trace value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import topology as topo
from .errors import ConfigurationError, NonFiniteFitnessError


def constriction_factor(c1: float, c2: float) -> float:
    """Velocity damping coefficient; requires c1 + c2 > 4 for a real root."""
    phi = c1 + c2
    if phi <= 4.0:
        raise ValueError(f"constriction requires c1 + c2 > 4, got phi={phi}")
    return 2.0 / abs(2.0 - phi - math.sqrt(phi * phi - 4.0 * phi))


@dataclass
class PsoParams:
    """Run parameters; ``chi`` is derived from (c1, c2) when left None."""

    c1: float = 2.05
    c2: float = 2.05
    chi: float | None = None
    swarm_size: int = 100
    t_max: int = 10000
    epsilon: float = 1e-5
    delta_window: int = 500
    rng_seed: int = 1

    def __post_init__(self):
        if self.chi is None:
            try:
                self.chi = constriction_factor(self.c1, self.c2)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc

    def validate(self) -> None:
        if not 0.0 < self.chi <= 1.0:
            raise ConfigurationError(f"chi must be in (0, 1], got {self.chi}")
        if self.swarm_size < 3:
            raise ConfigurationError(f"swarm_size must be >= 3, got {self.swarm_size}")
        if self.t_max < 1:
            raise ConfigurationError(f"t_max must be >= 1, got {self.t_max}")
        if not self.epsilon > 0.0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.delta_window < 1:
            raise ConfigurationError(
                f"delta_window must be >= 1, got {self.delta_window}"
            )


@dataclass
class Swarm:
    """Whole-swarm state stored as stacked arrays, one row per particle."""

    positions: np.ndarray      # (n, d)
    velocities: np.ndarray     # (n, d)
    pbest: np.ndarray          # (n, d)
    pbest_fitness: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def global_best_fitness(self) -> float:
        return float(self.pbest_fitness.min())


@dataclass(frozen=True)
class InteractionLog:
    """Best-neighbor choice n_i(t) for every particle i and iteration t.

    ``choices[t-1, i]`` is the index copied from by particle i at iteration t.
    """

    choices: np.ndarray  # (T, n) integer array

    def __post_init__(self):
        self.choices.setflags(write=False)

    def __len__(self) -> int:
        return self.choices.shape[0]

    @property
    def n(self) -> int:
        return self.choices.shape[1]


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration global best fitness and relative improvement."""

    global_best_fitness: np.ndarray
    fitness_improvement: np.ndarray
    converged_at: int | None
    final_fitness: float


def best_neighbor(swarm: Swarm, g: topo.TopologyGraph, i: int) -> int:
    """Neighbor of i with minimal personal-best fitness; ties go to the
    smallest index. A particle's own pbest never competes."""
    nbrs = topo.neighbors(g, i)
    return int(nbrs[np.argmin(swarm.pbest_fitness[nbrs])])


def _best_neighbors(swarm: Swarm, g: topo.TopologyGraph) -> np.ndarray:
    """Vectorized best_neighbor for all particles at once."""
    fits = swarm.pbest_fitness[g.adjacency]  # (n, k)
    return g.adjacency[np.arange(g.n), np.argmin(fits, axis=1)]


def fitness_improvement(f_prev: float, f_curr: float) -> float:
    """Relative improvement (f_prev - f_curr) / |f_prev|; 0 when f_prev = 0.

    Non-negative for a non-increasing minimization trace; the convergence
    rule compares this magnitude against the epsilon threshold.
    """
    if f_prev == 0.0:
        return 0.0
    return (f_prev - f_curr) / abs(f_prev)


def _check_finite(fitness: np.ndarray) -> None:
    if not np.all(np.isfinite(fitness)):
        bad = int(np.flatnonzero(~np.isfinite(fitness))[0])
        raise NonFiniteFitnessError(
            f"particle {bad} produced non-finite fitness {fitness[bad]!r}"
        )


def step(swarm: Swarm, g: topo.TopologyGraph, params: PsoParams,
         objective, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Advance the swarm one iteration in place.

    Returns (choice vector, new global best fitness). Personal bests update
    on strict improvement only.
    """
    n, d = swarm.positions.shape
    choices = _best_neighbors(swarm, g)
    u = rng.random((n, d, 2))
    nbest = swarm.pbest[choices]
    swarm.velocities = params.chi * (
        swarm.velocities
        + params.c1 * u[..., 0] * (swarm.pbest - swarm.positions)
        + params.c2 * u[..., 1] * (nbest - swarm.positions)
    )
    swarm.positions = swarm.positions + swarm.velocities
    fitness = objective.evaluate_many(swarm.positions)
    _check_finite(fitness)
    improved = fitness < swarm.pbest_fitness
    swarm.pbest = np.where(improved[:, None], swarm.positions, swarm.pbest)
    swarm.pbest_fitness = np.where(improved, fitness, swarm.pbest_fitness)
    return choices, swarm.global_best_fitness()


def initialize_swarm(objective, params: PsoParams, rng: np.random.Generator) -> Swarm:
    """Positions uniform within the objective bounds, velocities zero,
    personal bests at the initial positions."""
    lower, upper = objective.bounds
    positions = rng.uniform(lower, upper, (params.swarm_size, objective.dimension))
    fitness = objective.evaluate_many(positions)
    _check_finite(fitness)
    return Swarm(positions, np.zeros_like(positions), positions.copy(), fitness)


def run(objective, g: topo.TopologyGraph, params: PsoParams) -> tuple[RunTrace, InteractionLog]:
    """Run constricted PSO until t_max or convergence.

    Convergence is declared at iteration t_s when the relative improvement
    stays below epsilon for every iteration in (t_s, t_s + delta_window];
    the run then stops at t_s + delta_window. The trace and log cover
    exactly the executed iterations 1..T.
    """
    params.validate()
    if g.n != params.swarm_size:
        raise ConfigurationError(
            f"topology size {g.n} does not match swarm_size {params.swarm_size}"
        )
    rng = np.random.default_rng(params.rng_seed)
    swarm = initialize_swarm(objective, params, rng)
    f_prev = swarm.global_best_fitness()

    fg_hist: list[float] = []
    fd_hist: list[float] = []
    choice_hist: list[np.ndarray] = []
    last_improve = 0
    converged_at: int | None = None

    for t in range(1, params.t_max + 1):
        try:
            choices, f_g = step(swarm, g, params, objective, rng)
        except NonFiniteFitnessError as exc:
            raise NonFiniteFitnessError(f"iteration {t}: {exc}") from exc
        f_delta = fitness_improvement(f_prev, f_g)
        fg_hist.append(f_g)
        fd_hist.append(f_delta)
        choice_hist.append(choices)
        f_prev = f_g
        if f_delta >= params.epsilon:
            last_improve = t
        t_s = max(last_improve, 1)
        if t - t_s >= params.delta_window:
            converged_at = t_s
            break

    trace = RunTrace(
        global_best_fitness=np.array(fg_hist),
        fitness_improvement=np.array(fd_hist),
        converged_at=converged_at,
        final_fitness=fg_hist[-1],
    )
    log = InteractionLog(np.array(choice_hist, dtype=np.int64))
    return trace, log
