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

Row blocks: above a fixed size (`_THREAD_FLOOR` coordinates per step) a
run splits the swarm into contiguous row blocks, one per CPU its thread
may run on (`available_cpus`), and hands each block one task per step:
draw the block's rows of the step's uniforms, move those rows, and, for
the row-local objectives (sphere, F2, F19), evaluate them with the
objective's row kernel. This cannot change a single bit of the result
because every operation split this way is row-local: a row's new
velocity, position and fitness depend only on that row's inputs, in the
same evaluation order as the whole-swarm expression.
Each block draws its rows from the same stream: the first block draws
from the run generator, every other from a copy of it placed once, when
the run starts, at the block's first row. After its rows of a step, each
generator skips the other blocks' rows, so the blocks together draw
exactly what one whole draw would. F6 and F14 are evaluated on the whole
swarm once the blocks are done: no BLAS call (their rotations) is ever
split, since BLAS does not promise the same per-row result for different
row counts.

Placement: each pool thread pins itself, when it starts, to its own share
of the CPUs its caller may use (`cpu_share`), the first thread taking
share 1, the next share 2, and so on; share 0 is left to the caller,
whose own affinity is never touched. Unpinned, a fresh process's kernel
may keep a pool thread on its caller's CPU for seconds, so two blocks
take as long as one. Placement moves where a block runs, not a bit of
what it computes.
"""

from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
# Loaded here, not on first use, so that the workers a sweep forks inherit
# numpy.random instead of each importing it.
import numpy.random

from . import topology as topo
from .errors import ConfigurationError, NonFiniteFitnessError


def constriction_factor(c1: float, c2: float) -> float:
    """Velocity damping coefficient; needs a finite c1 + c2 > 4 for a real root."""
    phi = c1 + c2
    if not math.isfinite(phi):
        raise ValueError(f"constriction requires finite c1 and c2, got c1={c1}, c2={c2}")
    if phi <= 4.0:
        raise ValueError(f"constriction requires c1 + c2 > 4, got phi={phi}")
    return 2.0 / abs(2.0 - phi - math.sqrt(phi * phi - 4.0 * phi))


@dataclass
class PsoParams:
    """Run parameters; ``chi`` is derived from (c1, c2)."""

    c1: float = 2.05
    c2: float = 2.05
    chi: float = field(init=False)
    swarm_size: int = 100
    t_max: int = 10000
    epsilon: float = 1e-5
    delta_window: int = 500
    rng_seed: int = 1

    def __post_init__(self):
        try:
            self.chi = constriction_factor(self.c1, self.c2)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def validate(self) -> None:
        if self.swarm_size < 3:
            raise ConfigurationError(f"swarm_size must be >= 3, got {self.swarm_size}")
        if self.t_max < 1:
            raise ConfigurationError(f"t_max must be >= 1, got {self.t_max}")
        if not self.epsilon > 0.0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.epsilon == math.inf:
            raise ConfigurationError("epsilon must be finite, got inf")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ConfigurationError(
                f"c1 and c2 must be >= 0, got c1={self.c1}, c2={self.c2}"
            )
        if self.delta_window < 1:
            raise ConfigurationError(
                f"delta_window must be >= 1, got {self.delta_window}"
            )
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class Swarm:
    """Whole-swarm state stored as stacked arrays, one row per particle.

    `step` updates the four arrays in place, so they must not share memory.
    """

    positions: np.ndarray      # (n, d)
    velocities: np.ndarray     # (n, d)
    pbest: np.ndarray          # (n, d)
    pbest_fitness: np.ndarray  # (n,)

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


def _best_neighbors(swarm: Swarm, g: topo.TopologyGraph) -> np.ndarray:
    """Each particle's neighbor with minimal personal-best fitness; ties go
    to the smallest index. A particle's own pbest never competes."""
    fitness = swarm.pbest_fitness
    if g.k == g.n - 1:
        # complete graph: every particle picks the best one, which picks
        # the best of the others, in O(n) instead of gathering n(n-1)
        best = fitness.argmin()
        choices = np.full(g.n, best)
        second = np.concatenate((fitness[:best], fitness[best + 1:])).argmin()
        choices[best] = second + (second >= best)
        return choices
    adjacency = g.adjacency
    # each row's position of its best, then that position in the flat (n, k)
    best = fitness.take(adjacency).argmin(axis=1)
    best += np.arange(0, adjacency.size, adjacency.shape[1])
    return adjacency.take(best)


def fitness_improvement(f_prev: float, f_curr: float) -> float:
    """Relative improvement (f_prev - f_curr) / |f_prev|; 0 when f_prev = 0.

    Non-negative for a non-increasing minimization trace; the convergence
    rule compares this magnitude against the epsilon threshold.
    """
    if f_prev == 0.0:
        return 0.0
    return (f_prev - f_curr) / abs(f_prev)


def converged_at(t: int, last_improve: int, delta_window: int) -> int | None:
    """The convergence rule at iteration t, given the last iteration with an
    improvement >= epsilon (0 if none): t_s = max(that, 1) if t - t_s >=
    delta_window, else None."""
    t_s = max(last_improve, 1)
    return t_s if t - t_s >= delta_window else None


def _check_finite(fitness: np.ndarray) -> None:
    if not np.isfinite(fitness).all():
        bad = int(np.flatnonzero(~np.isfinite(fitness))[0])
        raise NonFiniteFitnessError(
            f"particle {bad} produced non-finite fitness {fitness[bad]!r}"
        )


# Coordinates per step (n*d) from which a run splits its rows over
# threads. Below it, handing blocks to a thread costs more than it saves:
# the threads pass the GIL back and forth between numpy calls. On 2 CPUs,
# n = 100, two blocks break even at about 2^15 on F2 and 2^16 on the other
# functions, and F2 steps take 0.63x as long at d = 1000.
_THREAD_FLOOR = 1 << 16


def available_cpus() -> int:
    """CPUs the calling thread may run on; all of them without CPU affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cpu_share(cpus: list[int], i: int, w: int) -> list[int]:
    """Share i of w over the sorted CPU list `cpus`: the w shares are
    disjoint runs of cpus whose sizes differ by at most one when w <=
    len(cpus), and one CPU each, wrapping round, when w is larger."""
    lo = i * len(cpus) // w
    return cpus[lo:max((i + 1) * len(cpus) // w, lo + 1)]


def pin_share(i: int, w: int) -> None:
    """Pin the calling thread to share i of w of the CPUs it may run on;
    nothing where the platform has no CPU affinity."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpu_share(sorted(os.sched_getaffinity(0)), i, w))


class _Workspace:
    """Buffers one run's steps reuse, built for its params, and the row
    blocks that share them, each with its own generator.

    u holds a step's draw, then c1*r1 and c2*r2, then the row kernel's
    scratch; nbest holds pbest - x, then nbest - x, then the positions of
    the rows that improved; fitness holds the row kernel's values.
    """

    def __init__(self, params: PsoParams, d: int, rng: np.random.Generator,
                 blocks: int = 1, pool=None):
        n = params.swarm_size
        self.u = np.empty((n, d, 2))
        # a row of u's (r1, r2) pairs times this is its (c1*r1, c2*r2) pairs
        self.c = np.tile([params.c1, params.c2], d)
        self.chi = params.chi
        self.nbest = np.empty((n, d))
        self.fitness = np.empty(n)
        self.bounds = [(n * j // blocks, n * (j + 1) // blocks) for j in range(blocks)]
        self.pool = pool
        # Each block's generator, keyed by its first row: the first block
        # draws from rng itself, every other from a copy moved past the
        # rows before its own.
        self.gens = {0: rng}
        for lo, _ in self.bounds[1:]:
            self.gens[lo] = copy.deepcopy(rng)
            self.gens[lo].bit_generator.advance(self.u[:lo].size)

    def rows(self, fn) -> None:
        """Call fn(lo, hi) on every row block, the first on this thread,
        and return once all of them are done."""
        futures = [self.pool.submit(fn, lo, hi) for lo, hi in self.bounds[1:]]
        try:
            fn(*self.bounds[0])
        finally:
            for future in futures:
                future.exception()  # wait, even when this thread's block failed
        for future in futures:
            future.result()


def _draw_rows(work: _Workspace, lo: int, hi: int) -> None:
    """Rows lo..hi of the step's draw, from the block's own generator, which
    then skips the other blocks' rows to reach its rows of the next step:
    each row takes 2*d doubles, one 64-bit output each."""
    rows, gen = work.u[lo:hi], work.gens[lo]
    gen.random(out=rows)
    if rows.size != work.u.size:
        gen.bit_generator.advance(work.u.size - rows.size)


def _step_rows(swarm: Swarm, choices: np.ndarray, kernel, work: _Workspace,
               lo: int, hi: int) -> None:
    """Draw rows lo..hi, update their velocity and position in place, and
    write their fitness into work.fitness when there is a row kernel.

    The result has the bits of chi * (v + c1*r1*(pbest - x) +
    c2*r2*(nbest - x)): IEEE multiplication commutes, so (pbest - x) *
    (c1*r1) is the same number, and the additions into v keep their order.
    """
    _draw_rows(work, lo, hi)
    x = swarm.positions[lo:hi]
    v = swarm.velocities[lo:hi]
    u = work.u[lo:hi].reshape(hi - lo, work.c.size)
    u *= work.c
    c1r1, c2r2 = u[:, 0::2], u[:, 1::2]
    diff = work.nbest[lo:hi]
    np.subtract(swarm.pbest[lo:hi], x, out=diff)
    diff *= c1r1
    v += diff
    # "clip": choices are valid rows, and "raise" would buffer out in a copy
    np.take(swarm.pbest, choices[lo:hi], axis=0, out=diff, mode="clip")
    diff -= x
    diff *= c2r2
    v += diff
    v *= work.chi
    x += v
    if kernel is not None:
        kernel(x, work.fitness[lo:hi], u.reshape(2, hi - lo, x.shape[1]))


def step(swarm: Swarm, g: topo.TopologyGraph, objective,
         work: _Workspace) -> tuple[np.ndarray, float]:
    """Advance the swarm one iteration in place, in the buffers and row
    blocks of the run's workspace.

    Returns (choice vector, new global best fitness). Personal bests update
    on strict improvement only, and not at all when a fitness is not
    finite.
    """
    choices = _best_neighbors(swarm, g)
    kernel = objective.row_kernel
    work.rows(partial(_step_rows, swarm, choices, kernel, work))
    if kernel is None:
        fitness = objective.evaluate_many(swarm.positions)
    else:
        fitness = work.fitness
    _check_finite(fitness)
    improved = (fitness < swarm.pbest_fitness).nonzero()[0]
    # "clip" for the same reason as in _step_rows
    swarm.pbest[improved] = np.take(swarm.positions, improved, axis=0,
                                    out=work.nbest[:improved.size], mode="clip")
    swarm.pbest_fitness[improved] = fitness[improved]
    return choices, swarm.global_best_fitness()


def initialize_swarm(objective, params: PsoParams, rng: np.random.Generator) -> Swarm:
    """Positions uniform within the objective bounds, velocities zero,
    personal bests at the initial positions."""
    lower, upper = objective.bounds
    positions = rng.uniform(lower, upper, (params.swarm_size, objective.dimension))
    fitness = objective.evaluate_many(positions)
    _check_finite(fitness)
    return Swarm(positions, np.zeros_like(positions), positions.copy(), fitness.copy())


def run(objective, g: topo.TopologyGraph, params: PsoParams) -> tuple[RunTrace, InteractionLog]:
    """Run constricted PSO until t_max or convergence.

    Convergence is declared at iteration t_s when the relative improvement
    stays below epsilon for every iteration in (t_s, t_s + delta_window];
    the run then stops at t_s + delta_window (see `converged_at`). The
    trace and log cover exactly the executed iterations 1..T.

    Above `_THREAD_FLOOR` coordinates, each step splits its rows over
    `available_cpus()` threads, at most one per row, with the same result.
    """
    params.validate()
    if g.n != params.swarm_size:
        raise ConfigurationError(
            f"topology size {g.n} does not match swarm_size {params.swarm_size}"
        )
    n, d = params.swarm_size, objective.dimension
    blocks = min(available_cpus(), n) if n * d >= _THREAD_FLOOR else 1
    rng = np.random.default_rng(params.rng_seed)
    swarm = initialize_swarm(objective, params, rng)
    f_prev = swarm.global_best_fitness()

    fg_hist: list[float] = []
    fd_hist: list[float] = []
    choice_hist = np.empty((params.t_max, n), dtype=np.int64)
    last_improve = 0

    # The pool lives for this run only: a module-level pool would be
    # inherited without its threads by every process a sweep forks. It
    # starts no thread while there is a single block; each thread it starts
    # pops its own of shares 1..blocks-1 of the caller's CPUs (list.pop is
    # one atomic operation).
    slots = list(range(blocks - 1, 0, -1))
    with ThreadPoolExecutor(max_workers=max(1, blocks - 1),
                            initializer=lambda: pin_share(slots.pop(), blocks)) as pool:
        work = _Workspace(params, d, rng, blocks, pool)
        for t in range(1, params.t_max + 1):
            try:
                choices, f_g = step(swarm, g, objective, work)
            except NonFiniteFitnessError as exc:
                raise NonFiniteFitnessError(f"iteration {t}: {exc}") from exc
            f_delta = fitness_improvement(f_prev, f_g)
            fg_hist.append(f_g)
            fd_hist.append(f_delta)
            choice_hist[t - 1] = choices
            f_prev = f_g
            if f_delta >= params.epsilon:
                last_improve = t
            t_s = converged_at(t, last_improve, params.delta_window)
            if t_s is not None:
                break

    trace = RunTrace(
        global_best_fitness=np.array(fg_hist),
        fitness_improvement=np.array(fd_hist),
        converged_at=t_s,
        final_fitness=fg_hist[-1],
    )
    # a converged run keeps only its own rows, not the whole buffer
    log = InteractionLog(choice_hist if t == params.t_max else choice_hist[:t].copy())
    return trace, log
