"""Sweep harness: topology grids, seeded repetitions, and summary statistics.

A sweep runs one objective over a list of topologies, repeating each cell
with seeds fanned out as base_seed + repetition so any cell can be
reproduced in isolation. Each run samples interaction diversity on a
configurable iteration stride (stride 1 measures every iteration) and
records the per-iteration relative fitness improvement. Cells are
independent, so a worker pool may execute them in any order; aggregation
keys results by cell identity and is order-independent.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from . import interaction, pso, topology
from .benchmarks import FunctionId, ObjectiveSpec, make_objective
from .errors import ConfigurationError, InputError


@dataclass(frozen=True)
class TopologySpec:
    """One communication-topology choice in a sweep."""

    kind: topology.TopologyKind
    k: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    objective: ObjectiveSpec
    topologies: tuple[TopologySpec, ...]
    params: pso.PsoParams
    repetitions: int = 30
    windows: tuple[int, ...] = (10, 25, 50, 75, 100)
    id_sample_stride: int = 1
    base_seed: int = 1

    def validate(self) -> None:
        self.objective.validate()
        self.params.validate()
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if not self.topologies:
            raise ConfigurationError("topology list must be non-empty")
        if not self.windows:
            raise ConfigurationError("window set must be non-empty")
        for w in self.windows:
            if w < 1:
                raise ConfigurationError(f"window must be >= 1, got {w}")
        if self.id_sample_stride < 1:
            raise ConfigurationError(
                f"id_sample_stride must be >= 1, got {self.id_sample_stride}"
            )
        for spec in self.topologies:
            topology.build_topology(spec.kind, self.params.swarm_size, spec.k)

    def seed_for(self, repetition: int) -> int:
        return self.base_seed + repetition


@dataclass(frozen=True)
class CellResult:
    """Everything measured in one (topology, repetition) run."""

    function_id: FunctionId
    topology_kind: topology.TopologyKind
    k: int
    repetition: int
    rng_seed: int
    trace: pso.RunTrace
    log: pso.InteractionLog
    id_iterations: np.ndarray
    id_values: np.ndarray

    @property
    def mean_id(self) -> float:
        return float(self.id_values.mean())

    @property
    def mean_fdelta(self) -> float:
        return float(self.trace.fitness_improvement.mean())

    @property
    def converged(self) -> bool:
        return self.trace.converged_at is not None

    @property
    def label(self) -> str:
        return topology.label(self.topology_kind, self.k)


@dataclass(frozen=True)
class SummaryRow:
    """Per-cell statistics across repetitions, one row of the summary table."""

    function_id: FunctionId
    topology_kind: topology.TopologyKind
    k: int
    repetitions: int
    mean_id: float
    id_ci_low: float
    id_ci_high: float
    mean_final_fitness: float
    mean_fdelta: float
    converged_fraction: float
    degenerate_interval: bool = False


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def run_cell(config: ExperimentConfig, spec: TopologySpec,
             repetition: int, threads: int = 1) -> CellResult:
    """Execute one seeded run and measure its diversity and improvement.

    `threads` bounds the threads the PSO run splits its rows over; the
    result does not depend on it.
    """
    graph = topology.build_topology(
        spec.kind, config.params.swarm_size, spec.k
    )
    seed = config.seed_for(repetition)
    params = dataclasses.replace(config.params, rng_seed=seed)
    objective = make_objective(config.objective)
    trace, log = pso.run(objective, graph, params, threads=threads)
    iters, values = interaction.diversity_series(
        log, config.windows, config.id_sample_stride
    )
    return CellResult(
        function_id=config.objective.function_id,
        topology_kind=graph.kind,
        k=graph.k,
        repetition=repetition,
        rng_seed=seed,
        trace=trace,
        log=log,
        id_iterations=iters,
        id_values=values,
    )


def _confidence_interval(values: np.ndarray) -> tuple[float, float, bool]:
    """Two-sided 95% Student-t interval for the mean; a single observation
    degenerates to the point estimate and is flagged."""
    mean = float(values.mean())
    n = len(values)
    if n < 2:
        return mean, mean, True
    sd = float(values.std(ddof=1))
    half = stdtrit(n - 1, 0.975) * sd / np.sqrt(n)
    return mean - half, mean + half, False


def summarize(results: list[CellResult]) -> SummaryRow:
    """Aggregate the repetitions of one cell into a summary row."""
    if not results:
        raise InputError("cannot summarize an empty result list")
    first = results[0]
    for r in results:
        if (r.function_id, r.topology_kind, r.k) != (
            first.function_id, first.topology_kind, first.k
        ):
            raise InputError("summarize requires results from a single cell")
    ordered = sorted(results, key=lambda r: r.repetition)
    ids = np.array([r.mean_id for r in ordered])
    low, high, degenerate = _confidence_interval(ids)
    return SummaryRow(
        function_id=first.function_id,
        topology_kind=first.topology_kind,
        k=first.k,
        repetitions=len(ordered),
        mean_id=float(ids.mean()),
        id_ci_low=low,
        id_ci_high=high,
        mean_final_fitness=float(np.mean([r.trace.final_fitness for r in ordered])),
        mean_fdelta=float(np.mean([r.mean_fdelta for r in ordered])),
        converged_fraction=float(np.mean([r.converged for r in ordered])),
        degenerate_interval=degenerate,
    )


def correlate(x, y) -> float | None:
    """Pearson correlation; None when either series has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError(f"series lengths differ: {x.shape} vs {y.shape}")
    if len(x) < 3:
        raise InputError(f"need at least 3 points, got {len(x)}")
    xm = x - x.mean()
    ym = y - y.mean()
    sx = float(np.sqrt((xm * xm).sum()))
    sy = float(np.sqrt((ym * ym).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float((xm * ym).sum() / (sx * sy))
    return min(1.0, max(-1.0, r))


def spearman(x, y) -> float | None:
    """Rank correlation: average ranks on ties, then Pearson on the ranks."""
    # scipy.stats takes about a second to import; keep it off the CLI's path.
    from scipy.stats import rankdata

    return correlate(rankdata(x), rankdata(y))


def _run_cell_task(args):
    config, spec, repetition, threads = args
    return run_cell(config, spec, repetition, threads=threads)


def run_sweep(config: ExperimentConfig, jobs: int = 1
              ) -> tuple[list[CellResult], list[SummaryRow]]:
    """Run the full topology x repetition matrix.

    Results come back in deterministic (topology order, repetition) order
    regardless of worker scheduling, so downstream files never depend on
    completion order. Each of the `jobs` workers gives its cell an equal
    share of the available CPUs as threads.
    """
    config.validate()
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    threads = max(1, available_cpus() // jobs)
    tasks = [
        (i, spec, rep)
        for i, spec in enumerate(config.topologies)
        for rep in range(config.repetitions)
    ]
    by_key: dict[tuple[int, int], CellResult] = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_cell_task, (config, spec, rep, threads)): (i, rep)
                for i, spec, rep in tasks
            }
            for future, key in futures.items():
                by_key[key] = future.result()
    else:
        for i, spec, rep in tasks:
            by_key[(i, rep)] = run_cell(config, spec, rep, threads=threads)
    results = [
        by_key[(i, rep)]
        for i in range(len(config.topologies))
        for rep in range(config.repetitions)
    ]
    summaries = [
        summarize([by_key[(i, rep)] for rep in range(config.repetitions)])
        for i in range(len(config.topologies))
    ]
    return results, summaries
