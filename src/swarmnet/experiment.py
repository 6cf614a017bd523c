"""Sweep harness: topology grids, seeded repetitions, and summary statistics.

A sweep runs one objective over a list of topologies, repeating each cell
with seeds fanned out as base_seed + repetition so any cell can be
reproduced in isolation. Each run samples interaction diversity on a
configurable iteration stride (stride 1 measures every iteration) and
records the per-iteration relative fitness improvement. Cells are
independent; they are mapped in order, here or on `os.fork` workers fed
one task at a time over pipes. Each task writes its cell's files and
sends back the record `read_cell` reads from them, in map order.

The summary interval's t quantile comes from a table for up to 100
degrees of freedom, so a sweep of 101 or fewer repetitions never imports
scipy; only a larger one imports `scipy.special` for the quantile.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import os
import pickle
import selectors
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import interaction, pso, topology
from .benchmarks import FunctionId, ObjectiveSpec, make_objective
from .errors import ConfigurationError, InputError, SwarmnetError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TopologySpec:
    """One communication-topology choice in a sweep."""

    kind: topology.TopologyKind
    k: int | None = None


# The paper's sweep from ring to global (Kennedy & Mendes, CEC 2002).
PAPER_TOPOLOGIES = (
    TopologySpec(topology.TopologyKind.RING),
    TopologySpec(topology.TopologyKind.VON_NEUMANN),
    *(TopologySpec(topology.TopologyKind.K_REGULAR, k)
      for k in (*range(5, 11), *range(20, 100, 10))),
    TopologySpec(topology.TopologyKind.GLOBAL),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's setup; the defaults are the paper's protocol."""

    objective: ObjectiveSpec = ObjectiveSpec()
    topologies: tuple[TopologySpec, ...] = PAPER_TOPOLOGIES
    # a factory: PsoParams is mutable, so one shared default would leak edits
    params: pso.PsoParams = dataclasses.field(default_factory=pso.PsoParams)
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
        if self.base_seed < 0:
            raise ConfigurationError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.topologies:
            raise ConfigurationError("topology list must be non-empty")
        if not self.windows:
            raise ConfigurationError("window set must be non-empty")
        for k, w in enumerate(self.windows):
            if w < 1:
                raise ConfigurationError(f"window must be >= 1, got {w}")
            if w in self.windows[:k]:
                # T is a set: a repeat would count its window twice in ID
                raise ConfigurationError(f"window {w} is listed more than once")
        if self.id_sample_stride < 1:
            raise ConfigurationError(
                f"id_sample_stride must be >= 1, got {self.id_sample_stride}"
            )
        labels = self.labels()
        for k, name in enumerate(labels):
            if name in labels[:k]:
                # both cells would write the same output directory
                raise ConfigurationError(f"topology {name} is listed more than once")

    def labels(self) -> list[str]:
        """Each topology's label, with its degree resolved for swarm_size."""
        n = self.params.swarm_size
        graphs = (topology.build_topology(s.kind, n, s.k) for s in self.topologies)
        return [topology.label(g.kind, g.k) for g in graphs]

    def seed_for(self, repetition: int) -> int:
        return self.base_seed + repetition


def cell_path(function_id: FunctionId, label: str, repetition: int) -> str:
    """A cell's directory under a sweep's output directory."""
    return f"{function_id.value}/{label}/rep_{repetition}"


class CellRecord(NamedTuple):
    """The scalars of one cell, as `read_cell` reads them from its files:
    what `summarize` reads, and where the cell's files are.

    A NamedTuple rather than a frozen dataclass because every import of
    the package defines it: about 0.15 ms against 1 ms on a 2-vCPU VM.
    """

    function_id: FunctionId
    topology_kind: topology.TopologyKind
    k: int
    repetition: int
    rng_seed: int
    mean_id: float
    mean_fdelta: float
    final_fitness: float
    converged_at: int | None  # the run's t_s, None if it reached t_max

    @property
    def label(self) -> str:
        return topology.label(self.topology_kind, self.k)

    @property
    def cell_dir(self) -> str:
        """The cell's directory under a sweep's output directory."""
        return cell_path(self.function_id, self.label, self.repetition)


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


@contextlib.contextmanager
def ordered_map(jobs: int):
    """A `map` over `jobs` processes whose results come back in input order.

    Each map forks min(`jobs`, tasks) workers with `os.fork`, while no other
    thread runs; they inherit the function, its arguments and the loaded
    modules. When that is below 2 it forks none and runs the tasks in this
    process, as the builtin `map` does. Worker i of W pins itself to share
    i of W of the parent's CPUs (`pso.cpu_share`), so the kernel does not
    keep them on one CPU, and its runs split their row blocks over that
    share alone. Each worker gets its
    first task index over a pipe right after its fork, and the next one with
    each result it sends back; once no task is left for it, or a failure has
    come back, its pipe is closed and it exits while the others work. The
    first task to fail, in input order, raises where its result is read,
    with the worker's traceback as its cause unless it is a SwarmnetError,
    and no task starts after a failure comes back. A worker that dies
    without a result is an error naming its exit status. When the block
    ends, every task pipe still open is closed, then every worker reaped.
    """
    workers = {}  # pid: [write end of its task pipe, None once closed; read end of its results]
    try:
        yield functools.partial(_forked_map, workers, jobs)
    finally:
        for pipes in workers.values():
            _release(pipes)
        for pid in list(workers):
            _reap(workers, pid)


class _RemoteTraceback(Exception):
    """A worker's traceback text, chained as the cause of its exception."""


def _forked_map(workers, jobs, fn, *iterables):
    """Fork min(`jobs`, tasks) workers for `fn`, none below 2; yield the results in order."""
    tasks, running, replies, sent = list(zip(*iterables)), {}, {}, 0  # running: pid: index
    count = min(jobs, len(tasks))
    if count < 2:
        yield from (fn(*task) for task in tasks)
        return
    for slot in range(count):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # close the parent's pipe ends still open, this worker's and earlier ones'
            _work(fn, tasks, task_r, result_w, [task_w, result_r, *(
                fd for t, r in workers.values() for fd in (t, r.fileno()) if fd is not None)],
                (slot, count))
        os.close(task_r)
        os.close(result_w)
        workers[pid] = [task_w, open(result_r, "rb")]
        sent = _send(workers, running, pid, sent)
    with selectors.DefaultSelector() as ready:
        for pid in running:
            ready.register(workers[pid][1], selectors.EVENT_READ, pid)
        for index in range(len(tasks)):
            while index not in replies:
                for key, _ in ready.select():
                    try:
                        ok, _ = replies[running.pop(key.data)] = pickle.load(key.fileobj)
                    except (EOFError, pickle.UnpicklingError):  # it died
                        raise SwarmnetError(f"worker {key.data} ended without sending its "
                                            f"result ({_reap(workers, key.data)})") from None
                    if not ok:
                        sent = len(tasks)  # every task before it is running already
                    if sent < len(tasks):
                        sent = _send(workers, running, key.data, sent)
                    else:  # none left for it: unwatched, so its exit reads as no death
                        ready.unregister(key.fileobj)
                        _release(workers[key.data])
            ok, value = replies.pop(index)
            if not ok:
                raise value[0] from (_RemoteTraceback(value[1]) if value[1] else None)
            yield value


def _send(workers, running, pid, index) -> int:
    """Give worker `pid` task `index`; return the next index."""
    with contextlib.suppress(BrokenPipeError):  # it died: its EOF comes next
        os.write(workers[pid][0], b"%d\n" % index)
    running[pid] = index
    return index + 1


def _release(pipes) -> None:
    """Close a worker's task pipe if it is open, so the worker exits at its end."""
    if pipes[0] is not None:
        os.close(pipes[0])
        pipes[0] = None


def _work(fn, tasks, task_fd, result_fd, inherited, share) -> None:
    """A worker's life, which ends in `os._exit`: pin itself to `share`, a
    (slot, workers) pair for `pso.pin_share`, then run each task whose index
    comes on `task_fd` and pickle (ok, value) to `result_fd`, until the pipe
    ends. A failed task's value is its exception and traceback text."""
    code = 1
    try:
        pso.pin_share(*share)
        for fd in inherited:
            os.close(fd)
        with open(task_fd, "rb") as indices, open(result_fd, "wb") as results:
            for line in indices:
                try:
                    data = pickle.dumps((True, fn(*tasks[int(line)])))
                except BaseException as exc:
                    text = None if isinstance(exc, SwarmnetError) else traceback.format_exc()
                    data = pickle.dumps((False, (exc, text)))
                results.write(data)
                results.flush()
        code = 0
    except (BrokenPipeError, KeyboardInterrupt):
        pass  # the parent stopped reading: a task failed, or it was interrupted
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _reap(workers, pid) -> str:
    """Close the parent's pipe ends of worker `pid`, wait for it, say how it ended."""
    pipes = workers.pop(pid)
    _release(pipes)
    pipes[1].close()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def run_cell(config: ExperimentConfig, spec: TopologySpec, repetition: int,
             cell_dir) -> CellRecord:
    """Execute one seeded run, write its log.csv, trace.csv and
    diversity.csv into `cell_dir`, all or none, and return `read_cell`'s
    record of them."""
    from . import io  # not at the top: io imports this module for SummaryRow

    graph = topology.build_topology(spec.kind, config.params.swarm_size, spec.k)
    params = dataclasses.replace(config.params, rng_seed=config.seed_for(repetition))
    trace, log = pso.run(make_objective(config.objective), graph, params)
    iters, values = interaction.diversity_series(log, config.windows, config.id_sample_stride)
    cell_dir = Path(cell_dir)
    io.write_all_replacing([
        (cell_dir / "log.csv", io.write_interaction_log, log),
        (cell_dir / "trace.csv", io.write_run_trace, trace),
        (cell_dir / "diversity.csv", io.write_diversity_series, iters, values),
    ])
    return read_cell(cell_dir, config, spec, repetition)


def read_cell(cell_dir, config: ExperimentConfig, spec: TopologySpec,
              repetition: int) -> CellRecord:
    """The record of the cell that `run_cell` wrote into `cell_dir`: the
    means and final fitness of its trace.csv and diversity.csv, exact as
    floats are written as their repr, and converged_at by `pso.run`'s rule
    replayed over the trace's improvements. A file that cannot be read, a
    trace that is not the iterations 1..T of a run of this config that
    stops at T, or ID samples off `interaction.sample_points(T, stride)`
    is an InputError naming the file."""
    from . import io

    params, cell_dir = config.params, Path(cell_dir)
    path = cell_dir / "trace.csv"
    iters, f_g, f_d = io.read_run_trace(path)
    total = len(iters)
    improved = np.flatnonzero(f_d >= params.epsilon)
    last_improve = int(improved[-1]) + 1 if len(improved) else 0
    t_s = pso.converged_at(total, last_improve, params.delta_window)
    stop = params.t_max if t_s is None else t_s + params.delta_window
    # a run stops at its first iteration that meets the rule, so no prefix
    # of its trace, cut at a line end, meets it at its own length
    if not (total == stop <= params.t_max and np.array_equal(iters, np.arange(1, total + 1))):
        raise InputError(f"{path}: not the iterations 1..T of a run that stops at T")
    path = cell_dir / "diversity.csv"
    points, values = io.read_diversity_series(path)
    if not np.array_equal(points, interaction.sample_points(total, config.id_sample_stride)):
        raise InputError(f"{path}: expected ID every {config.id_sample_stride} "
                         f"iteration(s) and at the last, {total}")
    graph = topology.build_topology(spec.kind, params.swarm_size, spec.k)
    return CellRecord(config.objective.function_id, graph.kind, graph.k, repetition,
                      config.seed_for(repetition), float(values.mean()),
                      float(f_d.mean()), float(f_g[-1]), t_s)


# scipy.special.stdtrit(df, 0.975) for df = 1..100, as the repr of each
# value that scipy 1.17.1 returns; importing scipy.special costs a command
# about 0.26 s.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def _confidence_interval(values: np.ndarray) -> tuple[float, float]:
    """Two-sided 95% Student-t interval for the mean; a single observation
    degenerates to the point estimate.

    The quantile t_0.975(n - 1) is read from `_T975` up to n = 101 and
    taken from `scipy.special.stdtrit`, imported here, above that.
    """
    mean = float(values.mean())
    n = len(values)
    if n < 2:
        return mean, mean
    sd = float(values.std(ddof=1))
    if n - 1 <= len(_T975):
        t = _T975[n - 2]
    else:
        from scipy.special import stdtrit
        t = stdtrit(n - 1, 0.975)
    half = t * sd / np.sqrt(n)
    return mean - half, mean + half


def summarize(results: list[CellRecord]) -> SummaryRow:
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
    low, high = _confidence_interval(ids)
    return SummaryRow(
        function_id=first.function_id,
        topology_kind=first.topology_kind,
        k=first.k,
        repetitions=len(ordered),
        mean_id=float(ids.mean()),
        id_ci_low=low,
        id_ci_high=high,
        mean_final_fitness=float(np.mean([r.final_fitness for r in ordered])),
        mean_fdelta=float(np.mean([r.mean_fdelta for r in ordered])),
        converged_fraction=float(np.mean([r.converged_at is not None for r in ordered])),
    )


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two float series of one length, at least 3, with finite values only:
    a NaN would give a NaN r, or rank as the largest value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError(f"series lengths differ: {x.shape} vs {y.shape}")
    if len(x) < 3:
        raise InputError(f"need at least 3 points, got {len(x)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InputError("series hold a value that is not finite")
    return x, y


def correlate(x, y) -> float | None:
    """Pearson correlation; None when either series has zero variance."""
    x, y = _paired(x, y)
    xm = x - x.mean()
    ym = y - y.mean()
    sx = float(np.sqrt((xm * xm).sum()))
    sy = float(np.sqrt((ym * ym).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float((xm * ym).sum() / (sx * sy))
    return min(1.0, max(-1.0, r))


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    # a tie group at sorted positions starts..ends-1 holds ranks starts+1..ends
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def spearman(x, y) -> float | None:
    """Rank correlation: average ranks on ties, then Pearson on the ranks."""
    x, y = _paired(x, y)
    return correlate(_average_ranks(x), _average_ranks(y))


def run_sweep(config: ExperimentConfig, out, jobs: int = 1
              ) -> tuple[list[CellRecord], list[SummaryRow]]:
    """Run the full topology x repetition matrix into `out`.

    The config and `jobs` are checked before anything is created. Cells are
    mapped in (topology order, repetition) order. Each task is `run_cell`
    into out/`cell_path(...)` and sends back the `CellRecord` it read from
    the cell's files; records come back, and are logged at INFO, in map
    order, whatever order the cells finish in. The first cell to fail stops
    the cells not yet started; the cells that finished keep their files.
    Cells are mapped over min(`jobs`, cells) workers, each pinned to its
    share of the CPUs, which its runs split their row blocks over; a
    single worker is this process, on all of them.
    """
    config.validate()
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    reps, fid = config.repetitions, config.objective.function_id
    tasks = [(spec, rep, Path(out, cell_path(fid, label, rep)))
             for spec, label in zip(config.topologies, config.labels()) for rep in range(reps)]
    records = []
    with ordered_map(jobs) as cells:
        for record in cells(functools.partial(run_cell, config), *zip(*tasks)):
            records.append(record)
            log.info("cell %s rep %d written (%d of %d)", record.label,
                     record.repetition, len(records), len(tasks))
    summaries = [summarize(records[i:i + reps]) for i in range(0, len(records), reps)]
    return records, summaries
