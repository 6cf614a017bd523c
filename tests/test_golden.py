"""Golden determinism: a run's bytes are a pure function of (config, seed).

Each case runs `pso.run` and hashes (SHA-256) the final swarm state, the
`RunTrace` arrays and the bytes of the written `log.csv` and `trace.csv`.
The hashes in `golden_runs.json` were taken before the PSO step was fused
and split into row blocks; any change to the arithmetic order, the random
draw order or the objective shows up here even when the fitness trace
still agrees. The same hashes must come out at every thread count.

The hashes hold for the stack they were taken on (numpy 2.4, x86-64);
another numpy build or CPU may round np.cos differently. Re-pin only when
the run contract changes on purpose, or on a new stack from a commit
known to be right:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_runs.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swarmnet import io, pso
from swarmnet.benchmarks import FunctionId, ObjectiveSpec, make_objective
from swarmnet.topology import TopologyKind, build_topology

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

_TOPOLOGIES = {
    "ring": (TopologyKind.RING, None),
    "k_regular_4": (TopologyKind.K_REGULAR, 4),
    "global": (TopologyKind.GLOBAL, None),
}

# (function, dimension, swarm size, topology) per case. The last case has
# n*d = 70 000 coordinates, above the size where pso.run starts threads.
CASES = {
    f"{fid.value}_{topo}": (fid, 10, 12, topo)
    for fid in FunctionId
    for topo in _TOPOLOGIES
}
CASES["f2_ring_large"] = (FunctionId.F2, 700, 100, "ring")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: str, out_dir: Path, threads: int = 1) -> dict[str, str]:
    """Run one case and hash everything it leaves behind."""
    fid, d, n, topo = CASES[case]
    kind, k = _TOPOLOGIES[topo]
    objective = make_objective(
        ObjectiveSpec(fid, dimension=d, group_size=5, domain_seed=3)
    )
    params = pso.PsoParams(swarm_size=n, t_max=30, delta_window=10, rng_seed=7)
    swarms = []
    original = pso.step

    def spy(swarm, *args, **kwargs):
        swarms.append(swarm)
        return original(swarm, *args, **kwargs)

    pso.step = spy
    try:
        trace, log = pso.run(objective, build_topology(kind, n, k), params,
                             threads=threads)
    finally:
        pso.step = original
    swarm = swarms[-1]
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_interaction_log(out_dir / "log.csv", log)
    io.write_run_trace(out_dir / "trace.csv", trace)
    return {
        "positions": _sha(swarm.positions.tobytes()),
        "velocities": _sha(swarm.velocities.tobytes()),
        "pbest": _sha(swarm.pbest.tobytes()),
        "pbest_fitness": _sha(swarm.pbest_fitness.tobytes()),
        "trace": _sha(
            trace.global_best_fitness.tobytes()
            + trace.fitness_improvement.tobytes()
            + repr((trace.converged_at, trace.final_fitness)).encode()
        ),
        "log_csv": _sha((out_dir / "log.csv").read_bytes()),
        "trace_csv": _sha((out_dir / "trace.csv").read_bytes()),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden_hashes(case, tmp_path):
    assert run_case(case, tmp_path) == _golden()[case]


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_hashes_do_not_depend_on_thread_count(case, threads, tmp_path, monkeypatch):
    # One thread is the test above. The small cases lower the floor so that
    # their rows are split too; the large case splits at the real floor.
    # Three threads over 12 or 100 rows give blocks of 4/4/4 and 33/33/34.
    _, d, n, _ = CASES[case]
    if n * d < pso._THREAD_FLOOR:
        monkeypatch.setattr(pso, "_THREAD_FLOOR", 0)
    splits = []
    original = pso._Workspace.rows

    def spy(work, fn):
        splits.append(len(work.bounds))
        return original(work, fn)

    monkeypatch.setattr(pso._Workspace, "rows", spy)
    # Frequent thread switches give a race between blocks its chances.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        digests = run_case(case, tmp_path, threads)
    finally:
        sys.setswitchinterval(interval)
    assert digests == _golden()[case]
    assert set(splits) == {threads}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_two_threads_on_one_cpu_match_golden_hashes(tmp_path):
    # Both row-block shares of a process limited to one CPU are that CPU.
    cpu = min(os.sched_getaffinity(0))
    code = (f"import os, json, pathlib; os.sched_setaffinity(0, {{{cpu}}}); "
            f"from test_golden import run_case; "
            f"print(json.dumps(run_case('f2_ring_large', pathlib.Path({str(tmp_path)!r}), 2)))")
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(pso.__file__).parents[1])])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads(done.stdout) == _golden()["f2_ring_large"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {case: run_case(case, Path(tmp) / case) for case in sorted(CASES)}
    json.dump(pinned, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
