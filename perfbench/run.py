"""swarmnet benchmark: three CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; the program is imported from
the checkout's `src/`. Each invocation runs one `swarmnet` command in a
fresh interpreter (`perfbench/child.py`) with BLAS pinned to one thread.
Invocations repeat, one after another, for about `--seconds`; each
end-to-end metric is the median over invocations, with `wall_s` and
`iter_per_s` brought to reference machine speed by a fixed kernel timed
in each invocation (`perfbench/calibrate.py`). With `--trace 1`,
untraced and traced invocations alternate and the per-layer figures come
from the traced ones. The correctness gate then runs outside the timed
part. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--pin` rewrites the pinned output digests of the default seed from this
checkout; use it only when a change of output bytes is intended.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path, PurePosixPath

import numpy as np

import calibrate
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
SWARM = 100
WINDOWS = (10, 25, 50, 75, 100)
ORACLE_SAMPLES = 2
# An invocation takes a few seconds; three timeouts still end a run in 180 s.
CHILD_TIMEOUT_S = 40
BUSY_CPU_FRAC = 0.25


def as_sets(overrides: list[str]) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


class RunF2Ring:
    """One `swarmnet run`: PSO-bound.

    Exists so a PSO or objective optimisation has a workload to claim on:
    pso.step and Objective.evaluate_many on shifted Rastrigin at d=1000 do
    about 95% of the work, while ID sampled every 20 iterations and the
    log write keep interaction and io near 2%, so an ID or I/O change must
    leave it unchanged.
    """

    name = "run_f2_ring"
    op = "cell"
    ops = 1
    t_max = 200
    jobs = 1

    def overrides(self, seed):
        return ["function=f2", "dimension=1000", f"domain_seed={seed}",
                f"swarm_size={SWARM}", "topologies=ring", f"t_max={self.t_max}",
                "id_sample_stride=20", f"base_seed={seed}"]

    def argv(self, seed, out, inputs, jobs):
        return ["run", *as_sets(self.overrides(seed)), "--out", str(out)]

    def prepare(self, seed, inputs):
        pass


class SweepIdMixed:
    """One `swarmnet sweep --jobs 2`: ID-bound.

    Exists for ID and sweep-plumbing changes: at stride 1, ID on networks
    from sparse (ring) to dense (global) costs 25-100 times a PSO step on a
    10-dimensional sphere, so interaction does about 95% of the work. It is
    the only workload that runs experiment's process pool and sends every
    CellResult back to the parent. The densest topology comes first: the
    pool hands out cells in submission order, so the two costly global
    cells start together on the two workers and the light ring cells fill
    in at the end, as the many cells of a full sweep would.
    """

    name = "sweep_id_mixed"
    op = "cell"
    ops = 6
    t_max = 150
    jobs = 2

    def overrides(self, seed):
        return ["function=sphere", "dimension=10", f"swarm_size={SWARM}",
                "topologies=global,k_regular:30,ring", "repetitions=2",
                f"t_max={self.t_max}", "id_sample_stride=1", f"base_seed={seed}"]

    def argv(self, seed, out, inputs, jobs):
        return ["sweep", "--jobs", str(jobs), *as_sets(self.overrides(seed)),
                "--out", str(out)]

    def prepare(self, seed, inputs):
        pass


class AnalyzeLogs:
    """One `swarmnet analyze` over seeded synthetic logs: read-bound.

    Exists for log I/O changes: io.read_interaction_log does about 70% of
    the work and there is no PSO. Its ID samples are sparse (stride 100),
    so an ID change that only helps consecutive windows must show no
    regression here.
    """

    name = "analyze_logs"
    op = "log file"
    t_max = 2000
    jobs = 1

    # (leaders, copy probability) per log, from a few dominant flows to
    # many weak ones. They are fixed rather than drawn from the seed: ID
    # cost grows with the number of distinct edges, so drawing them made
    # the work differ by 20% between seeds.
    shapes = ((3, 0.9), (6, 0.75), (10, 0.6))
    ops = len(shapes)

    def overrides(self, seed):
        return ["id_sample_stride=100"]

    def argv(self, seed, out, inputs, jobs):
        return ["analyze", str(inputs), *as_sets(self.overrides(seed)),
                "--out", str(out)]

    def prepare(self, seed, inputs):
        rng = np.random.default_rng(seed)
        for k, (leaders, copy_p) in enumerate(self.shapes):
            choices = selection_log(rng, SWARM, self.t_max, leaders, copy_p)
            path = inputs / f"swarm_{k}" / "log.csv"
            path.parent.mkdir(parents=True)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iteration", "particle", "best_neighbor"])
                writer.writerows(
                    (t + 1, i, b)
                    for t, row in enumerate(choices.tolist())
                    for i, b in enumerate(row)
                )


WORKLOADS = {w.name: w for w in (RunF2Ring(), SweepIdMixed(), AnalyzeLogs())}


def selection_log(rng, n, t_max, leaders, copy_p, drift_p=0.02):
    """Best-neighbour choices with dominant and weak flows.

    Each particle copies one of a few leaders with probability copy_p and
    otherwise any other particle. Each iteration one leader is replaced
    with probability drift_p, so the dominant flows drift slowly.
    """
    current = rng.choice(n, leaders, replace=False)
    idx = np.arange(n)
    out = np.empty((t_max, n), dtype=np.int64)
    for t in range(t_max):
        if rng.random() < drift_p:
            current[rng.integers(leaders)] = rng.integers(n)
        lead = current[rng.integers(leaders, size=n)]
        other = (idx + rng.integers(1, n, size=n)) % n
        copy = (rng.random(n) < copy_p) & (lead != idx)
        out[t] = np.where(copy, lead, other)
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    # setup_s must not depend on the caller's shell: the warm-up writes
    # src/swarmnet's bytecode once, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def invoke(workload, seed, rep_dir: Path, inputs: Path, jobs, traced=False):
    """Run one invocation in a fresh interpreter; None if it failed."""
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    spec = {
        "src": str(SRC),
        "overrides": workload.overrides(seed),
        "argv": workload.argv(seed, out, inputs, jobs),
        "result": str(rep_dir / "result.json"),
        "trace_dir": str(rep_dir) if traced else None,
    }
    (rep_dir / "spec.json").write_text(json.dumps(spec))
    with open(rep_dir / "stdout.txt", "w") as so, open(rep_dir / "stderr.txt", "w") as se:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(rep_dir / "spec.json")],
            cwd=ROOT, env=child_env(), stdout=so, stderr=se, start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{rep_dir.name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        finally:
            # Also stops sweep workers left behind by a failed invocation.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    result_path = rep_dir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    if proc.returncode != 0 or result is None or result["rc"] != 0:
        tail = (rep_dir / "stderr.txt").read_text()[-2000:]
        print(f"{rep_dir.name}: invocation failed (exit {proc.returncode})\n{tail}",
              file=sys.stderr)
        return None
    result["out"] = out
    result["trace_dir"] = spec["trace_dir"]
    return result


def output_digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def op_dirs(digests: dict[str, str]) -> set[str]:
    """One operation per output directory holding a diversity.csv."""
    return {str(PurePosixPath(rel).parent) for rel in digests
            if PurePosixPath(rel).name == "diversity.csv"}


def mismatched_ops(expected: dict, actual: dict, ops: set[str]) -> set[str]:
    """Operations whose files differ; a differing shared file fails all."""
    bad = set()
    for rel in expected.keys() | actual.keys():
        if expected.get(rel) != actual.get(rel):
            parent = str(PurePosixPath(rel).parent)
            if parent not in ops:
                return set(ops)
            bad.add(parent)
    return bad


def load_oracle():
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("swarmnet_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_choices(path: Path) -> list[list[int]]:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    t_max, n = int(rows[:, 0].max()), int(rows[:, 1].max()) + 1
    choices = np.full((t_max, n), -1, dtype=np.int64)
    choices[rows[:, 0] - 1, rows[:, 1]] = rows[:, 2]
    return choices.tolist()


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def oracle_failures(workload, seed, out: Path, inputs: Path, oracle) -> set[str]:
    """Operations whose sampled ID values, final iteration or destruction
    surface disagree with the brute-force reference in tests/oracle.py."""
    return {op for k, op in enumerate(sorted(op_dirs(output_digests(out))))
            if not oracle_agrees(workload, oracle, out / op, inputs / op,
                                 np.random.default_rng([seed, k]))}


def oracle_agrees(workload, oracle, op_out: Path, op_in: Path, rng) -> bool:
    log_path = op_out / "log.csv" if (op_out / "log.csv").exists() else op_in / "log.csv"
    try:
        choices = read_choices(log_path)
        series = {int(t): float(v) for t, v in read_rows(op_out / "diversity.csv")}
        surface = (read_rows(op_out / "destruction.csv")
                   if (op_out / "destruction.csv").exists() else None)
    except (OSError, ValueError, IndexError):
        return False
    t_max, n = len(choices), len(choices[0])
    if not series or max(series) != t_max or t_max != workload.t_max:
        return False
    picks = rng.choice(sorted(series), min(ORACLE_SAMPLES, len(series)), replace=False)
    for t in map(int, picks):
        if oracle.oracle_id(choices, t, tuple(min(w, t) for w in WINDOWS)) != series[t]:
            return False
    if surface is None:
        return True
    for t_w in sorted({min(w, t_max) for w in WINDOWS}):
        got = [(float(thr), int(c)) for w, thr, c in surface if int(w) == t_w]
        curve = oracle.oracle_curve(n, oracle.oracle_weights(choices, t_max, t_w), t_w)
        if got != [(j / (2 * t_w), c) for j, c in enumerate(curve)]:
            return False
    return True


def cpu_busy(interval=0.5):
    """Share of CPU time not idle over a short window, from /proc/stat."""
    def sample():
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
        return sum(fields), fields[3] + fields[4]
    try:
        total0, idle0 = sample()
        time.sleep(interval)
        total1, idle1 = sample()
    except OSError:
        return None
    return 1.0 - (idle1 - idle0) / max(total1 - total0, 1)


def environment() -> dict:
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("version", "unknown")),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
    }


def median_metric(reps, key, scaled=False):
    """Median over invocations; scaled, each value is first brought to the
    reference machine speed that the invocation's own kernel time gives."""
    return statistics.median(
        r[key] * (calibrate.REFERENCE_S / r["kernel_s"] if scaled else 1) for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin needs the default seed {DEFAULT_SEED}")
    if not (SRC / "swarmnet" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"no swarmnet source tree at {ROOT}: need src/swarmnet and tests/oracle.py",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    oracle = load_oracle()

    env = environment()
    load_before, busy_before = os.getloadavg(), cpu_busy()
    wdir = WORK / workload.name
    shutil.rmtree(wdir, ignore_errors=True)
    inputs = wdir / "inputs"
    inputs.mkdir(parents=True)
    workload.prepare(args.seed, inputs)
    # Untimed: fills the bytecode cache and the page cache for set-up.
    subprocess.run([sys.executable, "-c", "import swarmnet.cli"], cwd=ROOT,
                   env=child_env(), timeout=CHILD_TIMEOUT_S, check=False)

    # Invocations are short so that a run has about ten: single ones vary
    # by 10-30% on a shared 2-CPU machine, and the run reports medians.
    modes = (False, True) if args.trace else (False,)
    reps = []
    start = time.perf_counter()
    while True:
        for traced in modes:
            reps.append((traced, invoke(workload, args.seed, wdir / f"rep{len(reps)}",
                                        inputs, workload.jobs, traced)))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + len(modes) / len(reps)) > args.seconds:
            break
    load_after = os.getloadavg()

    # Correctness gate, outside the timed part.
    done = [rep for _, rep in reps if rep is not None]
    untraced = [rep for traced, rep in reps if rep is not None and not traced]
    traced_reps = [rep for traced, rep in reps if rep is not None and traced]
    if not untraced or (args.trace and not traced_reps):
        print("no invocation of a needed kind succeeded", file=sys.stderr)
        return 1
    reference = output_digests(done[0]["out"])
    ops = op_dirs(reference)
    gate = oracle_failures(workload, args.seed, done[0]["out"], inputs, oracle)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if args.pin:
        pinned[workload.name] = reference
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED:
        gate |= mismatched_ops(pinned.get(workload.name, {}), reference, ops)
    if workload.jobs > 1:
        serial = invoke(workload, args.seed, wdir / "jobs1", inputs, jobs=1)
        serial_digests = output_digests(serial["out"]) if serial else {}
        gate |= mismatched_ops(reference, serial_digests, ops)
    attempted = failed = 0
    for _, rep in reps:
        attempted += workload.ops
        if rep is None:
            failed += workload.ops
            continue
        got = output_digests(rep["out"])
        bad = mismatched_ops(reference, got, ops) | (gate if rep is done[0] else set())
        failed += min(workload.ops, len(bad) + max(0, workload.ops - len(op_dirs(got))))

    # Every correct invocation writes the same files, so the first one's
    # final iterations give the work done by each.
    iterations = sum(int(read_rows(done[0]["out"] / op / "diversity.csv")[-1][0])
                     for op in ops)
    end_to_end = {
        "wall_s": (median_metric(untraced, "wall_s", scaled=True), "s"),
        "iter_per_s": (iterations / median_metric(untraced, "wall_s", scaled=True), "1/s"),
        "setup_s": (median_metric(untraced, "setup_s"), "s"),
        "peak_rss_mb": (median_metric(untraced, "peak_rss_mb"), "MB"),
    }
    raw = {"wall_s": median_metric(untraced, "wall_s")}
    raw["iter_per_s"] = iterations / raw["wall_s"]
    kernel = [r["kernel_s"] for r in untraced]
    print("env " + json.dumps(env))
    print(f"load average before {load_before[0]:.2f} {load_before[1]:.2f} "
          f"{load_before[2]:.2f}, after {load_after[0]:.2f} {load_after[1]:.2f} "
          f"{load_after[2]:.2f}; CPU busy before the run "
          + ("unknown" if busy_before is None else
             f"{busy_before:.0%}{' (machine busy)' if busy_before > BUSY_CPU_FRAC else ''}"))
    print(f"calibration kernel {statistics.median(kernel):.4g} s median "
          f"(min {min(kernel):.4g}, max {max(kernel):.4g}); reference "
          f"{calibrate.REFERENCE_S} s, so this machine ran at "
          f"{calibrate.REFERENCE_S / statistics.median(kernel):.3f} x reference speed")
    print(f"{workload.name} seed {args.seed}: {len(untraced)} untraced invocations, "
          f"{iterations} iterations each; wall_s and iter_per_s at reference speed, "
          f"as measured in brackets")
    for name, (value, unit) in end_to_end.items():
        measured = f" (measured {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<12} {value:12.6g} {unit:<4} median{measured}")
    print(f"  failed_frac  {failed / attempted:12.6g} ratio ({failed} of {attempted} "
          f"{workload.op}s)")

    if args.trace:
        tables = []
        for rep in traced_reps:
            table = tracer.layer_metrics(tracer.load_spans(rep["trace_dir"]), rep["pid"])
            table["cli.import_s"] = rep["import_s"]
            table["trace.wall_s"] = rep["wall_s"]
            tables.append(table)
        metrics = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
        # Both sides at reference speed, so machine drift cancels.
        metrics["trace.overhead_s"] = (median_metric(traced_reps, "wall_s", scaled=True)
                                       - end_to_end["wall_s"][0])
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        print(f"  per layer, median of {len(tables)} traced invocations:")
        for key in sorted(metrics):
            print(f"    {key:<40} {metrics[key]:14.6g} {units.get(key, '')}")
        print(f"  main-process self times sum to {metrics['trace.blocking_self_s']:.4g} s "
              f"against traced wall_s {metrics['trace.wall_s']:.4g} s; "
              f"tracing overhead {metrics['trace.overhead_s']:.4g} s")
        reported = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def per_layer_spec() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
