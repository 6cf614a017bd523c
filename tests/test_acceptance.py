"""Acceptance gate: one test per shipped-behavior criterion.

Criteria 1-3 are trend-level reproductions of the reference experiment at
desk scale (d = 50, 50 particles, t_max = 2000, 10 repetitions,
k in {2, 4, 10, 20, 49}); full-scale magnitudes are out of scope. The
remaining criteria pin exact values, conservation laws, oracle
equivalence, and determinism. Each test states its pinned tolerance
inline and prints one summary line with the measured values.
"""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracle import oracle_id
import swarmnet
from swarmnet import io
from swarmnet.benchmarks import FunctionId, ObjectiveSpec, make_objective
from swarmnet.experiment import (
    ExperimentConfig,
    TopologySpec,
    correlate,
    run_sweep,
    spearman,
)
from swarmnet.interaction import (
    area_under_destruction,
    build_network,
    destruction_curve,
    interaction_diversity,
)
from swarmnet.pso import InteractionLog, PsoParams, constriction_factor
from swarmnet.topology import TopologyKind

DESK_KS = (2, 4, 10, 20, 49)
DESK_TOPOLOGIES = (
    TopologySpec(TopologyKind.RING),
    TopologySpec(TopologyKind.VON_NEUMANN),
    TopologySpec(TopologyKind.K_REGULAR, 10),
    TopologySpec(TopologyKind.K_REGULAR, 20),
    TopologySpec(TopologyKind.GLOBAL),
)


def _desk_config(function_id):
    return ExperimentConfig(
        objective=ObjectiveSpec(function_id, dimension=50, group_size=50),
        topologies=DESK_TOPOLOGIES,
        params=PsoParams(swarm_size=50, t_max=2000),
        repetitions=10,
        windows=(10, 25, 50, 75, 100),
        id_sample_stride=25,
        base_seed=101,
    )


@pytest.fixture(scope="module")
def f2_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("f2_sweep")
    return (out, *run_sweep(_desk_config(FunctionId.F2), out))


@pytest.fixture(scope="module")
def f6_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("f6_sweep")
    return (out, *run_sweep(_desk_config(FunctionId.F6), out))


def _random_log(rng, n, total):
    draws = rng.integers(0, n - 1, size=(total, n))
    idx = np.arange(n)
    return InteractionLog(np.where(draws >= idx, draws + 1, draws))


def test_criterion_01_diversity_decreases_with_connectivity(f2_sweep):
    _, _, summaries = f2_sweep
    mean_ids = [row.mean_id for row in summaries]
    assert all(a > b for a, b in zip(mean_ids, mean_ids[1:])), (
        f"mean ID not strictly decreasing over k={DESK_KS}: {mean_ids}"
    )
    rho = spearman(DESK_KS, mean_ids)
    assert rho <= -0.9, f"spearman(k, mean ID) = {rho} exceeds -0.9"
    print(
        f"criterion 01 PASS: mean ID {['%.4f' % v for v in mean_ids]} "
        f"strictly decreasing over k={DESK_KS}, spearman rho={rho:.4f} <= -0.9"
    )


def test_criterion_02_global_network_shatters_faster(f2_sweep):
    out, records, _ = f2_sweep

    def mean_area(kind):
        areas = []
        for r in records:
            if r.topology_kind is kind:
                log = io.read_interaction_log(out / r.cell_dir / "log.csv")
                t_eval = min(1000, len(log))
                t_w = min(100, t_eval)
                net = build_network(log, t_eval, t_w)
                areas.append(area_under_destruction(destruction_curve(net)))
        assert len(areas) == 10
        return float(np.mean(areas))

    area_global = mean_area(TopologyKind.GLOBAL)
    area_ring = mean_area(TopologyKind.RING)
    assert area_global > area_ring, (
        f"expected faster shattering on global: "
        f"A(global)={area_global}, A(ring)={area_ring}"
    )
    print(
        f"criterion 02 PASS: destruction area at t=1000, t_w=100: "
        f"global {area_global:.2f} > ring {area_ring:.2f}"
    )


def test_criterion_03_diversity_improvement_negatively_correlated(f6_sweep):
    _, _, summaries = f6_sweep
    mean_ids = [row.mean_id for row in summaries]
    mean_fds = [row.mean_fdelta for row in summaries]
    r = correlate(mean_ids, mean_fds)
    assert r is not None
    assert r < 0.0, (
        f"expected negative correlation between mean ID and mean "
        f"improvement, got r={r} (ids={mean_ids}, fds={mean_fds})"
    )
    print(
        f"criterion 03 PASS: pearson r(mean ID, mean improvement) = "
        f"{r:.4f} < 0 across k={DESK_KS}"
    )


def test_criterion_04_constriction_factor_value():
    ours = constriction_factor(2.05, 2.05)
    with mpmath.workdps(50):
        phi = mpmath.mpf("2.05") + mpmath.mpf("2.05")
        reference = 2 / abs(2 - phi - mpmath.sqrt(phi * phi - 4 * phi))
        error = abs(mpmath.mpf(ours) - reference)
    assert error <= 1e-4, f"chi={ours!r} deviates {error} from high-precision value"
    assert ours == pytest.approx(0.72984, abs=1e-4)
    print(
        f"criterion 04 PASS: chi(2.05, 2.05) = {ours!r}, "
        f"|error| = {float(error):.2e} <= 1e-4"
    )


def test_criterion_05_weight_conservation():
    rng = np.random.default_rng(20260814)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 21))
        total = int(rng.integers(1, 51))
        log = _random_log(rng, n, total)
        t = int(rng.integers(1, total + 1))
        t_w = min(int(rng.integers(1, 61)), t)
        net = build_network(log, t, t_w)
        assert int(net.weights.sum()) // 2 == n * t_w
        checked += 1
    print(
        f"criterion 05 PASS: total weight == swarm_size * min(t_w, t) "
        f"exactly on {checked} randomized logs"
    )


def test_criterion_06_pipeline_matches_bruteforce_oracle():
    rng = np.random.default_rng(424242)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        total = int(rng.integers(1, 21))
        log = _random_log(rng, n, total)
        t = int(rng.integers(1, total + 1))
        count = int(rng.integers(1, 4))
        windows = tuple(int(v) for v in rng.integers(1, t + 1, size=count))
        ours = interaction_diversity(log, t, windows).id_value
        reference = oracle_id(log.choices.tolist(), t, windows)
        assert ours == reference, (
            f"pipeline {ours!r} != oracle {reference!r} "
            f"(n={n}, t={t}, windows={windows})"
        )
        checked += 1
    print(
        f"criterion 06 PASS: diversity pipeline equals brute-force "
        f"recomputation exactly on {checked} random instances"
    )


def test_criterion_07_destruction_monotone_and_id_bounded():
    rng = np.random.default_rng(777)
    curves = 0
    for _ in range(300):
        n = int(rng.integers(3, 16))
        total = int(rng.integers(1, 41))
        log = _random_log(rng, n, total)
        t = int(rng.integers(1, total + 1))
        t_w = int(rng.integers(1, t + 1))
        curve = destruction_curve(build_network(log, t, t_w))
        assert np.all(np.diff(curve.components) >= 0)
        assert 1 <= curve.components[0] and curve.components[-1] <= n
        value = interaction_diversity(log, t, (t_w,)).id_value
        assert 0.0 <= value <= 1.0 - 1.0 / n
        curves += 1
    print(
        f"criterion 07 PASS: component counts non-decreasing and "
        f"0 <= ID <= 1 - 1/n on {curves} property instances"
    )


def test_criterion_08_benchmark_optima_and_rotations():
    worst = 0.0
    for fid in (FunctionId.F2, FunctionId.F6, FunctionId.F14, FunctionId.F19):
        obj = make_objective(ObjectiveSpec(fid, dimension=50, group_size=50))
        value = abs(obj.evaluate_many(obj.shift[None])[0])
        worst = max(worst, value)
        assert value <= 1e-9, f"{fid.value} at its shift gives {value}"
    worst_ortho = 0.0
    for spec in (
        ObjectiveSpec(FunctionId.F6, dimension=50, group_size=50),
        ObjectiveSpec(FunctionId.F14, dimension=50, group_size=10),
    ):
        obj = make_objective(spec)
        assert obj.rotations
        for rot in obj.rotations:
            residual = float(np.max(np.abs(rot @ rot.T - np.eye(len(rot)))))
            worst_ortho = max(worst_ortho, residual)
            assert residual <= 1e-10
    print(
        f"criterion 08 PASS: |f(shift)| <= 1e-9 (worst {worst:.2e}) and "
        f"rotations orthogonal within 1e-10 (worst {worst_ortho:.2e})"
    )


def test_criterion_09_sweep_determinism(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "function = sphere\n"
        "dimension = 3\n"
        "swarm_size = 8\n"
        "t_max = 25\n"
        "delta_window = 10\n"
        "topologies = ring,global\n"
        "windows = 4,8\n"
        "repetitions = 2\n"
        "id_sample_stride = 5\n"
        "base_seed = 11\n"
    )
    # The child process runs the same swarmnet package this test imported,
    # whether it comes from an install or from the checkout's src/.
    package_root = str(Path(swarmnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "swarmnet.cli", "sweep",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "summary.csv").read_bytes())
    assert outputs[0] == outputs[1], "summary files differ between executions"
    print(
        f"criterion 09 PASS: two sweep executions produced byte-identical "
        f"summaries ({len(outputs[0])} bytes)"
    )


def test_criterion_10_worked_micro_examples():
    star = InteractionLog(np.array([[1, 0, 0, 0]]))
    star_id = interaction_diversity(star, 1, (1,)).id_value
    assert star_id == pytest.approx(0.5833, abs=1e-4)

    triple = build_network(InteractionLog(np.array([[1, 0, 0]])), 1, 1)
    assert triple.weights[0, 1] == 2
    assert triple.weights[0, 2] == 1
    assert triple.weights[1, 2] == 0
    print(
        f"criterion 10 PASS: star-log ID = {star_id!r} (0.5833 +- 1e-4); "
        f"single-iteration weights (2, 1, 0) as derived by hand"
    )
