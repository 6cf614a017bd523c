"""Interaction-network construction, destruction, and diversity checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_components, oracle_curve, oracle_id, oracle_weights
from swarmnet.errors import InputError
from swarmnet.interaction import (
    WeightedNetwork,
    area_under_destruction,
    build_network,
    clip_windows,
    destruction_curve,
    diversity_series,
    interaction_diversity,
)
from swarmnet.pso import InteractionLog


def _log(rows):
    return InteractionLog(np.array(rows, dtype=np.int64))

STAR = _log([[1, 0, 0, 0]])
PAIR = _log([[1, 0]])


def _random_log(rng, n=None, total=None):
    n = n or int(rng.integers(3, 21))
    total = total or int(rng.integers(1, 51))
    draws = rng.integers(0, n - 1, size=(total, n))
    idx = np.arange(n)
    # avoid self-selection by skipping over the own index
    return InteractionLog(np.where(draws >= idx, draws + 1, draws))


def _oracle_components_at(log, t, t_w, tau):
    """BFS component count over the oracle edges kept at threshold tau."""
    weights = oracle_weights(log.choices.tolist(), t, t_w)
    kept = [pair for pair, w in weights.items() if w / (2 * t_w) >= tau]
    return oracle_components(log.n, kept)


class TestBuildNetwork:
    def test_mutual_and_single_selection(self):
        net = build_network(_log([[1, 0, 0]]), 1, 1)
        assert net.weights[0, 1] == 2
        assert net.weights[0, 2] == 1
        assert net.weights[1, 2] == 0

    def test_star_example(self):
        net = build_network(STAR, 1, 1)
        assert net.weights[0, 1] == 2
        assert net.weights[0, 2] == 1
        assert net.weights[0, 3] == 1
        assert int(net.weights.sum()) // 2 == 4

    def test_full_window_sums_all_iterations(self):
        rng = np.random.default_rng(42)
        log = _random_log(rng, n=6, total=10)
        full = build_network(log, 10, 10)
        manual = sum(
            build_network(log, t, 1).weights for t in range(1, 11)
        )
        assert np.array_equal(full.weights, manual)

    def test_window_slides(self):
        log = _log([[1, 0, 0], [2, 2, 1], [1, 0, 0]])
        net = build_network(log, 2, 1)
        assert net.weights[0, 1] == 0
        assert net.weights[1, 2] == 2

    def test_rejects_bad_window(self):
        with pytest.raises(InputError):
            build_network(STAR, 1, 2)
        with pytest.raises(InputError):
            build_network(STAR, 1, 0)
        with pytest.raises(InputError):
            build_network(STAR, 2, 1)

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            log = _random_log(rng)
            total = len(log)
            t_w = int(rng.integers(1, total + 1))
            net = build_network(log, total, t_w)
            assert np.array_equal(net.weights, net.weights.T)
            assert np.all(np.diag(net.weights) == 0)
            assert net.weights.max() <= 2 * t_w

    def test_weight_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            log = _random_log(rng)
            total = len(log)
            t = int(rng.integers(1, total + 1))
            t_w = int(rng.integers(1, t + 1))
            net = build_network(log, t, t_w)
            assert int(net.weights.sum()) // 2 == log.n * min(t_w, t)

    def test_matches_oracle_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            log = _random_log(rng, n=7, total=12)
            t = int(rng.integers(1, 13))
            t_w = int(rng.integers(1, t + 1))
            net = build_network(log, t, t_w)
            expected = oracle_weights(log.choices.tolist(), t, t_w)
            for i in range(7):
                for j in range(i + 1, 7):
                    assert net.weights[i, j] == expected.get((i, j), 0)


class TestComponents:
    """Single points of the destruction curve against the BFS oracle."""

    def test_zero_threshold_is_unfiltered(self):
        curve = destruction_curve(build_network(STAR, 1, 1))
        assert curve.thresholds[0] == 0.0
        assert curve.components[0] == _oracle_components_at(STAR, 1, 1, 0.0) == 1

    def test_star_at_full_threshold(self):
        curve = destruction_curve(build_network(STAR, 1, 1))
        assert curve.thresholds[-1] == 1.0
        assert curve.components[-1] == _oracle_components_at(STAR, 1, 1, 1.0) == 3

    def test_empty_network_all_singletons(self):
        empty = WeightedNetwork(5, 1, np.zeros((5, 5), dtype=np.int64))
        curve = destruction_curve(empty)
        assert np.array_equal(curve.thresholds, [0.0, 0.5, 1.0])
        assert list(curve.components) == oracle_curve(5, {}, 1) == [5, 5, 5]


class TestDestructionCurve:
    def test_star_curve(self):
        curve = destruction_curve(build_network(STAR, 1, 1))
        assert np.array_equal(curve.thresholds, [0.0, 0.5, 1.0])
        assert np.array_equal(curve.components, [1, 1, 3])

    def test_mutual_pair_never_shatters(self):
        curve = destruction_curve(build_network(PAIR, 1, 1))
        assert np.all(curve.components == 1)

    def test_matches_pointwise_counting(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            log = _random_log(rng, n=8)
            total = len(log)
            t_w = int(rng.integers(1, total + 1))
            curve = destruction_curve(build_network(log, total, t_w))
            assert len(curve.components) == 2 * t_w + 1
            for tau, count in zip(curve.thresholds, curve.components):
                assert count == _oracle_components_at(log, total, t_w, float(tau))

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            log = _random_log(rng)
            total = len(log)
            t_w = int(rng.integers(1, total + 1))
            curve = destruction_curve(build_network(log, total, t_w))
            assert np.all(np.diff(curve.components) >= 0)
            assert curve.components.min() >= 1
            assert curve.components.max() <= log.n


class TestArea:
    def test_star_area(self):
        curve = destruction_curve(build_network(STAR, 1, 1))
        assert area_under_destruction(curve) == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            log = _random_log(rng)
            total = len(log)
            t_w = int(rng.integers(1, total + 1))
            area = area_under_destruction(
                destruction_curve(build_network(log, total, t_w))
            )
            assert 1.0 <= area <= log.n

    def test_all_ones_curve_is_one(self):
        curve = destruction_curve(build_network(PAIR, 1, 1))
        assert area_under_destruction(curve) == 1.0


class TestDiversity:
    def test_star_value(self):
        report = interaction_diversity(STAR, 1, (1,))
        assert report.areas == (5.0 / 3.0,)
        assert report.id_value == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_mutual_pair_value(self):
        assert interaction_diversity(PAIR, 1, (1,)).id_value == 0.5

    def test_window_must_fit(self):
        with pytest.raises(InputError):
            interaction_diversity(STAR, 1, (2,))
        with pytest.raises(InputError):
            interaction_diversity(STAR, 1, ())

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            log = _random_log(rng)
            total = len(log)
            windows = tuple(
                int(v) for v in rng.integers(1, total + 1, size=3)
            )
            value = interaction_diversity(log, total, windows).id_value
            assert 0.0 <= value <= 1.0 - 1.0 / log.n

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            log = _random_log(rng, n=int(rng.integers(3, 11)),
                              total=int(rng.integers(1, 21)))
            total = len(log)
            t = int(rng.integers(1, total + 1))
            windows = tuple(
                sorted(int(v) for v in rng.integers(1, t + 1, size=2))
            )
            ours = interaction_diversity(log, t, windows).id_value
            assert ours == oracle_id(log.choices.tolist(), t, windows)

    def test_curve_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            log = _random_log(rng, n=6, total=8)
            t_w = int(rng.integers(1, 9))
            net = build_network(log, 8, t_w)
            curve = destruction_curve(net)
            expected = oracle_curve(
                6, oracle_weights(log.choices.tolist(), 8, t_w), t_w
            )
            assert list(curve.components) == expected


class TestSeries:
    def test_clip_windows(self):
        assert clip_windows((10, 25, 50), 30) == (10, 25, 30)
        assert clip_windows((10, 25), 5) == (5, 5)

    def test_stride_sampling(self):
        rng = np.random.default_rng(12)
        log = _random_log(rng, n=5, total=20)
        iters, values = diversity_series(log, (3, 7), stride=6)
        assert list(iters) == [6, 12, 18, 20]
        assert len(values) == 4

    def test_degenerate_stride_single_sample(self):
        rng = np.random.default_rng(13)
        log = _random_log(rng, n=5, total=20)
        iters, values = diversity_series(log, (3,), stride=20)
        assert list(iters) == [20]
        report = interaction_diversity(log, 20, (3,))
        assert values[0] == report.id_value

    def test_stride_one_covers_every_iteration(self):
        rng = np.random.default_rng(14)
        log = _random_log(rng, n=4, total=9)
        iters, values = diversity_series(log, (2, 4), stride=1)
        assert list(iters) == list(range(1, 10))
        for t, value in zip(iters, values):
            clipped = clip_windows((2, 4), int(t))
            assert value == interaction_diversity(log, int(t), clipped).id_value

    def test_early_iterations_use_clipped_windows(self):
        rng = np.random.default_rng(15)
        log = _random_log(rng, n=5, total=4)
        iters, values = diversity_series(log, (10, 20), stride=1)
        assert list(iters) == [1, 2, 3, 4]
        assert values[0] == interaction_diversity(log, 1, (1, 1)).id_value

    def test_bad_stride(self):
        with pytest.raises(InputError):
            diversity_series(STAR, (1,), stride=0)

    def test_bad_window_set(self):
        with pytest.raises(InputError, match="non-empty"):
            diversity_series(STAR, (), 1)
        with pytest.raises(InputError, match="window 0"):
            diversity_series(STAR, (0,), 1)


@st.composite
def _logs(draw):
    """Self-free logs: n in 3..12 particles over 1..40 iterations."""
    n = draw(st.integers(3, 12))
    total = draw(st.integers(1, 40))
    row = st.lists(st.integers(0, n - 2), min_size=n, max_size=n)
    draws = np.array(draw(st.lists(row, min_size=total, max_size=total)),
                     dtype=np.int64)
    idx = np.arange(n)
    return InteractionLog(np.where(draws >= idx, draws + 1, draws))


@st.composite
def _series_cases(draw):
    """A log, a window tuple reaching past T with a repeat, and a stride."""
    log = draw(_logs())
    total = len(log)
    windows = draw(st.lists(st.integers(1, total + 5), min_size=1, max_size=4))
    windows.append(draw(st.sampled_from(windows)))
    stride = draw(st.integers(1, total + 1))
    return log, tuple(windows), stride


@st.composite
def _network_cases(draw):
    log = draw(_logs())
    t = draw(st.integers(1, len(log)))
    return log, t, draw(st.integers(1, t))


class TestProperties:
    @settings(derandomize=True, deadline=None)
    @given(_series_cases())
    def test_series_matches_oracle_bitwise(self, case):
        log, windows, stride = case
        iters, values = diversity_series(log, windows, stride)
        choices = log.choices.tolist()
        for t, value in zip(iters.tolist(), values.tolist()):
            assert value == oracle_id(choices, t, clip_windows(windows, t))
            assert 0.0 <= value <= 1.0 - 1.0 / log.n

    @settings(derandomize=True, deadline=None)
    @given(_network_cases())
    def test_network_and_curve_match_oracle(self, case):
        log, t, t_w = case
        net = build_network(log, t, t_w)
        assert int(net.weights.sum()) // 2 == log.n * t_w
        curve = destruction_curve(net)
        expected = oracle_curve(
            log.n, oracle_weights(log.choices.tolist(), t, t_w), t_w
        )
        assert list(curve.components) == expected
        assert np.all(np.diff(curve.components) >= 0)
