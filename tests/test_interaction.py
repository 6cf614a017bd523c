"""Interaction-network construction, destruction, and diversity checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_area, oracle_components, oracle_curve, oracle_id, oracle_weights
from swarmnet import interaction
from swarmnet.errors import InputError
from swarmnet.interaction import (
    WeightedNetwork,
    _areas,
    _forest_weights,
    area_under_destruction,
    build_network,
    clip_windows,
    destruction_curve,
    destruction_curves,
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


def _tree_curve(tree, n, t_w):
    """Component counts at k = 0..2*t_w from one network's tree weights."""
    return [n - sum(1 for w in tree if w >= max(k, 1)) for k in range(2 * t_w + 1)]


class TestForestWeights:
    """The batched Prim pass against the BFS oracle, network by network."""

    @pytest.mark.parametrize("graphs", [1, 2, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_batch_matches_oracle_curve(self, n, graphs):
        self._check_against_oracle(n, graphs, np.int64)

    @pytest.mark.parametrize("graphs", [1, 2, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_int32_batch_matches_oracle_curve(self, n, graphs):
        self._check_against_oracle(n, graphs, np.int32)

    @staticmethod
    def _check_against_oracle(n, graphs, dtype):
        rng = np.random.default_rng(10 * n + graphs)
        t_w = 2
        for trial in range(25):
            # weights 0..4 tie often; sparse draws leave graphs disconnected
            upper = np.triu(rng.integers(1, 2 * t_w + 1, size=(graphs, n, n))
                            * (rng.random((graphs, n, n)) < 0.35), 1)
            batch = (upper + upper.transpose(0, 2, 1)).astype(dtype)
            if trial % 3 == 0:
                batch[-1] = 0
            tree = _forest_weights(batch)
            assert tree.shape == (graphs, max(n - 1, 0))
            assert tree.dtype == dtype
            areas = _areas(batch, [t_w] * graphs)
            for b, weights in enumerate(batch):
                edges = {(i, j): int(weights[i, j])
                         for i in range(n) for j in range(i + 1, n) if weights[i, j]}
                expected = oracle_curve(n, edges, t_w)
                assert _tree_curve(tree[b].tolist(), n, t_w) == expected
                assert areas[b] == oracle_area(expected)
                assert np.array_equal(tree[b], _forest_weights(batch[b:b + 1])[0])


class TestIndexDtype:
    """The rule that picks the dtype of the series' event table and batch."""

    @pytest.mark.parametrize("n, t_w, dtype", [
        (1, 1, np.int32),
        (100, 10_000, np.int32),
        (46_340, 1, np.int32),  # 46340**2 is below 2**31 - 1
        (46_341, 1, np.int64),  # 46341**2 is above it
        (3, 2**30 - 1, np.int32),  # heaviest weight 2**31 - 2
        (3, 2**30, np.int64),  # heaviest weight 2**31
    ])
    def test_int32_only_where_indices_and_weights_fit(self, n, t_w, dtype):
        assert interaction._index_dtype(n, t_w) == dtype


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


# tracemalloc peak, in bytes, of diversity_series over the n=100, T=2000
# log of test_memory_stays_within_table_and_batch, per stride (numpy 2.4.6,
# Python 3.11): the 1.6 MB int32 event table, five 80 kB count vectors and
# the batch, which holds the series' 100 networks (4 MB) at stride 100 and
# its 8 MiB cap (209 networks) at stride 1. The margin, 0.3 MB, is below
# what an int64 table (+1.6 MB) or a larger batch would add.
SERIES_PEAK = {100: 6_245_296, 1: 11_022_592}
SERIES_PEAK_MARGIN = 300_000
WINDOWS = (10, 25, 50, 75, 100)


def _series_peak(log, stride):
    tracemalloc.start()
    try:
        diversity_series(log, WINDOWS, stride)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_every_stride(windows, total, n=12):
    """Check diversity_series at every stride from 1 to T + 1.

    The strides fall on both sides of each window and of each gap from
    which a point rebuilds the totals rather than advancing the live ones
    (those lagged by less than t), which reads more rows. Returns the paths
    taken and each (regular gap, shorter last gap) pair of paths that differ.
    """
    log = _random_log(np.random.default_rng(18), n=n, total=total)
    ws = sorted({min(w, total) for w in windows})
    paths, turns = set(), set()
    for stride in range(1, total + 2):
        iters, values = diversity_series(log, windows, stride)
        for t, value in zip(iters.tolist(), values.tolist()):
            expected = interaction_diversity(log, t, clip_windows(windows, t)).id_value
            assert value == expected, (stride, t)
        live = 1 + np.searchsorted(ws, iters)
        cheap = live * np.diff(iters, prepend=0) <= ws[-1] + len(ws) * n / 8
        path = ["advance" if c else "rebuild" for c in cheap.tolist()]
        paths.update(path)
        if len(iters) > 1 and iters[-1] - iters[-2] < stride and path[-2] != path[-1]:
            turns.add((path[-2], path[-1]))
    return paths, turns


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

    def test_series_spans_several_batches(self):
        rng = np.random.default_rng(16)
        n, total, windows = 100, 80, (10, 25)
        log = _random_log(rng, n=n, total=total)
        networks = sum(len(set(clip_windows(windows, t))) for t in range(1, total + 1))
        itemsize = interaction._index_dtype(n, max(windows)).itemsize
        with pytest.MonkeyPatch.context() as patch:
            # 40 networks a batch: three full batches and a partial one
            patch.setattr(interaction, "_BATCH_BYTES", 40 * itemsize * n ** 2)
            assert networks > 2 * (interaction._BATCH_BYTES // (itemsize * n ** 2))
            iters, values = diversity_series(log, windows, stride=1)
        assert list(iters) == list(range(1, total + 1))
        for t, value in zip(iters.tolist(), values.tolist()):
            assert value == interaction_diversity(log, t, clip_windows(windows, t)).id_value

    def test_int64_batch_gives_the_same_bits(self):
        rng = np.random.default_rng(17)
        log = _random_log(rng, n=30, total=120)
        windows = (10, 25, 50, 25)
        iters, values = diversity_series(log, windows, stride=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interaction, "_index_dtype", lambda n, t_w: np.dtype(np.int64))
            wide_iters, wide_values = diversity_series(log, windows, stride=1)
        assert np.array_equal(wide_iters, iters)
        assert wide_values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("stride", [100, 1])
    def test_memory_stays_within_table_and_batch(self, stride):
        # analyze's shape: 100 particles, 2000 iterations, windows 10-100
        log = _random_log(np.random.default_rng(5), n=100, total=2000)
        assert _series_peak(log, stride) <= SERIES_PEAK[stride] + SERIES_PEAK_MARGIN

    def test_memory_just_below_the_largest_window(self):
        # Stride 99, just below the largest window, keeps nearly the
        # stride-100 batch. On top of it the bound allows 4 * 99 * 2n
        # int64 values (0.63 MB) for the indices of an advance. Here only
        # the last, 20-row gap advances, all six totals at once: 6 * 20 * 2n
        # indices, gathered in int32 and offset in int64 (0.29 MB).
        log = _random_log(np.random.default_rng(5), n=100, total=2000)
        updates = 4 * 99 * 2 * 100 * 8
        assert _series_peak(log, 99) <= SERIES_PEAK[100] + updates + SERIES_PEAK_MARGIN

    @pytest.mark.parametrize("windows, total", [((25, 1, 10, 25, 70), 60),
                                                 ((3, 40, 3, 7, 100, 2), 60),
                                                 ((12, 2, 10), 11)])
    def test_every_update_path_matches_interaction_diversity(self, windows, total):
        # The windows are unsorted, repeat, hold a window of 1 and reach
        # past the log.
        paths, turns = _check_every_stride(windows, total)
        assert paths == {"advance", "rebuild"}
        assert ("rebuild", "advance") in turns

    def test_shorter_last_gap_can_rebuild_after_an_advance(self):
        # At stride 6, t = 6 advances the totals at lags 0 and 2 by 6 rows
        # each. By t = 11 the totals at lags 7 and 10 are live too, so its
        # 5-row gap would advance four totals, 20 rows, more than the
        # 11 + 4 * 12 / 8 = 17 a rebuild reads: it rebuilds.
        _, turns = _check_every_stride((12, 2, 7, 10), 11)
        assert turns == {("advance", "rebuild"), ("rebuild", "advance")}

    def test_batch_does_not_grow_with_log_length(self):
        # Both series fill more than one capped batch. Doubling the log
        # adds its int32 event table rows (n * 2 * 4 bytes an iteration)
        # and about 170 bytes per sample point of per-point arrays (0.33 MB
        # here); a batch that grew with the series would add 8 MiB or more.
        rng = np.random.default_rng(5)
        short, long = (_random_log(rng, n=100, total=total) for total in (2000, 4000))
        table = (len(long) - len(short)) * 100 * 2 * 4
        growth = _series_peak(long, 1) - _series_peak(short, 1)
        assert growth <= table + (1 << 20)

    def test_short_series_allocates_no_more_batch_than_2_mb(self):
        # 10 sample points of 5 distinct windows: a batch of 50 networks
        # (2 MB) next to the 0.8 MB event table and five 80 kB count
        # vectors, not a batch at the 8 MiB cap
        log = _random_log(np.random.default_rng(5), n=100, total=1000)
        table, counts = len(log) * 100 * 2 * 4, len(WINDOWS) * 100 ** 2 * 8
        peak = _series_peak(log, 100)
        assert peak <= table + counts + (2 << 20) + SERIES_PEAK_MARGIN

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


def _check_series_against_oracle(log, windows, stride):
    iters, values = diversity_series(log, windows, stride)
    choices = log.choices.tolist()
    for t, value in zip(iters.tolist(), values.tolist()):
        assert value == oracle_id(choices, t, clip_windows(windows, t))
        assert 0.0 <= value <= 1.0 - 1.0 / log.n


class TestProperties:
    @settings(derandomize=True, deadline=None)
    @given(_series_cases())
    def test_series_matches_oracle_bitwise(self, case):
        _check_series_against_oracle(*case)

    @pytest.mark.parametrize("points_per_batch", [1, 2, 3])
    @settings(derandomize=True, deadline=None)
    @given(_series_cases())
    def test_series_matches_oracle_across_small_batches(self, points_per_batch, case):
        # These logs never fill a 2 MB batch; shrink it so they cross batch
        # boundaries every 1-3 sample points.
        log, windows, _ = case
        itemsize = interaction._index_dtype(log.n, min(max(windows), len(log))).itemsize
        batch_bytes = points_per_batch * len(set(windows)) * log.n ** 2 * itemsize
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interaction, "_BATCH_BYTES", batch_bytes)
            _check_series_against_oracle(*case)

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

    @settings(derandomize=True, deadline=None)
    @given(_series_cases())
    def test_batched_curves_match_oracle(self, case):
        # Every clipped window of the last iteration in one forest pass, as
        # the analyze and destruction commands take them.
        log, windows, _ = case
        t = len(log)
        clipped = sorted(set(clip_windows(windows, t)))
        curves = destruction_curves([build_network(log, t, w) for w in clipped])
        for t_w, curve in zip(clipped, curves, strict=True):
            expected = oracle_curve(log.n, oracle_weights(log.choices.tolist(), t, t_w), t_w)
            assert list(curve.components) == expected
            assert curve.thresholds.tolist() == [k / (2 * t_w) for k in range(2 * t_w + 1)]
