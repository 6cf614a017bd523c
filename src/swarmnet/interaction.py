"""Time-windowed interaction networks and the diversity metric built on them.

From a best-neighbor log the weighted network at iteration t with window
t_w counts, for every unordered pair {i, j}, how many of the last t_w
iterations had i select j plus how many had j select i:

    I_ij(t) = sum over t' in (t - t_w, t] of [i == n_j(t')] + [j == n_i(t')]

so the maximum weight is 2*t_w (mutual selection throughout the window)
and the total weight is always |S| * t_w (one selection event per particle
per windowed iteration).

Destruction analysis removes edges whose normalized weight I_ij/(2*t_w)
falls strictly below a rising threshold and tracks the component count.
The area A_tw is the mean component count over the 2*t_w + 1 threshold
quanta; interaction diversity aggregates areas over a window set T:

    ID(t) = 1 - (1 / (|S| * |T|)) * sum over t_w in T of A_tw(t)

High ID means many coexisting information flows (slow shattering); low ID
means the swarm funnels through few flows (fast shattering).

Every curve and area comes from the network's maximum spanning forest
(Kruskal 1956). At threshold quantum k the kept edges are those of weight
at least max(k, 1), and the forest edges among them span exactly the same
components, so each forest edge of weight w merges two components at
k = 0..w:

    comps(k) = n - #{forest edges with w_e >= max(k, 1)}
    sum over k of comps(k) = (2*t_w + 1) * n - sum over forest of (w_e + 1)

That integer sum is exact in float64, so the closed-form area equals the
mean of the integer curve bit for bit.

diversity_series does not rebuild each network: per distinct window length
it keeps one flat vector of directed counts (a selected b) and moves it
from one sample point to the next by adding the counts of the rows that
entered the window and subtracting those of the rows that left. A gap of a
whole window or more rebuilds the vector from the window's rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .pso import InteractionLog


@dataclass(frozen=True)
class WeightedNetwork:
    """Symmetric integer-weight graph over the swarm for one (t, t_w)."""

    n: int
    t_w: int
    weights: np.ndarray  # (n, n) symmetric, zero diagonal

    def __post_init__(self):
        self.weights.setflags(write=False)

    @property
    def max_weight(self) -> int:
        """Largest representable weight: mutual selection all window long."""
        return 2 * self.t_w

    def total_weight(self) -> int:
        return int(self.weights.sum()) // 2


@dataclass(frozen=True)
class DestructionCurve:
    """Component counts as edges below each normalized threshold drop out."""

    thresholds: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        self.thresholds.setflags(write=False)
        self.components.setflags(write=False)


@dataclass(frozen=True)
class DiversityReport:
    """Per-window destruction areas and the diversity value they yield."""

    window_set: tuple[int, ...]
    areas: tuple[float, ...]
    id_value: float


def _directed_counts(rows: np.ndarray, n: int) -> np.ndarray:
    """Flat counts c[a*n + b] of the events in rows where a selected b."""
    return np.bincount((rows + np.arange(0, n * n, n)).ravel(), minlength=n * n)


@functools.lru_cache(maxsize=4)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and flat indices of the pairs i < j, read-only."""
    i, j = np.triu_indices(n, k=1)
    pairs = (i, j, i * n + j)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _forest_weights(weights: np.ndarray) -> list[int]:
    """Edge weights of a maximum spanning forest of a symmetric weight matrix.

    Kruskal's algorithm over the positive edges i < j in descending weight,
    with path halving; it stops once n - 1 edges span every node. Every
    maximum spanning forest has the same weights, so ties may break either way.
    """
    n = len(weights)
    iu, ju, flat = _upper_pairs(n)
    w = weights.ravel()[flat]
    positive = np.flatnonzero(w)
    order = positive[np.argsort(-w[positive])]
    parent = list(range(n))
    forest = []
    for a, b, weight in zip(iu[order].tolist(), ju[order].tolist(),
                            w[order].tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[b] = a
            forest.append(weight)
            if len(forest) == n - 1:
                break
    return forest


def _area(forest: list[int], n: int, t_w: int) -> float:
    """Mean component count over the 2*t_w + 1 thresholds, from the forest."""
    m = 2 * t_w + 1
    return (m * n - sum(forest) - len(forest)) / m


def build_network(log: InteractionLog, t: int, t_w: int) -> WeightedNetwork:
    """Interaction network at iteration t over the last t_w iterations."""
    if not 1 <= t_w <= t:
        raise InputError(f"window t_w={t_w} must satisfy 1 <= t_w <= t={t}")
    if t > len(log):
        raise InputError(f"iteration t={t} exceeds log length {len(log)}")
    n = log.n
    directed = _directed_counts(log.choices[t - t_w:t], n).reshape(n, n)
    return WeightedNetwork(n, t_w, directed + directed.T)


def destruction_curve(net: WeightedNetwork) -> DestructionCurve:
    """Component counts over the full threshold grid k/(2*t_w), k = 0..2*t_w.

    Every distinct subgraph appears on this grid because weights are
    integers in [0, 2*t_w]. Threshold 0 keeps the same edges as k = 1.
    """
    w_max = net.max_weight
    forest = np.asarray(_forest_weights(net.weights), dtype=np.int64)
    # at_least[k] = number of forest edges with weight >= k
    at_least = np.bincount(forest, minlength=w_max + 1)[::-1].cumsum()[::-1]
    thresholds = np.arange(w_max + 1) / w_max
    return DestructionCurve(thresholds, net.n - at_least)


def area_under_destruction(curve: DestructionCurve) -> float:
    """Mean component count over the threshold grid; lies in [1, n]."""
    if len(curve.components) == 0:
        raise InputError("destruction curve is empty")
    return float(np.mean(curve.components))


def clip_windows(windows: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Clip each window to the available history, keeping list length."""
    return tuple(min(w, t) for w in windows)


def interaction_diversity(log: InteractionLog, t: int,
                          windows: tuple[int, ...]) -> DiversityReport:
    """ID(t) over the window set: one minus the normalized mean area."""
    if not windows:
        raise InputError("window set must be non-empty")
    for w in windows:
        if not 1 <= w <= t:
            raise InputError(f"window {w} must satisfy 1 <= t_w <= t={t}")
    areas = tuple(
        _area(_forest_weights(build_network(log, t, w).weights), log.n, w)
        for w in windows
    )
    id_value = 1.0 - sum(areas) / (log.n * len(windows))
    return DiversityReport(tuple(windows), areas, id_value)


def diversity_series(log: InteractionLog, windows: tuple[int, ...],
                     stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sample ID at every stride-th iteration, always including the last.

    Windows are clipped to the history available at each sample point, so
    the series is defined from the first iteration onward. Each value equals
    ``interaction_diversity(log, t, clip_windows(windows, t)).id_value``.
    """
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")
    if not windows:
        raise InputError("window set must be non-empty")
    for w in windows:
        if w < 1:
            raise InputError(f"window {w} must satisfy t_w >= 1")
    total = len(log)
    if total < 1:
        raise InputError("log holds no iterations")
    points = list(range(stride, total + 1, stride))
    if not points or points[-1] != total:
        points.append(total)
    n = log.n
    choices = log.choices
    # counts[w] covers rows max(t - w, 0)..t-1, the window clipped at t
    counts = {w: np.zeros(n * n, dtype=np.int64) for w in set(windows)}
    values = np.empty(len(points))
    prev = 0
    for k, t in enumerate(points):
        for w, flat in counts.items():
            if t - prev >= w:
                flat[:] = _directed_counts(choices[t - w:t], n)
            else:
                flat += _directed_counts(choices[prev:t], n)
                flat -= _directed_counts(choices[max(prev - w, 0):max(t - w, 0)], n)
        areas = {}
        for w in windows:
            t_w = min(w, t)
            if t_w not in areas:
                directed = counts[w].reshape(n, n)
                areas[t_w] = _area(_forest_weights(directed + directed.T), n, t_w)
        values[k] = 1.0 - sum(areas[min(w, t)] for w in windows) / (n * len(windows))
        prev = t
    return np.array(points, dtype=np.int64), values
