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

Every curve and area comes from the network's maximum spanning forest.
At threshold quantum k the kept edges are those of weight at least
max(k, 1), and the forest edges among them span exactly the same
components, so each forest edge of weight w merges two components at
k = 0..w:

    comps(k) = n - #{forest edges with w_e >= max(k, 1)}
    sum over k of comps(k) = (2*t_w + 1) * n - sum over forest of (w_e + 1)

That integer sum is exact in float64, so the closed-form area equals the
mean of the integer curve bit for bit. The forest comes from Prim's
algorithm (Prim 1957) run on a whole batch of networks at once: each
network is taken as a complete graph in which a zero weight means no edge,
so its spanning tree's positive edges are the forest and its zero edges
join the components.

diversity_series does not rebuild each network: per distinct window length
it keeps one flat int64 vector of symmetric counts (an event a -> b adds
one at a*n + b and at b*n + a) and moves it from one sample point to the
next by adding the events of the rows that entered the window and
subtracting those of the rows that left. A gap of a whole window or more
rebuilds the vector from the window's rows. Both flat indices of every
event are computed once per log, into a table with one row per
iteration, and each step takes its entering, leaving or rebuilding rows
as a slice of it. Each sample point's networks, one per distinct clipped
window, are copied into a batch of at most 8 MiB of weights, and each full
batch goes through one forest pass; the batch holds no more networks than
the series has. Table and batch are int32 whenever the flat indices and
the weights fit in it, which holds for every swarm a dense n x n batch
can hold, so one pass covers twice the networks an int64 batch would.
"""

from __future__ import annotations

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


# most bytes of weights per forest batch, whatever the swarm size or dtype
_BATCH_BYTES = 8 << 20


def _index_dtype(n: int, t_w: int) -> np.dtype:
    """int32 if flat indices below n*n and weights up to 2*t_w fit, else int64."""
    fits = max(n * n, 2 * t_w) <= np.iinfo(np.int32).max
    return np.dtype(np.int32 if fits else np.int64)


def _event_table(rows: np.ndarray, n: int, dtype) -> np.ndarray:
    """(len(rows), 2n) flat indices a*n + b, then b*n + a, of each event a -> b."""
    a = np.arange(n, dtype=dtype)
    table = np.empty((len(rows), 2 * n), dtype=dtype)
    # formed in dtype itself: every index is below n*n, which dtype holds
    np.add(rows, a * n, out=table[:, :n], dtype=dtype, casting="same_kind")
    np.multiply(rows, n, out=table[:, n:], dtype=dtype, casting="same_kind")
    table[:, n:] += a
    return table


def _forest_weights(weights: np.ndarray) -> np.ndarray:
    """(B, n-1) spanning-tree weights of a (B, n, n) batch of networks.

    Prim's algorithm on every network at once, each taken as a complete
    graph in which a zero weight means no edge. A maximum spanning tree of
    that graph holds a maximum spanning forest of the positive edges, and
    every such forest has the same weights, so a network's positive tree
    weights are its forest weights, whichever way ties break. The pass
    runs in the batch's own signed integer dtype, so an int32 batch moves
    half the bytes of an int64 one; the tree weights come out in it too.
    """
    graphs, n, _ = weights.shape
    forest = np.empty((max(n - 1, 0), graphs), dtype=weights.dtype)
    rows = weights.reshape(graphs * n, n)
    base = np.arange(0, graphs * n, n)
    # best[b, v]: heaviest edge from b's tree to v, or -1 once v is in it;
    # cap holds v's entry at -1 from then on (one more ufunc pass is
    # cheaper than a masked np.maximum)
    best = weights[:, 0].copy()
    cap = np.full_like(best, np.iinfo(best.dtype).max)
    best[:, 0] = cap[:, 0] = -1
    flat_best = best.reshape(-1)
    flat_cap = cap.reshape(-1)
    joined_rows = np.empty_like(best)
    for tree_weight in forest:
        joined = best.argmax(axis=1)
        joined += base
        # "clip": joined is in range, and "raise" would buffer out in a copy
        flat_best.take(joined, out=tree_weight, mode="clip")
        flat_cap[joined] = -1
        rows.take(joined, axis=0, out=joined_rows, mode="clip")
        np.maximum(best, joined_rows, out=best)
        np.minimum(best, cap, out=best)
    return forest.T


def _areas(weights: np.ndarray, t_w) -> np.ndarray:
    """Destruction area of each network in a batch, from its forest."""
    n = weights.shape[1]
    forest = _forest_weights(weights)
    m = 2 * np.asarray(t_w, dtype=np.int64) + 1
    return (m * n - forest.sum(axis=1, dtype=np.int64)
            - np.count_nonzero(forest, axis=1)) / m


def build_network(log: InteractionLog, t: int, t_w: int) -> WeightedNetwork:
    """Interaction network at iteration t over the last t_w iterations."""
    if not 1 <= t_w <= t:
        raise InputError(f"window t_w={t_w} must satisfy 1 <= t_w <= t={t}")
    if t > len(log):
        raise InputError(f"iteration t={t} exceeds log length {len(log)}")
    n = log.n
    events = _event_table(log.choices[t - t_w:t], n, np.int64)
    flat = np.bincount(events.ravel(), minlength=n * n)
    return WeightedNetwork(n, t_w, flat.reshape(n, n))


def destruction_curves(nets: list[WeightedNetwork]) -> list[DestructionCurve]:
    """destruction_curve of each network, from one forest pass over all.

    The networks must share their swarm size.
    """
    curves = []
    for net, tree in zip(nets, _forest_weights(np.stack([net.weights for net in nets]))):
        w_max = 2 * net.t_w  # mutual selection all window long
        # at_least[k] = number of forest edges with weight >= k
        at_least = np.bincount(tree[tree > 0], minlength=w_max + 1)[::-1].cumsum()[::-1]
        thresholds = np.arange(w_max + 1) / w_max
        curves.append(DestructionCurve(thresholds, net.n - at_least))
    return curves


def destruction_curve(net: WeightedNetwork) -> DestructionCurve:
    """Component counts over the full threshold grid k/(2*t_w), k = 0..2*t_w.

    Every distinct subgraph appears on this grid because weights are
    integers in [0, 2*t_w]. Threshold 0 keeps the same edges as k = 1.
    """
    return destruction_curves([net])[0]


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
    nets = np.stack([build_network(log, t, w).weights for w in windows])
    areas = tuple(_areas(nets, windows).tolist())
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
    dtype = _index_dtype(n, min(max(windows), total))
    # row t holds the flat indices of iteration t + 1's events
    events = _event_table(log.choices, n, dtype)
    # counts[w] covers rows max(t - w, 0)..t-1, the window clipped at t;
    # they stay int64, where np.add.at takes its fast path
    counts = {w: np.zeros(n * n, dtype=np.int64) for w in set(windows)}
    # no more slots than the series has (point, distinct window) pairs: a
    # large allocation gets huge pages, which a short series would not use
    capacity = max(1, _BATCH_BYTES // (dtype.itemsize * n * n))
    batch = np.empty((min(capacity, len(points) * len(counts)), n, n), dtype=dtype)
    # one slot per (point, distinct clipped window): its t_w, and for every
    # point the slot that each window's area comes from
    slot_t_w = []
    slot_of = np.empty((len(points), len(windows)), dtype=np.int64)
    areas = []
    prev = 0
    for k, t in enumerate(points):
        entering = events[prev:t].ravel()
        for w, flat in counts.items():
            if t - prev >= w:
                flat[:] = np.bincount(events[t - w:t].ravel(), minlength=n * n)
            else:
                np.add.at(flat, entering, 1)
                np.subtract.at(flat, events[max(prev - w, 0):max(t - w, 0)].ravel(), 1)
        slots = {}
        for i, w in enumerate(windows):
            t_w = min(w, t)
            if t_w not in slots:
                slot = slots[t_w] = len(slot_t_w)
                batch[slot % len(batch)] = counts[w].reshape(n, n)
                slot_t_w.append(t_w)
                if len(slot_t_w) % len(batch) == 0:
                    areas.append(_areas(batch, slot_t_w[-len(batch):]))
            slot_of[k, i] = slots[t_w]
        prev = t
    filled = len(slot_t_w) % len(batch)
    if filled:
        areas.append(_areas(batch[:filled], slot_t_w[-filled:]))
    chosen = np.concatenate(areas)[slot_of]
    # left to right over the windows, as the builtin sum adds them
    total_area = chosen[:, 0].copy()
    for column in chosen.T[1:]:
        total_area += column
    values = 1.0 - total_area / (n * len(windows))
    return np.array(points, dtype=np.int64), values
