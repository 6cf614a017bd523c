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

diversity_series does not rebuild each network. It keeps running totals
of symmetric counts (an event a -> b adds one at a*n + b and at b*n + a)
at lag 0 and at each distinct window length: at sample point t the total
at lag L counts the events of the iterations before t - L, so window
t_w's network is the lag-0 total minus the lag-t_w one. Both flat indices
of every event are computed once per log, into a table whose rows follow
as many pad rows as the longest window; their events go to a last
counter that is never read, so a window clipped at the log's start needs
no code of its own. Between sample points the totals lagged by less
than t advance by their own rows in one np.add.at or, when a rebuild
reads fewer rows, all are rebuilt, each as the next longer lag's total
plus a bincount of the band between. At a sample point the distinct
clipped windows are subtracted straight into a batch of at most 8 MiB
of weights; each full batch goes through one forest pass, and the batch
holds no more networks than the series has. Table, totals and batch are
int32 whenever the flat indices and the weights fit in it, which holds
for every swarm a dense n x n batch can hold, so one pass covers twice
the networks an int64 batch would.
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

    areas: tuple[float, ...]
    id_value: float


# most bytes of weights per forest batch, whatever the swarm size or dtype
_BATCH_BYTES = 8 << 20


def _index_dtype(n: int, t_w: int) -> np.dtype:
    """int32 if flat indices below n*n and weights up to 2*t_w fit, else int64."""
    fits = max(n * n, 2 * t_w) <= np.iinfo(np.int32).max
    return np.dtype(np.int32 if fits else np.int64)


def _event_table(rows: np.ndarray, n: int, dtype, pad: int = 0) -> np.ndarray:
    """(pad + len(rows), 2n) flat indices a*n + b, then b*n + a, of each event
    a -> b, after pad rows that hold n*n only."""
    a = np.arange(n, dtype=dtype)
    table = np.empty((pad + len(rows), 2 * n), dtype=dtype)
    table[:pad] = n * n
    body = table[pad:]
    # formed in dtype itself: every index is at most n*n, which dtype holds
    np.add(rows, a * n, out=body[:, :n], dtype=dtype, casting="same_kind")
    np.multiply(rows, n, out=body[:, n:], dtype=dtype, casting="same_kind")
    body[:, n:] += a
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
    return DiversityReport(areas, id_value)


def sample_points(total: int, stride: int) -> np.ndarray:
    """Every stride-th iteration before total, then total: where
    diversity_series samples ID in a log of total iterations."""
    return np.append(np.arange(stride, total, stride, dtype=np.int64), np.int64(total))


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
    points = sample_points(total, stride)
    n = log.n
    nn = n * n
    # the distinct windows, ascending; one longer than the log is clipped
    # at every point to the same network as the log's length
    ws = sorted({min(w, total) for w in windows})
    lags = np.array([0, *ws], dtype=np.int64)
    dtype = _index_dtype(n, total)  # no real count exceeds 2 * total
    # row pad + t holds iteration t + 1's events; the pad rows before it
    # point at the last counter, n*n, which is never read
    pad = ws[-1]
    events = _event_table(log.choices, n, dtype, pad)
    padded = np.arange(pad, pad + total)
    # totals[k] counts the events of the rows before t - lags[k], less
    # those before the last rebuild's base; window j is totals[0] - totals[j + 1]
    totals = np.zeros((len(lags), nn + 1), dtype=dtype)
    flat = totals.reshape(-1)
    # int64 indices, as flat may outgrow dtype and np.add.at is fastest on
    # them; it takes its fast path only for a value of flat's dtype
    offsets = np.arange(0, flat.size, nn + 1)[:, None, None]
    # At point t the totals lagged by less than t are live; the others hold
    # pad rows only and wait. The distinct clipped windows are ws[:m], the
    # last one clipped to t: one slot each, consecutive from the point's first.
    live = np.searchsorted(lags, points)
    m = np.minimum(live, len(ws))
    first = np.cumsum(m) - m
    point_of = np.repeat(np.arange(len(points)), m)
    slot_t_w = np.minimum(lags[1:][np.arange(len(point_of)) - first[point_of]],
                          points[point_of])
    # no more slots than the series has: a large allocation gets huge
    # pages, which a short series would not use
    capacity = max(1, _BATCH_BYTES // (dtype.itemsize * nn))
    batch = np.empty((min(capacity, len(slot_t_w)), n, n), dtype=dtype)
    slots = batch.reshape(len(batch), nn)
    areas = []
    filled = prev = 0
    for t, at_t, live_t in zip(points.tolist(), m.tolist(), live.tolist()):
        # Advancing reads t - prev rows per live total; rebuilding, ws[-1]
        # rows and a pass over the n*n counts per window, about n/8 rows.
        if live_t * (t - prev) <= pad + len(ws) * n / 8:
            rows = events.take(padded[prev:t] - lags[:live_t, None], axis=0)
            np.add.at(flat, (rows + offsets[:live_t]).ravel(), dtype.type(1))
        else:
            # from base t - ws[-1], each from the next longer lag's total
            totals[-1] = 0
            for k in range(len(ws) - 1, -1, -1):
                band = events[t + pad - lags[k + 1]:t + pad - lags[k]]
                np.add(totals[k + 1], np.bincount(band.ravel(), minlength=nn + 1),
                       out=totals[k], dtype=dtype, casting="same_kind")
        # slots filled..filled + at_t - 1, split where the batch fills
        done = 0
        while done < at_t:
            start = filled % len(batch)
            step = min(at_t - done, len(batch) - start)
            np.subtract(totals[0, :nn], totals[done + 1:done + step + 1, :nn],
                        out=slots[start:start + step])
            done += step
            filled += step
            if filled % len(batch) == 0:
                areas.append(_areas(batch, slot_t_w[filled - len(batch):filled]))
        prev = t
    rest = filled % len(batch)
    if rest:
        areas.append(_areas(batch[:rest], slot_t_w[filled - rest:]))
    # each window's slot: its rank among ws, or the point's last if clipped
    rank = np.searchsorted(ws, [min(w, total) for w in windows])
    slot_of = first[:, None] + np.minimum(rank, m[:, None] - 1)
    chosen = np.concatenate(areas)[slot_of]
    # left to right over the windows, as the builtin sum adds them
    total_area = chosen[:, 0].copy()
    for column in chosen.T[1:]:
        total_area += column
    values = 1.0 - total_area / (n * len(windows))
    return points, values
