"""Naive reference implementations used to cross-check the main pipeline.

Everything here is written for clarity, not speed: weights by a double
loop over iterations and pairs, components by breadth-first traversal.
The diversity formula follows the same association order as the package
(sum areas, one division, one subtraction) so agreement is exact, while
every intermediate quantity is produced by independent code.

`oracle_read_log` reads a selection log one line at a time, on plain lists,
in the one grammar the package's writer produces; it raises LogError with
the text the package's InputError carries.

`oracle_topology` is the set-based topology construction the package used
before its closed forms; it raises TopologyError with the text the
package's ConfigurationError carries.

`oracle_pso` runs constricted PSO one particle and one coordinate at a
time, on plain lists, with `oracle_topology`'s neighbors.
"""

import math
from collections import deque

import numpy as np

LOG_HEADER = ["iteration", "particle", "best_neighbor"]


class LogError(Exception):
    """A log the reference reader rejects; the message names file and line."""


class TopologyError(Exception):
    """A (kind, n, k) the reference topology builder rejects."""


def oracle_topology(kind_value, n, k=None):
    """(degree, rows) of a topology: row i lists i's neighbors ascending."""
    if n < 3:
        raise TopologyError(f"topology needs at least 3 particles, got n={n}")
    if kind_value == "ring":
        return 2, [sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)]
    if kind_value == "von_neumann":
        r = 0
        for cand in range(3, math.isqrt(n) + 1):
            if n % cand == 0:
                r = cand
        if r == 0:
            raise TopologyError(
                f"von Neumann topology needs n = r*c with r, c >= 3; n={n} does not factor"
            )
        c = n // r
        rows = []
        for i in range(n):
            row, col = divmod(i, c)
            rows.append(sorted({
                ((row - 1) % r) * c + col,
                ((row + 1) % r) * c + col,
                row * c + (col - 1) % c,
                row * c + (col + 1) % c,
            }))
        return 4, rows
    if kind_value == "k_regular":
        if k is None:
            raise TopologyError("k-regular topology requires a degree k")
        if k < 2 or k >= n:
            raise TopologyError(f"k-regular topology needs 2 <= k < n, got k={k}, n={n}")
        if (n * k) % 2 != 0:
            raise TopologyError(
                f"k-regular topology infeasible: n*k must be even, got n={n}, k={k}"
            )
        offsets = range(1, k // 2 + 1)
        rows = []
        for i in range(n):
            nbrs = {(i + o) % n for o in offsets} | {(i - o) % n for o in offsets}
            if k % 2:
                nbrs.add((i + n // 2) % n)
            rows.append(sorted(nbrs))
        return k, rows
    if kind_value == "global":
        return n - 1, [[j for j in range(n) if j != i] for i in range(n)]
    raise TopologyError(f"unknown topology kind {kind_value!r}")


def oracle_read_log(path):
    """choices[t-1][i] of a selection log, checked one row at a time.

    The file opens with the header line and \r\n; every later line holds
    three runs of 1-18 ASCII digits joined by commas and ends in \r\n, the
    last one included. The rows then fill iteration 1 with particles
    0..n-1 in turn, then iteration 2, and so on, where n is one more than
    the largest particle index.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = (",".join(LOG_HEADER) + "\r\n").encode()
    if not data.startswith(head):
        raise LogError(f"{path}:1: expected header line {head!r}, got {data[:len(head)]!r}")
    lines = data[len(head):].split(b"\r\n")
    unterminated = lines[-1] != b""
    if not unterminated:
        del lines[-1]
    events = []
    for line_no, line in enumerate(lines, start=2):
        row = line.decode(errors="replace").split(",")
        if len(row) != 3:
            raise LogError(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
        if not all(1 <= len(v) <= 18 and set(v) <= set("0123456789") for v in row):
            raise LogError(f"{path}:{line_no}: expected 1-18 digits per field, got {row}")
        t, i, b = (int(v) for v in row)
        if t < 1:
            raise LogError(f"{path}:{line_no}: out-of-range values {row}")
        events.append((t, i, b))
    if unterminated:
        raise LogError(f"{path}:{len(lines) + 1}: line does not end in \\r\\n")
    if not events:
        raise LogError(f"{path}:2: log contains no selection events")
    n = max(i for _, i, _ in events) + 1
    choices = []
    for line_no, (t, i, b) in enumerate(events, start=2):
        if b >= n:
            raise LogError(f"{path}:{line_no}: particle index out of range in {(t, i, b)}")
        if b == i:
            raise LogError(f"{path}:{line_no}: particle {i} selects itself at iteration {t}")
        if not choices or len(choices[-1]) == n:
            choices.append([])
        want = (len(choices), len(choices[-1]))
        if (t, i) != want:
            raise LogError(f"{path}:{line_no}: expected iteration {want[0]}, "
                           f"particle {want[1]}, got {(t, i, b)}")
        choices[-1].append(b)
    if len(choices[-1]) < n:
        raise LogError(f"{path}: missing event for iteration {len(choices)}, "
                       f"particle {len(choices[-1])}")
    return choices


def oracle_weights(choices, t, t_w):
    """Pairwise selection counts over window (t - t_w, t], 1-based t."""
    n = len(choices[0])
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = 0
            for tp in range(t - t_w, t):
                if choices[tp][j] == i:
                    w += 1
                if choices[tp][i] == j:
                    w += 1
            if w:
                weights[(i, j)] = w
    return weights


def oracle_components(n, edges):
    """Connected-component count by BFS over an adjacency dict."""
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = set()
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return count


def oracle_curve(n, weights, t_w):
    """Component counts at thresholds k/(2 t_w) for k = 0..2 t_w."""
    counts = []
    for k in range(2 * t_w + 1):
        tau = k / (2 * t_w)
        kept = [
            pair for pair, w in weights.items()
            if w / (2 * t_w) >= tau
        ]
        counts.append(oracle_components(n, kept))
    return counts


def oracle_area(counts):
    return sum(counts) / len(counts)


def oracle_id(choices, t, windows):
    """Full diversity pipeline on plain Python lists."""
    n = len(choices[0])
    areas = []
    for t_w in windows:
        weights = oracle_weights(choices, t, t_w)
        areas.append(oracle_area(oracle_curve(n, weights, t_w)))
    return 1.0 - sum(areas) / (n * len(windows))


def oracle_pso(objective, kind_value, k, params):
    """(trace, choices, swarm) of one constricted PSO run, coordinate by coordinate.

    The objective is a black box: only its bounds, its dimension and
    evaluate_many are used, once on the initial swarm and then once per
    step on the whole swarm's positions. The uniforms come one at a time
    from the oracle's own default_rng(params.rng_seed): first the initial
    positions, particle by particle and dimension by dimension, then for
    each iteration, particle and dimension, r1 before r2. Each particle
    copies the neighbor with the lowest personal-best fitness at the end of
    the previous iteration, the lowest index on a tie, never itself. A
    personal best moves on strict improvement only. The run stops at t_max,
    or delta_window iterations after the last iteration t_s >= 1 whose
    relative improvement reached epsilon.

    trace is (global best per iteration, relative improvement per
    iteration, converged_at); choices[t-1][i] is particle i's neighbor at
    iteration t; swarm is the final (positions, velocities, personal bests,
    personal-best fitness).
    """
    n, d = params.swarm_size, objective.dimension
    c1, c2, chi = params.c1, params.c2, params.chi
    _, neighbors = oracle_topology(kind_value, n, k)
    rng = np.random.default_rng(params.rng_seed)
    lower, upper = objective.bounds

    def evaluate(points):
        return [float(f) for f in objective.evaluate_many(np.array(points))]

    x = [[rng.uniform(lower, upper) for _ in range(d)] for _ in range(n)]
    v = [[0.0] * d for _ in range(n)]
    p = [row[:] for row in x]
    pf = evaluate(x)
    f_prev = min(pf)
    best_hist, delta_hist, choices = [], [], []
    last_improve = 0
    converged_at = None
    for t in range(1, params.t_max + 1):
        nb = []
        for i in range(n):
            best = None
            for j in neighbors[i]:
                if j != i and (best is None or pf[j] < pf[best]):
                    best = j
            nb.append(best)
        for i in range(n):
            for e in range(d):
                r1 = rng.random()
                r2 = rng.random()
                vel = v[i][e] + (p[i][e] - x[i][e]) * (c1 * r1)
                vel = vel + (p[nb[i]][e] - x[i][e]) * (c2 * r2)
                v[i][e] = vel * chi
                x[i][e] = x[i][e] + v[i][e]
        fitness = evaluate(x)
        for i in range(n):
            if fitness[i] < pf[i]:
                p[i] = x[i][:]
                pf[i] = fitness[i]
        f_g = min(pf)
        f_delta = 0.0 if f_prev == 0.0 else (f_prev - f_g) / abs(f_prev)
        best_hist.append(f_g)
        delta_hist.append(f_delta)
        choices.append(nb)
        f_prev = f_g
        if f_delta >= params.epsilon:
            last_improve = t
        t_s = max(last_improve, 1)
        if t - t_s >= params.delta_window:
            converged_at = t_s
            break
    return (best_hist, delta_hist, converged_at), choices, (x, v, p, pf)
