"""Static communication topologies over particle indices.

All supported topologies are regular graphs, so the neighborhood structure
is stored as an (n, degree) integer array with each row sorted ascending.
Construction is deterministic: the k-regular family uses circulant graphs
(offsets 1..k/2 for even k; for odd k with even n, offsets 1..(k-1)/2 plus
the diametric chord i <-> i + n/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError


class TopologyKind(str, Enum):
    RING = "ring"
    VON_NEUMANN = "von_neumann"
    K_REGULAR = "k_regular"
    GLOBAL = "global"


@dataclass(frozen=True)
class TopologyGraph:
    """Undirected regular neighborhood structure; immutable after build."""

    n: int
    kind: TopologyKind
    k: int
    adjacency: np.ndarray  # (n, k), rows sorted ascending, no self entries

    def __post_init__(self):
        self.adjacency.setflags(write=False)


def label(kind: TopologyKind, k: int) -> str:
    """`<kind>_<k>`, the name of a topology's output directory."""
    return f"{kind.value}_{k}"


def _torus_grid(n: int) -> tuple[int, int]:
    """Largest divisor r <= sqrt(n) with both sides >= 3, or raise."""
    best = 0
    for r in range(3, math.isqrt(n) + 1):
        if n % r == 0:
            best = r
    if best == 0:
        raise ConfigurationError(
            f"von Neumann topology needs n = r*c with r, c >= 3; n={n} does not factor"
        )
    return best, n // best


def _circulant_offsets(n: int, k: int) -> tuple[list[int], bool]:
    """Offsets for a connected k-regular circulant; bool marks the n/2 chord."""
    if k < 2 or k >= n:
        raise ConfigurationError(f"k-regular topology needs 2 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise ConfigurationError(
            f"k-regular topology infeasible: n*k must be even, got n={n}, k={k}"
        )
    if k % 2 == 0:
        return list(range(1, k // 2 + 1)), False
    return list(range(1, (k - 1) // 2 + 1)), True


def build_topology(kind: TopologyKind, n: int, k: int | None = None) -> TopologyGraph:
    """Build a connected regular topology; deterministic for given (kind, n, k)."""
    if n < 3:
        raise ConfigurationError(f"topology needs at least 3 particles, got n={n}")
    if kind is TopologyKind.RING:
        degree = 2
        rows = [sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)]
    elif kind is TopologyKind.VON_NEUMANN:
        degree = 4
        r, c = _torus_grid(n)
        rows = []
        for i in range(n):
            row, col = divmod(i, c)
            rows.append(sorted({
                ((row - 1) % r) * c + col,
                ((row + 1) % r) * c + col,
                row * c + (col - 1) % c,
                row * c + (col + 1) % c,
            }))
    elif kind is TopologyKind.K_REGULAR:
        if k is None:
            raise ConfigurationError("k-regular topology requires a degree k")
        degree = k
        offsets, chord = _circulant_offsets(n, k)
        rows = []
        for i in range(n):
            nbrs = {(i + o) % n for o in offsets} | {(i - o) % n for o in offsets}
            if chord:
                nbrs.add((i + n // 2) % n)
            rows.append(sorted(nbrs))
    elif kind is TopologyKind.GLOBAL:
        degree = n - 1
        rows = [[j for j in range(n) if j != i] for i in range(n)]
    else:
        raise ConfigurationError(f"unknown topology kind {kind!r}")

    adjacency = np.array(rows, dtype=np.int64)
    graph = TopologyGraph(n=n, kind=kind, k=degree, adjacency=adjacency)
    _check_invariants(graph)
    return graph


def _check_invariants(g: TopologyGraph) -> None:
    """Degree regularity, symmetry, no self-loops, connectivity by traversal."""
    if g.adjacency.shape != (g.n, g.k):
        raise ConfigurationError(
            f"degree shortfall: expected regular degree {g.k}, "
            f"got adjacency shape {g.adjacency.shape}"
        )
    neighbor_sets = [set(row.tolist()) for row in g.adjacency]
    for i, nbrs in enumerate(neighbor_sets):
        if i in nbrs:
            raise ConfigurationError(f"self-loop at node {i}")
        if len(nbrs) != g.k:
            raise ConfigurationError(f"duplicate neighbors at node {i}")
        for j in nbrs:
            if i not in neighbor_sets[j]:
                raise ConfigurationError(f"asymmetric edge ({i}, {j})")
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in neighbor_sets[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != g.n:
        raise ConfigurationError(
            f"topology is disconnected: reached {len(seen)} of {g.n} nodes"
        )

