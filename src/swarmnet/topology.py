"""Static communication topologies over particle indices, in two closed forms.

Ring, k-regular and global are circulants of degree 2, k and n-1: particle
i neighbors i +- 1..floor(k/2) mod n, plus the diametric chord i + n/2 when
k is odd (n is then even). Von Neumann is the 4-neighbor torus on an r x c
grid. A topology is an (n, degree) integer array, each row sorted ascending.

Every accepted graph is regular, symmetric, free of self-loops and
connected: the circulant offsets are distinct, below n/2 and include 1,
and both torus sides are at least 3. The tests check this on every small
graph against a set-based reference; nothing re-checks it at run time.
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

    kind: TopologyKind
    adjacency: np.ndarray  # (n, k), rows sorted ascending, no self entries

    def __post_init__(self):
        self.adjacency.setflags(write=False)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def k(self) -> int:
        return self.adjacency.shape[1]


def label(kind: TopologyKind, k: int) -> str:
    """`<kind>_<k>`, the name of a topology's output directory."""
    return f"{kind.value}_{k}"


def _torus_grid(n: int) -> tuple[int, int]:
    """Largest divisor r <= sqrt(n) with both sides >= 3, or raise."""
    r = max((r for r in range(3, math.isqrt(n) + 1) if n % r == 0), default=0)
    if r == 0:
        raise ConfigurationError(
            f"von Neumann topology needs n = r*c with r, c >= 3; n={n} does not factor"
        )
    return r, n // r


def _circulant_offsets(n: int, k: int) -> np.ndarray:
    """Signed offsets +-1..k//2 of a connected k-regular circulant, + n/2 if k is odd."""
    if k < 2 or k >= n:
        raise ConfigurationError(f"k-regular topology needs 2 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise ConfigurationError(
            f"k-regular topology infeasible: n*k must be even, got n={n}, k={k}"
        )
    half = np.arange(1, k // 2 + 1)
    return np.concatenate([half, -half, [n // 2] * (k % 2)]).astype(np.int64)


def build_topology(kind: TopologyKind, n: int, k: int | None = None) -> TopologyGraph:
    """Build a connected regular topology; deterministic for given (kind, n, k)."""
    if n < 3:
        raise ConfigurationError(f"topology needs at least 3 particles, got n={n}")
    if kind is TopologyKind.VON_NEUMANN:
        r, c = _torus_grid(n)
        row, col = np.divmod(np.arange(n), c)
        neighbors = np.stack([(row - 1) % r * c + col, (row + 1) % r * c + col,
                              row * c + (col - 1) % c, row * c + (col + 1) % c], axis=1)
    else:
        if kind is TopologyKind.RING:
            k = 2
        elif kind is TopologyKind.GLOBAL:
            k = n - 1
        elif kind is not TopologyKind.K_REGULAR:
            raise ConfigurationError(f"unknown topology kind {kind!r}")
        elif k is None:
            raise ConfigurationError("k-regular topology requires a degree k")
        neighbors = (np.arange(n)[:, None] + _circulant_offsets(n, k)) % n
    return TopologyGraph(kind, np.sort(neighbors, axis=1).astype(np.int64, copy=False))
