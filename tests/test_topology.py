"""Communication-topology construction and invariant checks."""

from collections import deque

import numpy as np
import pytest

from oracle import TopologyError, oracle_topology
from swarmnet.errors import ConfigurationError
from swarmnet.topology import TopologyKind, build_topology, label


def _neighbor_set(g, i):
    return set(int(v) for v in g.adjacency[i])


def _is_connected(g):
    seen = {0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nxt in g.adjacency[node]:
            if int(nxt) not in seen:
                seen.add(int(nxt))
                queue.append(int(nxt))
    return len(seen) == g.n


class TestRing:
    def test_small_ring(self):
        g = build_topology(TopologyKind.RING, 5)
        assert g.k == 2
        assert _neighbor_set(g, 0) == {1, 4}
        assert _neighbor_set(g, 2) == {1, 3}

    def test_label(self):
        g = build_topology(TopologyKind.RING, 5)
        assert label(g.kind, g.k) == "ring_2"


class TestVonNeumann:
    def test_three_by_three_torus(self):
        g = build_topology(TopologyKind.VON_NEUMANN, 9)
        assert g.k == 4
        assert _neighbor_set(g, 4) == {1, 3, 5, 7}
        assert _neighbor_set(g, 0) == {1, 2, 3, 6}

    def test_hundred_particles(self):
        g = build_topology(TopologyKind.VON_NEUMANN, 100)
        assert _neighbor_set(g, 0) == {1, 9, 10, 90}

    def test_rectangular_grid(self):
        g = build_topology(TopologyKind.VON_NEUMANN, 12)
        assert g.k == 4
        assert _is_connected(g)

    def test_no_valid_grid(self):
        for n in (7, 8, 10):
            with pytest.raises(ConfigurationError):
                build_topology(TopologyKind.VON_NEUMANN, n)


class TestKRegular:
    def test_even_degree_offsets(self):
        g = build_topology(TopologyKind.K_REGULAR, 100, 6)
        assert _neighbor_set(g, 0) == {1, 2, 3, 97, 98, 99}

    def test_odd_degree_includes_opposite(self):
        g = build_topology(TopologyKind.K_REGULAR, 10, 5)
        assert _neighbor_set(g, 0) == {1, 2, 5, 8, 9}

    def test_degree_two_matches_ring(self):
        a = build_topology(TopologyKind.K_REGULAR, 8, 2)
        b = build_topology(TopologyKind.RING, 8)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_parity_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology(TopologyKind.K_REGULAR, 99, 5)

    def test_degree_bounds(self):
        with pytest.raises(ConfigurationError):
            build_topology(TopologyKind.K_REGULAR, 10, 1)
        with pytest.raises(ConfigurationError):
            build_topology(TopologyKind.K_REGULAR, 10, 10)

    def test_requires_degree(self):
        with pytest.raises(ConfigurationError):
            build_topology(TopologyKind.K_REGULAR, 10)


class TestGlobal:
    def test_every_other_particle(self):
        g = build_topology(TopologyKind.GLOBAL, 6)
        assert g.k == 5
        for i in range(6):
            assert _neighbor_set(g, i) == set(range(6)) - {i}


class TestInvariants:
    CASES = [
        (TopologyKind.RING, 3, None),
        (TopologyKind.RING, 50, None),
        (TopologyKind.VON_NEUMANN, 9, None),
        (TopologyKind.VON_NEUMANN, 50, None),
        (TopologyKind.VON_NEUMANN, 100, None),
        (TopologyKind.K_REGULAR, 50, 10),
        (TopologyKind.K_REGULAR, 50, 21),
        (TopologyKind.K_REGULAR, 17, 4),
        (TopologyKind.GLOBAL, 12, None),
    ]

    @pytest.mark.parametrize("kind,n,k", CASES)
    def test_regular_symmetric_connected(self, kind, n, k):
        g = build_topology(kind, n, k)
        assert g.adjacency.shape == (n, g.k)
        for i in range(n):
            row = g.adjacency[i]
            assert len(set(int(v) for v in row)) == g.k
            assert i not in set(int(v) for v in row)
            assert np.array_equal(row, np.sort(row))
            for j in row:
                assert i in _neighbor_set(g, int(j))
        assert _is_connected(g)

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            build_topology(TopologyKind.RING, 2)

    def test_adjacency_read_only(self):
        g = build_topology(TopologyKind.RING, 5)
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = 3


def _build(build, *args):
    try:
        return build(*args)
    except (ConfigurationError, TopologyError) as exc:
        return str(exc)


def _assert_invariants(adjacency):
    """Regular, symmetric, no self-loops, connected: checked on the matrix."""
    n, k = adjacency.shape
    assert (np.diff(adjacency, axis=1) > 0).all()  # k distinct, sorted
    assert (adjacency != np.arange(n)[:, None]).all()
    linked = np.zeros((n, n), dtype=bool)
    linked[np.arange(n)[:, None], adjacency] = True
    assert (linked == linked.T).all()
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    for _ in range(n):
        grown = reached | linked[reached].any(axis=0)
        if (grown == reached).all():
            break
        reached = grown
    assert reached.all()


def test_every_small_topology_matches_the_set_based_reference():
    # The reference reads k only for k_regular; build it once per other (kind, n).
    expected = {}
    for kind in TopologyKind:
        for n in [*range(1, 65), 100]:
            for k in [*range(-1, n + 2), None]:
                got = _build(build_topology, kind, n, k)
                key = (kind, n, k if kind is TopologyKind.K_REGULAR else None)
                first = key not in expected
                if first:
                    want = _build(oracle_topology, kind.value, n, k)
                    if not isinstance(want, str):
                        want = (want[0], np.array(want[1], dtype=np.int64))
                    expected[key] = want
                want = expected[key]
                if isinstance(want, str):
                    assert got == want, (kind, n, k)
                    continue
                degree, adjacency = want
                assert (got.kind, got.n, got.k) == (kind, n, degree), (kind, n, k)
                assert got.adjacency.dtype == np.int64
                assert got.adjacency.shape == adjacency.shape, (kind, n, k)
                assert got.adjacency.tobytes() == adjacency.tobytes(), (kind, n, k)
                if first:
                    _assert_invariants(got.adjacency)
