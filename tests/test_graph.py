import numpy as np
import pytest

from dckf import graph
from conftest import complete


def random_topology(rng, n, p=0.4):
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1.0
    return graph.Topology(adj)


def bfs_connected(adj):
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if adj[i, j] and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def test_topology_validation():
    with pytest.raises(ValueError):
        graph.Topology(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        graph.Topology(np.array([[1.0, 1.0], [1.0, 0.0]]))  # self loop
    with pytest.raises(ValueError):
        graph.Topology(np.array([[0.0, 2.0], [2.0, 0.0]]))  # not 0/1


def test_two_node_laplacian():
    t = graph.Topology.from_edges(2, [(0, 1)])
    np.testing.assert_array_equal(graph.laplacian(t), [[1.0, -1.0], [-1.0, 1.0]])


def test_complete_three_laplacian():
    lap = graph.laplacian(complete(3))
    np.testing.assert_array_equal(lap, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_ring6_spectrum_closed_form():
    # Cycle eigenvalues are 2 - 2 cos(2 pi k / 6) for k = 0..5.
    expected = sorted(2.0 - 2.0 * np.cos(2.0 * np.pi * k / 6.0) for k in range(6))
    np.testing.assert_allclose(expected, [0, 1, 1, 3, 3, 4], atol=1e-12)
    assert graph.algebraic_connectivity(graph.ring(6)) == pytest.approx(expected[1])


def test_complete_graph_connectivity():
    assert graph.algebraic_connectivity(complete(3)) == pytest.approx(3.0)


def test_laplacian_row_sums_and_psd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = random_topology(rng, int(rng.integers(2, 9)))
        lap = graph.laplacian(t)
        np.testing.assert_allclose(lap @ np.ones(t.node_count), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(lap)[0] >= -1e-10


def test_is_connected_simple_cases():
    assert graph.is_connected(graph.ring(6))
    two_pairs = graph.Topology.from_edges(4, [(0, 1), (2, 3)])
    assert not graph.is_connected(two_pairs)


def test_is_connected_matches_spectral_gap():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        t = random_topology(rng, n, p=rng.uniform(0.1, 0.9))
        lap = graph.laplacian(t)
        w = np.linalg.eigvalsh(lap)
        spectral = w[1] > 1e-9 * max(w[-1], 1.0)
        assert graph.is_connected(t) == bfs_connected(t.adjacency) == spectral


def test_spectrum_requires_connected():
    with pytest.raises(ValueError):
        graph.algebraic_connectivity(graph.Topology.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        graph.algebraic_connectivity(graph.Topology(np.zeros((1, 1))))


def test_spectrum_decreasing_with_zero_last():
    # The connectivity is the eigenvalue next to the zero one, bit for bit as
    # ``eigh`` gives it, and within Fiedler's bound n/(n-1) * min degree.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        t = random_topology(rng, n, p=0.6)
        if not graph.is_connected(t):
            continue
        w = np.linalg.eigh(graph.laplacian(t))[0]
        assert abs(w[0]) <= 1e-12
        connectivity = graph.algebraic_connectivity(t)
        assert connectivity == w[1]
        assert 0.0 < connectivity <= n / (n - 1) * t.adjacency.sum(axis=1).min() + 1e-12
