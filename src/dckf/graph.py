"""Sensor-network topology: Laplacian construction and spectral services."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "laplacian",
    "is_connected",
    "algebraic_connectivity",
    "ring",
]


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected sensor graph given by a 0/1 adjacency matrix, zero diagonal."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ValueError("topology needs at least one node")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency diagonal must be zero (no self loops)")
        if not np.all(np.isin(adj, (0.0, 1.0))):
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", adj)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "Topology":
        adj = np.zeros((node_count, node_count))
        for i, j in edges:
            if i == j:
                raise ValueError(f"self loop ({i}, {j}) not allowed")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ValueError(f"edge ({i}, {j}) out of range for {node_count} nodes")
            adj[i, j] = adj[j, i] = 1.0
        return cls(adj)


def ring(n: int) -> Topology:
    """Cycle graph on n nodes."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return Topology.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: degree matrix minus adjacency.  Symmetric PSD, zero row sums."""
    adj = t.adjacency
    return np.diag(adj.sum(axis=1)) - adj


def is_connected(t: Topology) -> bool:
    """Breadth-first search reachability from node 0."""
    n = t.node_count
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(t.adjacency[i]):
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


_CONNECTIVITY_RTOL = 1e-9


def algebraic_connectivity(t: Topology) -> float:
    """Second-smallest Laplacian eigenvalue of a connected topology with at least two nodes.

    Raises ``ValueError`` when the graph is disconnected (BFS is the
    authoritative check; the spectral gap is verified as well).
    """
    if t.node_count < 2:
        raise ValueError("algebraic connectivity needs at least two nodes")
    if not is_connected(t):
        raise ValueError("topology is disconnected; algebraic connectivity needs a connected graph")
    # eigh rather than eigvalsh: the two LAPACK drivers differ in the last
    # bits, and every gain threshold downstream is computed from these values.
    eigenvalues = np.linalg.eigh(laplacian(t))[0]
    if eigenvalues[1] <= _CONNECTIVITY_RTOL * max(eigenvalues[-1], 1.0):
        raise ValueError("algebraic connectivity is numerically zero on a BFS-connected graph")
    return float(eigenvalues[1])
