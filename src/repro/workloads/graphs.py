"""CSR graphs and the Table 2 input profiles.

The paper's GAP inputs (Kron, LiveJournal, Orkut, Twitter, Urand; Table
2) are multi-GB crawls we cannot ship; we substitute synthetic graphs
with matching *degree-distribution shape* at a scale proportional to the
scaled cache hierarchy (DESIGN.md, "Substitutions"):

* ``KR``, ``TW``, ``ORK``, ``LJN`` — RMAT/Kronecker power-law graphs
  (few huge vertices, long inner loops — DVR's friendly case);
* ``UR`` — uniform random (Erdos-Renyi-style), whose uniformly small
  vertices are the paper's hard case that Nested mode targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import WorkloadError


@dataclass
class Graph:
    """Compressed sparse row representation."""

    name: str
    num_nodes: int
    row_offsets: np.ndarray  # int64, length n+1
    col_indices: np.ndarray  # int64, length m
    weights: Optional[np.ndarray] = None  # int64, length m

    @property
    def num_edges(self) -> int:
        return len(self.col_indices)

    def degree(self, node: int) -> int:
        return int(self.row_offsets[node + 1] - self.row_offsets[node])

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def validate(self) -> None:
        if len(self.row_offsets) != self.num_nodes + 1:
            raise WorkloadError("row_offsets has wrong length")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.num_edges:
            raise WorkloadError("row_offsets endpoints are inconsistent")
        if np.any(np.diff(self.row_offsets) < 0):
            raise WorkloadError("row_offsets is not monotone")
        if self.num_edges and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.num_nodes
        ):
            raise WorkloadError("col_indices out of range")


def _csr_from_edges(name: str, n: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = dst[order]
    counts = np.bincount(src, minlength=n)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    return Graph(name, n, row_offsets, dst.astype(np.int64))


def uniform_random_graph(n: int, avg_degree: int, seed: int = 1) -> Graph:
    """Erdos-Renyi-style: every vertex has a small, uniform degree."""
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    src = rng.integers(0, n, m, dtype=np.int64)
    dst = rng.integers(0, n, m, dtype=np.int64)
    return _csr_from_edges("uniform", n, src, dst)


def rmat_graph(
    n: int,
    avg_degree: int,
    seed: int = 1,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Graph:
    """Recursive-matrix (Kronecker-like) power-law graph generator."""
    if n & (n - 1):
        raise WorkloadError("rmat_graph needs a power-of-two node count")
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    levels = int(np.log2(n))
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(levels):
        r = rng.random(m)
        src_bit = (r >= a + b).astype(np.int64)
        dst_bit = (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    # Permute IDs so high-degree vertices are scattered (as in GAP).
    perm = rng.permutation(n)
    return _csr_from_edges("rmat", n, perm[src], perm[dst])


def add_weights(graph: Graph, seed: int = 7, max_weight: int = 64) -> Graph:
    """A new ``Graph`` sharing ``graph``'s CSR arrays, plus random edge weights.

    ``graph`` itself is left untouched (it may be a shared, memoised input).
    """
    rng = np.random.default_rng(seed)
    return replace(
        graph, weights=rng.integers(1, max_weight, graph.num_edges, dtype=np.int64)
    )


def bfs_frontier(graph: Graph, source: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Run BFS functionally; return (largest frontier, depth array).

    The GAP kernels operate on a frontier worklist; using the widest BFS
    level gives a realistic mid-traversal snapshot.

    Level-synchronous and vectorised, but with the discovery order of a
    sequential queue BFS: each level's neighbours are gathered in CSR
    order, and an undiscovered vertex joins the next level at its first
    occurrence there.
    """
    row, col = graph.row_offsets, graph.col_indices
    depth = np.full(graph.num_nodes, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    best = frontier
    level = 0
    while len(frontier):
        if len(frontier) > len(best):
            best = frontier
        starts = row[frontier]
        lengths = row[frontier + 1] - starts
        # Edge positions of every frontier vertex, concatenated in order.
        run_starts = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        neighbours = col[run_starts + np.arange(run_starts.size, dtype=np.int64)]
        fresh = neighbours[depth[neighbours] < 0]
        _, first = np.unique(fresh, return_index=True)
        frontier = fresh[np.sort(first)]
        depth[frontier] = level + 1
        level += 1
    return best, depth


# -- Table 2 profiles ----------------------------------------------------------

# name -> (builder, kwargs). Sizes scale with the scaled cache hierarchy
# so working set >> LLC (see DESIGN.md).
GRAPH_PROFILES: Dict[str, Dict] = {
    "KR": {"kind": "rmat", "n": 1 << 15, "avg_degree": 16, "a": 0.57, "seed": 11},
    "LJN": {"kind": "rmat", "n": 1 << 13, "avg_degree": 14, "a": 0.57, "seed": 12},
    "ORK": {"kind": "rmat", "n": 1 << 12, "avg_degree": 32, "a": 0.55, "seed": 13},
    "TW": {"kind": "rmat", "n": 1 << 14, "avg_degree": 24, "a": 0.65, "seed": 14},
    "UR": {"kind": "uniform", "n": 1 << 15, "avg_degree": 8, "seed": 15},
}


def make_graph(profile: str, seed: Optional[int] = None) -> Graph:
    """Build one of the named Table 2 stand-in inputs."""
    try:
        spec = dict(GRAPH_PROFILES[profile])
    except KeyError:
        raise WorkloadError(
            f"unknown graph profile {profile!r}; choose from {sorted(GRAPH_PROFILES)}"
        ) from None
    kind = spec.pop("kind")
    if seed is not None:
        spec["seed"] = seed
    if kind == "rmat":
        b = c = (1.0 - spec.pop("a")) / 3.0
        graph = rmat_graph(
            spec["n"], spec["avg_degree"], seed=spec["seed"], a=1.0 - 3 * b, b=b, c=c
        )
    else:
        graph = uniform_random_graph(spec["n"], spec["avg_degree"], seed=spec["seed"])
    graph.name = profile
    graph.validate()
    return graph
