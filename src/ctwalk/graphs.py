"""Undirected graphs, their Laplacian matrices (the walk Hamiltonian is H = L:
uniform hopping rate 1, hbar = 1), and the ten-node benchmark family of
networks interpolating between a path and a star.

Node labels are 1-based at every public boundary (matching the physics
convention); matrix rows/columns are 0-based internally, so node ``i`` maps to
index ``i - 1``.  Matrices are built in exact integer arithmetic; floating
point enters only at eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_LABELS = ("a", "b", "c", "d", "e")

# Largest accepted node count.  The package targets graphs of a few hundred
# nodes and builds dense n x n matrices, so larger inputs are rejected before
# anything of size n is allocated.
MAX_NODES = 4096


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: ``n`` nodes labeled 1..n plus an edge set of
    canonically ordered (min, max) pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    @property
    def q(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degrees(self) -> np.ndarray:
        """Degree of each node, index 0 holding node 1."""
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        return deg


def check_node_count(n) -> None:
    """Reject a node count that is not a positive integer or exceeds
    MAX_NODES."""
    if not isinstance(n, (int, np.integer)) or n <= 0:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the limit of {MAX_NODES}")


def from_edge_list(n: int, pairs) -> Graph:
    """Build a Graph from 1-based (u, v) pairs.

    Rejects self-loops, out-of-range labels and node counts that
    check_node_count rejects; duplicate edges (in either orientation) are
    merged silently.
    """
    check_node_count(n)
    edges = set()
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) is not allowed")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
        edges.add((min(u, v), max(u, v)))
    return Graph(n=int(n), edges=frozenset(edges))


def gen_path(n: int) -> Graph:
    """Path 1-2-...-n."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    check_node_count(n)
    return from_edge_list(n, [(i, i + 1) for i in range(1, n)])


def gen_star(n: int) -> Graph:
    """Star with hub 1 joined to 2..n."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    check_node_count(n)
    return from_edge_list(n, [(1, i) for i in range(2, n + 1)])


def gen_cycle(n: int) -> Graph:
    """Cycle: path 1..n closed by the edge (1, n)."""
    if n < 2:
        raise ValueError("cycle needs n >= 2")
    check_node_count(n)
    return from_edge_list(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def gen_broom(path_len: int, leaf_count: int) -> Graph:
    """Broom B(p, k): path 1..p with k pendant leaves attached to node p.

    Total nodes p + k, edges p + k - 1.  The k leaves contribute Laplacian
    eigenvalue 1 with multiplicity at least k - 1 (leaf-difference modes);
    some handle lengths add one more accidental unit eigenvector.
    """
    if path_len < 1:
        raise ValueError("broom needs path_len >= 1")
    if leaf_count < 0:
        raise ValueError("broom needs leaf_count >= 0")
    n = path_len + leaf_count
    check_node_count(n)
    pairs = [(i, i + 1) for i in range(1, path_len)]
    pairs += [(path_len, path_len + j) for j in range(1, leaf_count + 1)]
    return from_edge_list(n, pairs)


def gen_family(label: str) -> Graph:
    """One of the five benchmark networks a..e (10 nodes, 9 edges each).

    a: path of 10 (no degenerate eigenvalues)
    b: broom B(7,3); eigenvalue 1 with multiplicity 2
    c: forked broom (handle 1-2-3-4, leaves 5-8 on node 4 and 9-10 on
       node 3); eigenvalue 1 with multiplicity 4.  (A plain B(5,5) broom
       carries an accidental fifth unit eigenvector, so it cannot realize
       multiplicity 4; this is the closest broom-like tree that does.)
    d: broom B(3,7); eigenvalue 1 with multiplicity 6
    e: star of 10; eigenvalue 1 with multiplicity 8
    """
    if label == "a":
        return gen_path(10)
    if label == "b":
        return gen_broom(7, 3)
    if label == "c":
        return from_edge_list(
            10,
            [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (4, 8), (3, 9), (3, 10)],
        )
    if label == "d":
        return gen_broom(3, 7)
    if label == "e":
        return gen_star(10)
    raise ValueError(f"unknown family label {label!r}; expected one of {FAMILY_LABELS}")


def adjacency(g: Graph) -> np.ndarray:
    """Read-only int64 n x n 0/1 matrix; entry [i, j] belongs to node pair
    (i+1, j+1)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u - 1, v - 1] = 1
        a[v - 1, u - 1] = 1
    a.setflags(write=False)
    return a


def laplacian(g: Graph) -> np.ndarray:
    """L = Z - A as a read-only int64 n x n matrix: degrees on the diagonal,
    -1 per edge; every row sums to 0 exactly (integer arithmetic)."""
    m = -adjacency(g)
    m[np.diag_indices(g.n)] = g.degrees()
    m.setflags(write=False)
    return m


def is_connected(g: Graph) -> bool:
    """True iff a traversal from node 1 reaches every node."""
    nbrs: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def format_edge_list(g: Graph) -> str:
    """Edge-list text: a 'n <count>' header line, then one '1-based u v' pair
    per line, sorted."""
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Inverse of format_edge_list.  Blank lines and lines starting with '#'
    are ignored; the first data line must be the 'n <count>' header."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <count>', got {line!r}")
            n = int(tokens[1])
            check_node_count(n)
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        pairs.append((int(tokens[0]), int(tokens[1])))
    if n is None:
        raise ValueError("empty edge list: missing 'n <count>' header")
    return from_edge_list(n, pairs)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
