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
from itertools import chain

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
        return np.bincount(_edge_index(self).ravel(), minlength=self.n).astype(np.int64, copy=False)


def _edge_index(g: Graph) -> np.ndarray:
    """The edges as a (q, 2) int64 array of 0-based node indices."""
    return np.fromiter(chain.from_iterable(g.edges), np.int64, 2 * g.q).reshape(g.q, 2) - 1


def _labels(values) -> np.ndarray:
    """Node labels as an int64 array, or as Python ints in an object array
    when one is beyond int64, which the range check then rejects."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _pairs(u, v: np.ndarray) -> np.ndarray:
    """The (m, 2) array of (u, v) pairs of a label array v and labels u, an
    array like v or one label for every pair."""
    e = np.empty((v.size, 2), dtype=np.int64)
    e[:, 0] = u
    e[:, 1] = v
    return e


def check_node_count(n) -> None:
    """Reject a node count that is not a positive integer or exceeds
    MAX_NODES."""
    if not isinstance(n, (int, np.integer)) or n <= 0:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the limit of {MAX_NODES}")


def from_edge_list(n: int, pairs) -> Graph:
    """Build a Graph from 1-based (u, v) pairs, a sequence of pairs or an
    (m, 2) array.

    Rejects self-loops, out-of-range labels and node counts that
    check_node_count rejects, naming the first edge that fails; duplicate
    edges (in either orientation) are merged silently.
    """
    check_node_count(n)
    e = _labels(pairs)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    bad = (lo == hi) | (lo < 1) | (hi > n)
    if bad.any():
        u, v = e[bad.argmax()].tolist()
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) is not allowed")
        raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
    return Graph(n=int(n), edges=frozenset(zip(lo.tolist(), hi.tolist())))


def gen_path(n: int) -> Graph:
    """Path 1-2-...-n."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    check_node_count(n)
    return from_edge_list(n, _pairs(np.arange(1, n), np.arange(2, n + 1)))


def gen_star(n: int) -> Graph:
    """Star with hub 1 joined to 2..n."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    check_node_count(n)
    return from_edge_list(n, _pairs(1, np.arange(2, n + 1)))


def gen_cycle(n: int) -> Graph:
    """Cycle: path 1..n closed by the edge (1, n)."""
    if n < 2:
        raise ValueError("cycle needs n >= 2")
    check_node_count(n)
    u = np.arange(1, n + 1)
    return from_edge_list(n, _pairs(u, u % n + 1))


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
    # Node v > 1 hangs from v - 1 on the handle (v <= path_len), else from path_len.
    v = np.arange(2, n + 1)
    return from_edge_list(n, _pairs(np.minimum(v - 1, path_len), v))


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


def laplacian(g: Graph) -> np.ndarray:
    """L = Z - A as a read-only int64 n x n matrix: degrees on the diagonal,
    -1 per edge; every row sums to 0 exactly (integer arithmetic).  Entry
    [i, j] belongs to node pair (i+1, j+1)."""
    index = _edge_index(g)
    m = np.zeros((g.n, g.n), dtype=np.int64)
    m[index[:, 0], index[:, 1]] = m[index[:, 1], index[:, 0]] = -1
    m.flat[:: g.n + 1] = np.bincount(index.ravel(), minlength=g.n)
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
    are ignored; the first data line must be the 'n <count>' header.  A
    malformed line, a count or a label that is not an integer included, is
    a ValueError naming the line."""
    n = None
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <count>', got {raw.strip()!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: expected header 'n <count>' with an integer count, got {raw.strip()!r}"
                ) from None
            check_node_count(n)
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            labels += map(int, tokens)
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer labels 'u v', got {raw.strip()!r}") from None
    if n is None:
        raise ValueError("empty edge list: missing 'n <count>' header")
    return from_edge_list(n, _labels(labels).reshape(-1, 2))


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
