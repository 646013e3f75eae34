"""Seeded job lists for the three benchmark workloads.

A workload is one round of `ctwalk` CLI jobs plus the edge-list input files
those jobs read.  The seed picks the contents of the inputs (random tree
shapes, start nodes, job order, check sample times) but never their sizes, so
the work in a round is the same for every seed and timings from different
seeds are comparable.

Every graph is also described here by its own edge list, built by this
module and not by `ctwalk.graphs`, so the output checks have an independent
source for the Laplacian.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_TIMES = (0.0, 50.0, 0.01)
COARSE_TIMES = (0.0, 50.0, 0.05)
FAMILY_QUANTITIES = "classical_avg_return,quantum_avg_return,alpha_bar_sq,approx_alpha_bar_sq"
PAIR_QUANTITIES = "classical_pair,quantum_pair"

# Paper table: multiplicity of eigenvalue 1 and the saturation bound chi_bar_lb.
FAMILY_SYMMETRY = {"a": 0, "b": 2, "c": 4, "d": 6, "e": 8}
FAMILY_CHI_BAR_LB = {"a": 0.10, "b": 0.12, "c": 0.22, "d": 0.40, "e": 0.66}
FAMILY_VERDICT = {
    "a": "quantum_more_efficient",
    "b": "classical_more_efficient",
    "c": "classical_more_efficient",
    "d": "classical_more_efficient",
    "e": "classical_more_efficient",
}

# Sizes are fixed per workload; only the shapes of the random trees and the
# start nodes come from the seed.
PAIR_GRAPHS = (("path", 24), ("star", 40), ("cycle", 32), ("broom", (20, 12)), ("tree", 28))
SCALE_GRAPHS = (("path", 48), ("star", 64), ("cycle", 56), ("broom", (24, 24)), ("tree", 40))

WORKLOADS = ("family_study", "pair_sweep", "spectrum_scale")


@dataclass(frozen=True)
class GraphSpec:
    """A graph as the benchmark knows it: how the CLI is told about it and
    the edge list the checks rebuild it from."""

    key: str
    kind: str
    n: int
    edges: tuple[tuple[int, int], ...]
    cli_source: str  # generator spec, or "{inputs}/<file>" for an edge-list input


@dataclass(frozen=True)
class Job:
    """One CLI call.  `argv` may name `{inputs}` (the run's input directory)
    and `{round}` (the current round's directory); `--out` is appended."""

    id: str
    argv: tuple[str, ...]
    check: str
    graph: GraphSpec
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    inputs: dict  # file name -> edge-list text
    sample_seed: int


def path_edges(n):
    return tuple((i, i + 1) for i in range(1, n))


def star_edges(n):
    return tuple((1, i) for i in range(2, n + 1))


def cycle_edges(n):
    return path_edges(n) + ((1, n),)


def broom_edges(p, k):
    return path_edges(p) + tuple((p, p + i) for i in range(1, k + 1))


def family_edges(label):
    """The paper's ten-node networks: path, broom B(7,3), forked broom,
    broom B(3,7), star."""
    return {
        "a": path_edges(10),
        "b": broom_edges(7, 3),
        "c": ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (4, 8), (3, 9), (3, 10)),
        "d": broom_edges(3, 7),
        "e": star_edges(10),
    }[label]


def random_tree_edges(n, rng):
    """Uniform random labelled tree on 1..n from a Pruefer sequence."""
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = next(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(1, n + 1) if degree[x] == 1)
    edges.append((u, w))
    return tuple(sorted(edges))


def edge_list_text(n, edges):
    return "\n".join([f"n {n}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def _times_arg(times):
    return ":".join(f"{x:g}" for x in times)


def _graph(kind, size, rng, inputs, tag):
    if kind == "tree":
        n = size
        edges = random_tree_edges(n, rng)
        name = f"{tag}_tree_{n}.edges"
        inputs[name] = edge_list_text(n, edges)
        return GraphSpec(f"tree{n}", "tree", n, edges, "{inputs}/" + name)
    if kind == "broom":
        p, k = size
        return GraphSpec(f"broom{p}_{k}", kind, p + k, broom_edges(p, k), f"broom:{p}:{k}")
    build = {"path": path_edges, "star": star_edges, "cycle": cycle_edges}[kind]
    return GraphSpec(f"{kind}{size}", kind, size, build(size), f"{kind}:{size}")


def _family_study(rng):
    labels = list(FAMILY_SYMMETRY)
    rng.shuffle(labels)
    jobs = []
    for label in labels:
        g = GraphSpec(f"family_{label}", "family", 10, family_edges(label), f"family:{label}")
        params = {"label": label, "times": DEFAULT_TIMES}
        gen_id = f"{label}.gen"
        edges_file = "{round}/" + gen_id + f"/family_{label}.edges"
        jobs += [
            Job(gen_id, ("gen", "--graph", g.cli_source), "family_gen", g, params),
            Job(f"{label}.evolve_csv",
                ("evolve", "--graph", g.cli_source, "--quantities", FAMILY_QUANTITIES),
                "family_evolve", g, {**params, "fmt": "csv"}),
            Job(f"{label}.evolve_json",
                ("evolve", "--graph", edges_file, "--quantities", FAMILY_QUANTITIES,
                 "--format", "json"),
                "family_evolve", g, {**params, "fmt": "json", "same_as": f"{label}.evolve_csv"}),
            Job(f"{label}.lta", ("lta", "--graph", g.cli_source, "--format", "json"),
                "lta", g, {**params, "fmt": "json"}),
            Job(f"{label}.report", ("report", "--graph", g.cli_source),
                "report", g, {**params, "lta": f"{label}.lta"}),
        ]
    return jobs, {}


def _pair_sweep(rng):
    inputs = {}
    jobs = []
    for kind, size in PAIR_GRAPHS:
        g = _graph(kind, size, rng, inputs, "pair")
        j = rng.randint(1, g.n)
        jobs.append(Job(
            f"{g.key}.pairs",
            ("evolve", "--graph", g.cli_source, "--quantities", PAIR_QUANTITIES,
             "--start-node", str(j)),
            "pairs", g, {"j": j, "times": DEFAULT_TIMES},
        ))
    return jobs, inputs


def _spectrum_scale(rng):
    inputs = {}
    jobs = []
    for kind, size in SCALE_GRAPHS:
        g = _graph(kind, size, rng, inputs, "scale")
        jobs += [
            Job(f"{g.key}.lta", ("lta", "--graph", g.cli_source), "lta", g, {"fmt": "csv"}),
            Job(f"{g.key}.report",
                ("report", "--graph", g.cli_source, "--times", _times_arg(COARSE_TIMES)),
                "report", g, {"lta": f"{g.key}.lta", "times": COARSE_TIMES}),
        ]
    return jobs, inputs


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    jobs, inputs = {"family_study": _family_study, "pair_sweep": _pair_sweep,
                    "spectrum_scale": _spectrum_scale}[name](rng)
    return Workload(name, tuple(jobs), inputs, rng.getrandbits(32))
