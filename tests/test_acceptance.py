"""Acceptance gate: each test checks one release criterion at a fixed
tolerance and prints one pass line (run with -s or -rA to see them; a failed
criterion surfaces as an ordinary pytest failure)."""

import dataclasses
import heapq

import numpy as np
import pytest

from ctwalk.analysis import decay_slope, efficiency_report, running_time_average
from ctwalk.graphs import FAMILY_LABELS, from_edge_list, gen_star, laplacian
from ctwalk.spectral import eigendecompose, symmetry_degree
from ctwalk.transport import (
    PAIR_QUANTITIES,
    PHASE_KINDS,
    TimeGrid,
    chi_bar,
    chi_bar_lb,
    class_phases,
    from_phases,
    lta_matrix,
    series,
)

from oracles import expm_oracle

LB_TABLE = {"a": 0.10, "b": 0.12, "c": 0.22, "d": 0.40, "e": 0.66}


def _average(s, quantity, t):
    """An average-return quantity at the time(s) t, read from its class phases."""
    return from_phases(s, quantity, class_phases(s, t, PHASE_KINDS[quantity]), 1)[0]


def _transitions(s, quantity, t):
    """The pair tables of every start node at one time t, read from one class
    phase table: column j-1 holds the probabilities from start node j."""
    phases = class_phases(s, t, PHASE_KINDS[quantity])
    return np.column_stack([from_phases(s, quantity, phases, j) for j in range(1, s.n + 1)])


def _passed(num, text):
    print(f"criterion {num:02d} ({text}): PASS")


def _random_tree(rng, n):
    """Uniform random labeled tree via Pruefer decoding; always connected."""
    if n == 2:
        return from_edge_list(2, [(1, 2)])
    prufer = rng.integers(1, n + 1, size=n - 2)
    degree = np.ones(n + 1, dtype=int)
    degree[0] = 0
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return from_edge_list(n, edges)


def test_criterion_01_exact_asymptote_table(family_spectra):
    for label, expected in LB_TABLE.items():
        assert abs(chi_bar_lb(family_spectra[label]) - expected) <= 1e-12, label
    _passed(1, "chi_bar_lb = 0.10/0.12/0.22/0.40/0.66 across a-e, tol 1e-12")


def test_criterion_02_star_spectrum():
    s = eigendecompose(laplacian(gen_star(10)), deg_tol=1e-8)
    target = np.array([0.0] + [1.0] * 8 + [10.0])
    assert np.max(np.abs(s.eigenvalues - target)) <= 1e-9
    assert s.class_sizes.tolist() == [1, 8, 1]
    _passed(2, "star spectrum {0, 1x8, 10} within 1e-9, multiplicities (1,8,1)")


def test_criterion_03_symmetry_degree_ladder(family_spectra):
    ladder = [symmetry_degree(family_spectra[label]) for label in FAMILY_LABELS]
    assert ladder == [0, 2, 4, 6, 8]
    _passed(3, "symmetry degree ladder (0,2,4,6,8)")


def test_criterion_04_lta_convergence_of_lower_bound(family_spectra):
    grid = TimeGrid(0.0, 1e3, 0.01)
    for label, s in family_spectra.items():
        tail = running_time_average(series(s, grid, "alpha_bar_sq")).values[-1]
        assert abs(tail - chi_bar_lb(s)) <= 5e-3, label
    _passed(4, "running average of |alpha-bar|^2 over [0,1e3] ends within 5e-3 of chi_bar_lb")


def test_criterion_05_classical_equipartition(family_spectra):
    for label, s in family_spectra.items():
        assert abs(_average(s, "classical_avg_return", 1e3) - 0.1) <= 1e-6, label
    _passed(5, "classical average return at t=1e3 within 1e-6 of 1/N")


def test_criterion_06_bound_ordering(family_spectra):
    rng = np.random.default_rng(42)
    for label, s in family_spectra.items():
        ts = rng.uniform(0.0, 100.0, size=10_000)
        gap = _average(s, "quantum_avg_return", ts) - _average(s, "alpha_bar_sq", ts)
        assert float(gap.min()) >= -1e-10, label
        assert chi_bar(s) >= chi_bar_lb(s) - 1e-12, label
    _passed(6, "pi-bar >= |alpha-bar|^2 on 1e4 random times; chi_bar >= chi_bar_lb")


def test_criterion_07_decay_exponents(family_spectra):
    grid = TimeGrid(0.0, 50.0, 0.01)
    window = (0.5, 5.0)
    s = family_spectra["a"]
    classical_slope = decay_slope(series(s, grid, "classical_avg_return"), window)
    quantum_slope = decay_slope(series(s, grid, "alpha_bar_sq"), window)
    assert -0.7 <= classical_slope <= -0.3
    assert -1.3 <= quantum_slope <= -0.7
    _passed(7, "network a decay slopes: classical ~ t^-1/2, quantum bound ~ t^-1")


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = _random_tree(rng, n)
        m = laplacian(g)
        s = eigendecompose(m)
        for t in (0.3, 1.7, 4.0):
            for quantity in PAIR_QUANTITIES:
                kind = PHASE_KINDS[quantity]
                u = expm_oracle(m, t, kind)
                oracle = u if kind == "classical" else np.abs(u) ** 2
                gap = np.max(np.abs(_transitions(s, quantity, t) - oracle))
                assert gap <= 1e-8, (n, t, kind)
    _passed(8, "pair tables match series-expansion oracle on 50 random trees")


def test_criterion_09_conservation_suite(family_spectra):
    for label, s in family_spectra.items():
        for t in (0.1, 1.0, 10.0, 100.0):
            for quantity in PAIR_QUANTITIES:
                m = _transitions(s, quantity, t)
                assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-9, (label, t, quantity)
        chi = lta_matrix(s).entries
        assert np.max(np.abs(chi.sum(axis=1) - 1.0)) <= 1e-9, label
        assert np.max(np.abs(chi - chi.T)) <= 1e-10, label
    _passed(9, "pair-table columns and chi rows sum to 1; chi symmetric")


def test_criterion_10_efficiency_verdicts(family_graphs):
    verdicts = {
        label: efficiency_report(g, label=label).verdict for label, g in family_graphs.items()
    }
    assert verdicts["a"] == "quantum_more_efficient"
    for label in "bcde":
        assert verdicts[label] == "classical_more_efficient", label
    _passed(10, "verdicts: a quantum-efficient, b-e classical-efficient")


def test_criterion_11_degenerate_basis_invariance(family_spectra):
    s = family_spectra["e"]
    c = np.flatnonzero(np.abs(s.class_values - 1.0) <= s.deg_tol)[0]
    start, multiplicity = int(s.class_starts[c]), int(s.class_sizes[c])
    assert multiplicity == 8
    rng = np.random.default_rng(7)
    rotation, _ = np.linalg.qr(rng.normal(size=(multiplicity, multiplicity)))
    vectors = s.eigenvectors.copy()
    members = list(range(start, start + multiplicity))
    vectors[:, members] = vectors[:, members] @ rotation
    rotated = dataclasses.replace(s, eigenvectors=vectors)
    assert np.max(np.abs(rotated.eigenvectors.T @ rotated.eigenvectors - np.eye(s.n))) <= 1e-12

    assert abs(chi_bar(rotated) - chi_bar(s)) < 1e-9
    assert np.max(np.abs(lta_matrix(rotated).entries - lta_matrix(s).entries)) < 1e-9
    ts = rng.uniform(0.0, 100.0, size=200)
    returns = [_average(x, "quantum_avg_return", ts) for x in (rotated, s)]
    gap = np.abs(returns[0] - returns[1])
    assert float(gap.max()) < 1e-9
    _passed(11, "rotating the degenerate eigenbasis leaves chi_bar, chi matrix, pi-bar fixed")
