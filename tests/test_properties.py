"""Physical invariants on random trees and random connected graphs (n <= 40).

LAPACK returns an arbitrary orthonormal basis inside each degenerate
eigenvalue class, so every quantity must depend on the class projectors
only: re-mixing a class's eigenvectors by a random orthogonal matrix must
not move it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctwalk.graphs import from_edge_list, gen_broom, gen_star, laplacian
from ctwalk.spectral import Spectrum, eigendecompose, nearest_class, symmetry_degree
from ctwalk.transport import (
    PHASE_KINDS,
    chi_bar,
    chi_bar_lb,
    class_phases,
    from_phases,
    lta_matrix,
)

from oracles import approx_difference_form, propagator, unit_multiplicity

TIMES = np.array([0.0, 0.3, 1.7, 4.0, 25.0])


def _read(s, quantity, j=1):
    """from_phases at TIMES: the pair table of start node j, or one average row."""
    return from_phases(s, quantity, class_phases(s, TIMES, PHASE_KINDS[quantity]), j)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def connected_graphs(draw, extra_edges=True, max_n=40):
    """A random tree (node v joins a drawn parent < v) of at most max_n
    nodes, plus drawn extra edges when extra_edges is set; always
    connected."""
    n = draw(st.integers(2, max_n))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if extra_edges:
        node = st.integers(1, n)
        extra = draw(st.lists(st.tuples(node, node), max_size=n))
        pairs += [(u, v) for u, v in extra if u != v]
    return from_edge_list(n, pairs)


graphs = st.one_of(connected_graphs(extra_edges=False), connected_graphs())

# Up to 8 sample times in [0, 50], the span of the default grid.
sample_times = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8).map(np.array)


def _remix(s: Spectrum, seed: int) -> Spectrum:
    """The same spectrum with each degenerate class's eigenvectors rotated
    by a random orthogonal matrix."""
    rng = np.random.default_rng(seed)
    vectors = s.eigenvectors.copy()
    for start, multiplicity in zip(s.class_starts.tolist(), s.class_sizes.tolist()):
        if multiplicity > 1:
            rotation, _ = np.linalg.qr(rng.normal(size=(multiplicity, multiplicity)))
            members = list(range(start, start + multiplicity))
            vectors[:, members] = vectors[:, members] @ rotation
    return dataclasses.replace(s, eigenvectors=vectors)


@PROPERTY_SETTINGS
@given(graphs, st.integers(0, 2**32 - 1))
def test_degenerate_basis_remix_changes_nothing(g, seed):
    s = eigendecompose(laplacian(g))
    r = _remix(s, seed)
    assert np.max(np.abs(lta_matrix(r).entries - lta_matrix(s).entries)) <= 1e-9
    assert abs(chi_bar(r) - chi_bar(s)) <= 1e-9
    for quantity in ("classical_pair", "quantum_pair"):
        assert np.max(np.abs(_read(r, quantity) - _read(s, quantity))) <= 1e-9


@PROPERTY_SETTINGS
@given(graphs)
def test_chi_bar_above_lower_bound(g):
    s = eigendecompose(laplacian(g))
    chi = lta_matrix(s).entries
    assert np.max(np.abs(chi - chi.T)) <= 1e-12
    assert chi_bar(s) >= chi_bar_lb(s) - 1e-12


@PROPERTY_SETTINGS
@given(graphs)
def test_transition_columns_sum_to_one(g):
    s = eigendecompose(laplacian(g))
    # Column j of the transition matrix is the pair table of start node j.
    for quantity in ("classical_pair", "quantum_pair"):
        for j in range(1, s.n + 1):
            assert np.max(np.abs(_read(s, quantity, j).sum(axis=0) - 1.0)) <= 1e-9


@PROPERTY_SETTINGS
@given(graphs)
def test_return_series_read_one_partition(g):
    # Pair series and the average returns sum the same class weights, so the
    # mean return of the pair tables is the average return.
    s = eigendecompose(laplacian(g))
    for quantity, average in (
        ("classical_pair", "classical_avg_return"),
        ("quantum_pair", "quantum_avg_return"),
    ):
        returns = [_read(s, quantity, j)[j - 1] for j in range(1, s.n + 1)]
        assert np.max(np.abs(np.mean(returns, axis=0) - _read(s, average)[0])) <= 1e-13
    assert np.all(_read(s, "quantum_avg_return")[0] >= _read(s, "alpha_bar_sq")[0] - 1e-15)


@PROPERTY_SETTINGS
@given(graphs, sample_times)
def test_gram_return_matches_propagator(g, ts):
    # pi-bar(t) from the C x C Gram form is the node mean of the squared
    # diagonal of e^{-iLt}, and never below its lower bound |alpha-bar(t)|^2.
    s = eigendecompose(laplacian(g))
    phases = class_phases(s, ts, "quantum")
    pi_bar = from_phases(s, "quantum_avg_return", phases, 1)[0]
    for col, t in enumerate(ts):
        diagonal = np.diag(propagator(s, t, "quantum"))
        assert abs(pi_bar[col] - np.mean(np.abs(diagonal) ** 2)) <= 1e-12
    assert np.all(pi_bar >= from_phases(s, "alpha_bar_sq", phases, 1)[0] - 1e-15)


@PROPERTY_SETTINGS
@given(graphs, sample_times)
def test_approximation_matches_difference_form(g, ts):
    # The approximation read from the quantum table's products agrees with
    # one cosine per class difference for t <= 50, around the class nearest
    # eigenvalue 1.
    s = eigendecompose(laplacian(g))
    approx = from_phases(s, "approx_alpha_bar_sq", class_phases(s, ts, "quantum"), 1)[0]
    assert np.max(np.abs(approx - approx_difference_form(s, nearest_class(s, 1.0), ts))) <= 1e-12


@PROPERTY_SETTINGS
@given(graphs)
def test_class_sizes_match_class_starts(g):
    # The partition's member counts cover 0..n-1 and each class starts
    # where the one before it ends.
    s = eigendecompose(laplacian(g))
    assert s.class_sizes.sum() == s.n and (s.class_sizes > 0).all()
    assert np.array_equal(s.class_sizes, np.diff(np.append(s.class_starts, s.n)))


@PROPERTY_SETTINGS
@given(connected_graphs(extra_edges=False, max_n=60))
def test_symmetry_degree_is_exact_multiplicity(g):
    # D_l is the multiplicity of eigenvalue 1 when it is degenerate, and 0
    # for a simple or absent eigenvalue 1.
    multiplicity = unit_multiplicity(laplacian(g))
    assert symmetry_degree(eigendecompose(laplacian(g))) == (multiplicity if multiplicity > 1 else 0)


@pytest.mark.parametrize("n", [3, 4, 10, 40, 64])
def test_star_unit_multiplicity(n):
    assert unit_multiplicity(laplacian(gen_star(n))) == n - 2


@pytest.mark.parametrize("p, k", [(1, 2), (2, 3), (5, 5), (20, 12), (24, 24), (7, 1)])
def test_broom_unit_multiplicity(p, k):
    multiplicity = unit_multiplicity(laplacian(gen_broom(p, k)))
    assert multiplicity >= k - 1
    assert symmetry_degree(eigendecompose(laplacian(gen_broom(p, k)))) == (multiplicity if multiplicity > 1 else 0)
