"""Physical invariants on random trees and random connected graphs (n <= 40).

LAPACK returns an arbitrary orthonormal basis inside each degenerate
eigenvalue class, so every quantity must depend on the class projectors
only: re-mixing a class's eigenvectors by a random orthogonal matrix must
not move it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctwalk.graphs import from_edge_list, laplacian
from ctwalk.spectral import Spectrum, eigendecompose
from ctwalk.transport import (
    alpha_bar_sq,
    avg_return_classical,
    avg_return_quantum,
    chi_bar,
    chi_bar_lb,
    classical_prob,
    lta_matrix,
    pair_table,
    quantum_prob,
    transition_matrix,
)

TIMES = np.array([0.0, 0.3, 1.7, 4.0, 25.0])

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def connected_graphs(draw, extra_edges=True):
    """A random tree (node v joins a drawn parent < v), plus drawn extra
    edges when extra_edges is set; always connected."""
    n = draw(st.integers(2, 40))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if extra_edges:
        node = st.integers(1, n)
        extra = draw(st.lists(st.tuples(node, node), max_size=n))
        pairs += [(u, v) for u, v in extra if u != v]
    return from_edge_list(n, pairs)


graphs = st.one_of(connected_graphs(extra_edges=False), connected_graphs())


def _remix(s: Spectrum, seed: int) -> Spectrum:
    """The same spectrum with each degenerate class's eigenvectors rotated
    by a random orthogonal matrix."""
    rng = np.random.default_rng(seed)
    vectors = s.eigenvectors.copy()
    for cls in s.classes:
        if cls.multiplicity > 1:
            rotation, _ = np.linalg.qr(rng.normal(size=(cls.multiplicity, cls.multiplicity)))
            members = list(cls.members)
            vectors[:, members] = vectors[:, members] @ rotation
    return Spectrum(
        n=s.n, eigenvalues=s.eigenvalues, eigenvectors=vectors, classes=s.classes, deg_tol=s.deg_tol
    )


@PROPERTY_SETTINGS
@given(graphs, st.integers(0, 2**32 - 1))
def test_degenerate_basis_remix_changes_nothing(g, seed):
    s = eigendecompose(laplacian(g))
    r = _remix(s, seed)
    assert np.max(np.abs(lta_matrix(r).entries - lta_matrix(s).entries)) <= 1e-9
    assert abs(chi_bar(r) - chi_bar(s)) <= 1e-9
    for k in range(1, s.n + 1):
        for prob in (classical_prob, quantum_prob):
            assert np.max(np.abs(prob(r, k, 1, TIMES) - prob(s, k, 1, TIMES))) <= 1e-9


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
    for t in TIMES:
        for kind in ("classical", "quantum"):
            sums = transition_matrix(s, t, kind).entries.sum(axis=0)
            assert np.max(np.abs(sums - 1.0)) <= 1e-9


@PROPERTY_SETTINGS
@given(graphs)
def test_return_series_read_one_partition(g):
    # Pair series and the average-return functions sum the same class
    # weights, so the mean return of the pair tables is the average return.
    s = eigendecompose(laplacian(g))
    for quantity, average in (
        ("classical_pair", avg_return_classical),
        ("quantum_pair", avg_return_quantum),
    ):
        returns = [pair_table(s, quantity, j, TIMES)[j - 1] for j in range(1, s.n + 1)]
        assert np.max(np.abs(np.mean(returns, axis=0) - average(s, TIMES))) <= 1e-13
    assert np.all(avg_return_quantum(s, TIMES) >= alpha_bar_sq(s, TIMES) - 1e-15)
