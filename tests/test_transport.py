import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from ctwalk.analysis import running_time_average
from ctwalk.graphs import from_edge_list, gen_broom, gen_cycle, gen_path, gen_star, laplacian
from ctwalk.spectral import eigendecompose, nearest_class
from ctwalk.transport import (
    MAX_GRID_POINTS,
    ProbabilityMatrix,
    TimeGrid,
    TransportSeries,
    alpha_bar_sq,
    approx_alpha_bar_sq,
    avg_return_classical,
    avg_return_quantum,
    chi_bar,
    chi_bar_lb,
    classical_prob,
    lta_matrix,
    pair_kernel,
    pair_table,
    propagator,
    quantum_amplitude,
    quantum_prob,
    series,
    transition_matrix,
)

from oracles import expm_oracle

# Classical propagator entry e^{-L}[0, 4] for the ten-node path, frozen from
# an independent scipy.linalg.expm evaluation.
P10_CLASSICAL_1_5_AT_1 = 0.008195126480625892


class TestTimeGrid:
    def test_point_count_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            start = float(rng.uniform(0, 3))
            stop = start + float(rng.uniform(0.5, 20))
            step = float(rng.uniform(0.01, 0.7))
            ts = TimeGrid(start, stop, step).times()
            assert len(ts) == int(np.floor((stop - start) / step)) + 1
            assert ts[0] == start

    @pytest.mark.parametrize(
        "stop, step, count, last",
        [(0.7, 0.1, 8, 0.7), (0.3, 0.1, 4, 0.3), (1.0, 0.3, 4, 0.9),
         (50.0, 0.01, 5001, 50.0), (50.0, 0.05, 1001, 50.0)],
    )
    def test_stop_point_on_grid_is_included(self, stop, step, count, last):
        ts = TimeGrid(0.0, stop, step).times()
        assert len(ts) == count
        assert ts[-1] == pytest.approx(last, abs=1e-12)

    @pytest.mark.parametrize("args", [(-1, 1, 0.1), (0, 0, 0.1), (1, 0.5, 0.1), (0, 1, 0)])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            TimeGrid(*args)

    def test_point_limit(self):
        assert TimeGrid(0, MAX_GRID_POINTS - 1, 1).size == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="limit"):
            TimeGrid(0, MAX_GRID_POINTS, 1)
        with pytest.raises(ValueError, match="limit"):
            TimeGrid(0, 1e15, 0.01)

    @pytest.mark.parametrize(
        "args", [(0, np.inf, 1), (0, np.nan, 1), (np.nan, 1, 0.1), (0, 1, np.inf)]
    )
    def test_non_finite_bounds(self, args):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(*args)


class TestPairwise:
    def test_k2_classical_closed_form(self, k2_spectrum):
        for t in (0.0, 0.3, 1.0, 5.0):
            assert classical_prob(k2_spectrum, 1, 1, t) == pytest.approx(
                0.5 * (1 + np.exp(-2 * t)), abs=1e-12
            )

    def test_k2_classical_equipartition(self, k2_spectrum):
        assert classical_prob(k2_spectrum, 1, 1, 50.0) == pytest.approx(0.5, abs=1e-12)

    def test_classical_rejects_negative_time(self, k2_spectrum):
        with pytest.raises(ValueError, match="t >= 0"):
            classical_prob(k2_spectrum, 1, 1, -0.1)

    def test_classical_matches_series_expansion_oracle(self):
        s = eigendecompose(laplacian(gen_path(10)))
        value = classical_prob(s, 1, 5, 1.0)
        oracle = expm_oracle(laplacian(gen_path(10)), 1.0, "classical")[0, 4]
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(P10_CLASSICAL_1_5_AT_1, abs=1e-10)

    def test_k2_quantum_amplitude(self, k2_spectrum):
        for t in (0.0, 0.4, 1.7):
            amp = quantum_amplitude(k2_spectrum, 1, 1, t)
            assert amp == pytest.approx(0.5 * (1 + np.exp(-2j * t)), abs=1e-12)

    def test_amplitude_identity_at_zero(self, family_spectra):
        for s in family_spectra.values():
            assert quantum_amplitude(s, 3, 3, 0.0) == pytest.approx(1 + 0j, abs=1e-12)

    def test_time_reversal_conjugation(self, family_spectra):
        s = family_spectra["b"]
        rng = np.random.default_rng(2)
        for t in rng.uniform(0, 20, size=10):
            assert quantum_amplitude(s, 2, 7, -t) == pytest.approx(
                np.conj(quantum_amplitude(s, 2, 7, t)), abs=1e-12
            )

    def test_k2_quantum_prob_cosine(self, k2_spectrum):
        assert quantum_prob(k2_spectrum, 1, 1, np.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert quantum_prob(k2_spectrum, 2, 1, np.pi / 2) == pytest.approx(1.0, abs=1e-12)
        ts = np.linspace(0, 3, 7)
        assert np.allclose(quantum_prob(k2_spectrum, 1, 1, ts), np.cos(ts) ** 2, atol=1e-12)

    def test_unitarity_per_start_node(self, family_spectra):
        s = family_spectra["c"]
        for t in (0.1, 1.0, 10.0):
            total = sum(quantum_prob(s, k, 4, t) for k in range(1, s.n + 1))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_pair_symmetry(self, family_spectra):
        s = family_spectra["d"]
        for k, j in ((1, 2), (3, 9), (5, 10)):
            for t in (0.5, 2.0, 17.3):
                assert abs(quantum_prob(s, k, j, t) - quantum_prob(s, j, k, t)) <= 1e-10

    def test_label_validation(self, k2_spectrum):
        with pytest.raises(ValueError, match="k must be"):
            classical_prob(k2_spectrum, 0, 1, 1.0)
        with pytest.raises(ValueError, match="j must be"):
            quantum_prob(k2_spectrum, 1, 3, 1.0)


PAIR_GRAPHS = {
    "path": gen_path(9),
    "star": gen_star(8),
    "cycle": gen_cycle(7),
    "broom": gen_broom(4, 5),
}
SAMPLE_TIMES = np.array([0.0, 0.25, 1.0, 3.7, 12.0])


def _check_pair_table(g, j):
    """The all-targets table against the per-pair functions (1e-13), the
    expm oracle at SAMPLE_TIMES (1e-10), and conservation over targets."""
    s = eigendecompose(laplacian(g))
    ts = np.linspace(0.0, 20.0, 201)
    for quantity, per_pair, kind in (
        ("classical_pair", classical_prob, "classical"),
        ("quantum_pair", quantum_prob, "quantum"),
    ):
        table = pair_table(s, quantity, j, ts)
        assert table.shape == (g.n, ts.size)
        for k in range(1, g.n + 1):
            assert np.max(np.abs(table[k - 1] - per_pair(s, k, j, ts))) <= 1e-13
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-12
        sampled = pair_table(s, quantity, j, SAMPLE_TIMES)
        for col, t in enumerate(SAMPLE_TIMES):
            u = expm_oracle(laplacian(g), t, kind)[:, j - 1]
            oracle = u.real if kind == "classical" else np.abs(u) ** 2
            assert np.max(np.abs(sampled[:, col] - oracle)) <= 1e-10


class TestPairTable:
    @pytest.mark.parametrize("name", sorted(PAIR_GRAPHS))
    def test_matches_per_pair_and_oracle(self, name):
        g = PAIR_GRAPHS[name]
        for j in (1, g.n // 2, g.n):
            _check_pair_table(g, j)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_tree(self, data):
        n = data.draw(st.integers(2, 30))
        g = from_edge_list(n, [(data.draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)])
        _check_pair_table(g, data.draw(st.integers(1, n)))

    def test_single_row_kernel_is_the_per_pair_function(self, family_spectra):
        # Class weights summed member by member and class values: the per-pair
        # functions read the class partition, not raw eigenvalues.
        s = family_spectra["c"]
        ts = np.linspace(0, 5, 11)
        row = s.eigenvectors[2] * s.eigenvectors[6]
        w = np.array([sum(row[list(c.members)].tolist()) for c in s.classes])
        values = np.array([c.value for c in s.classes])
        assert any(c.multiplicity > 1 for c in s.classes)
        assert np.array_equal(pair_kernel(w, values, ts, "classical"),
                              classical_prob(s, 3, 7, ts))
        assert np.array_equal(pair_kernel(w, values, ts, "quantum"),
                              quantum_amplitude(s, 3, 7, ts))

    def test_validation(self, k2_spectrum):
        with pytest.raises(ValueError, match="pair_table needs"):
            pair_table(k2_spectrum, "alpha_bar_sq", 1, [0.0])
        with pytest.raises(ValueError, match="j must be"):
            pair_table(k2_spectrum, "quantum_pair", 3, [0.0])
        with pytest.raises(ValueError, match="t >= 0"):
            pair_table(k2_spectrum, "classical_pair", 1, [-1.0])
        with pytest.raises(ValueError, match="kind must be"):
            pair_kernel([[1.0, 0.0]], k2_spectrum.eigenvalues, [0.0], "thermal")


class TestTransitionMatrix:
    def test_identity_at_zero(self, family_spectra):
        s = family_spectra["a"]
        for kind in ("classical", "quantum"):
            m = transition_matrix(s, 0.0, kind)
            assert np.max(np.abs(m.entries - np.eye(s.n))) <= 1e-12

    def test_classical_equipartition_long_time(self, family_spectra):
        m = transition_matrix(family_spectra["a"], 1e3, "classical")
        assert np.max(np.abs(m.entries - 0.1)) <= 1e-6

    def test_star_hub_return_dominates(self, family_spectra):
        m = transition_matrix(family_spectra["e"], 5.0, "quantum")
        assert m.entries[0, 0] > 0.5

    def test_column_sums(self, family_spectra):
        for s in family_spectra.values():
            for t in (0.1, 1.0, 10.0, 100.0):
                for kind in ("classical", "quantum"):
                    m = transition_matrix(s, t, kind)
                    assert np.max(np.abs(m.entries.sum(axis=0) - 1.0)) <= 1e-9
                    if kind == "classical":
                        assert np.min(m.entries) >= -1e-12

    def test_bad_kind(self, k2_spectrum):
        with pytest.raises(ValueError, match="kind"):
            transition_matrix(k2_spectrum, 1.0, "semiclassical")


class TestLongTimeAverage:
    def test_k2_pair(self, k2_spectrum):
        assert lta_matrix(k2_spectrum).entries[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_pair_symmetry(self, family_spectra):
        for s in family_spectra.values():
            chi = lta_matrix(s).entries
            for k in range(s.n):
                for j in range(k, s.n):
                    assert abs(chi[k, j] - chi[j, k]) <= 1e-10

    def test_quadrature_oracle(self, k2_spectrum, family_spectra):
        # The defining Cesaro limit, realized numerically, must land on the
        # closed-form class-sum value.
        ts = TimeGrid(0.0, 1e3, 0.01).times()
        for s, k, j in ((k2_spectrum, 1, 1), (family_spectra["e"], 1, 2)):
            ser = TransportSeries("quantum_pair", ts, pair_table(s, "quantum_pair", j, ts)[k - 1])
            tail = running_time_average(ser).values[-1]
            assert tail == pytest.approx(lta_matrix(s).entries[k - 1, j - 1], abs=5e-3)

    def test_k2_matrix(self, k2_spectrum):
        m = lta_matrix(k2_spectrum)
        assert np.max(np.abs(m.entries - 0.5)) <= 1e-12

    def test_matrix_diagonal_and_mean(self, family_spectra):
        s = family_spectra["e"]
        m = lta_matrix(s).entries
        assert np.array_equal(m, m.T)
        # interference peaks: every diagonal beats its row off-diagonals
        for k in range(s.n):
            off = np.delete(m[k], k)
            assert m[k, k] >= off.max()
        assert m[0, 0] == m.diagonal().max()
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-9
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-9
        assert chi_bar(s) == pytest.approx(float(m.diagonal().mean()), abs=1e-14)


class TestAveragedReturn:
    def test_unit_at_zero(self, family_spectra):
        for s in family_spectra.values():
            assert avg_return_classical(s, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert avg_return_quantum(s, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert alpha_bar_sq(s, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_star_hand_value(self, family_spectra):
        expected = (1 + 8 * np.exp(-1.0) + np.exp(-10.0)) / 10.0
        assert avg_return_classical(family_spectra["e"], 1.0) == pytest.approx(expected, abs=1e-12)

    def test_classical_strictly_decreasing(self, family_spectra):
        # strict while the decay is resolvable in doubles, non-increasing after
        for s in family_spectra.values():
            early = avg_return_classical(s, TimeGrid(0.0, 20.0, 0.1).times())
            assert np.all(np.diff(early) < 0)
            late = avg_return_classical(s, TimeGrid(20.0, 100.0, 0.5).times())
            assert np.all(np.diff(late) <= 1e-15)  # ulp jitter at the 1/N floor

    def test_classical_rejects_negative_time(self, k2_spectrum):
        with pytest.raises(ValueError):
            avg_return_classical(k2_spectrum, -1.0)

    def test_k2_quantum_cosine(self, k2_spectrum):
        ts = np.linspace(0, 5, 11)
        assert np.allclose(avg_return_quantum(k2_spectrum, ts), np.cos(ts) ** 2, atol=1e-12)
        assert np.allclose(alpha_bar_sq(k2_spectrum, ts), np.cos(ts) ** 2, atol=1e-12)

    def test_lower_bound_ordering(self, family_spectra):
        rng = np.random.default_rng(9)
        ts = rng.uniform(0, 100, size=500)
        for s in family_spectra.values():
            gap = avg_return_quantum(s, ts) - alpha_bar_sq(s, ts)
            assert float(gap.min()) >= -1e-10


class TestAsymptotics:
    def test_k2_chi_bar(self, k2_spectrum):
        assert chi_bar(k2_spectrum) == pytest.approx(0.5, abs=1e-12)
        assert chi_bar_lb(k2_spectrum) == pytest.approx(0.5, abs=1e-12)

    def test_star_chi_bar_exact(self, family_spectra):
        # hand value: (1/10)[(1/100 + 81/100) + 9*(1/100 + 1/8100 + 6400/8100)]
        assert chi_bar(family_spectra["e"]) == pytest.approx(32490 / 40500, abs=1e-12)

    def test_bound_ordering(self, family_spectra):
        for s in family_spectra.values():
            assert chi_bar(s) >= chi_bar_lb(s) - 1e-12

    def test_chi_bar_quadrature_oracle(self, family_spectra):
        s = family_spectra["a"]
        ser = series(s, TimeGrid(0.0, 1e3, 0.01), "quantum_avg_return")
        tail = running_time_average(ser).values[-1]
        assert tail == pytest.approx(chi_bar(s), abs=5e-3)

    def test_lb_family_table(self, family_spectra):
        expected = {"a": 0.10, "b": 0.12, "c": 0.22, "d": 0.40, "e": 0.66}
        for label, value in expected.items():
            assert abs(chi_bar_lb(family_spectra[label]) - value) <= 1e-12


class TestApproximation:
    def test_star_at_zero(self, family_spectra):
        s = family_spectra["e"]
        l = nearest_class(s, 1.0)
        assert s.classes[l].multiplicity == 8
        assert approx_alpha_bar_sq(s, l, 0.0) == pytest.approx(0.96, abs=1e-12)

    def test_star_tracks_exact_curve(self, family_spectra):
        s = family_spectra["e"]
        ts = TimeGrid(0.0, 50.0, 0.01).times()
        deviation = np.abs(approx_alpha_bar_sq(s, nearest_class(s), ts) - alpha_bar_sq(s, ts))
        assert float(deviation.max()) <= 0.05

    def test_weakly_symmetric_network_deviates_more(self, family_spectra):
        ts = TimeGrid(0.0, 50.0, 0.01).times()
        devs = {}
        for label in ("b", "e"):
            s = family_spectra[label]
            devs[label] = float(
                np.abs(approx_alpha_bar_sq(s, nearest_class(s), ts) - alpha_bar_sq(s, ts)).max()
            )
        assert devs["b"] > devs["e"]

    def test_invalid_class_index(self, k2_spectrum):
        with pytest.raises(ValueError, match="class_index"):
            approx_alpha_bar_sq(k2_spectrum, 5, 1.0)


class TestSeries:
    def test_k2_quantum_pair_on_half_pi_grid(self, k2_spectrum):
        ts = TimeGrid(0.0, np.pi, np.pi / 2).times()
        values = pair_table(k2_spectrum, "quantum_pair", 1, ts)[0]
        assert len(values) == 3
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(0.0, abs=1e-12)
        assert values[2] == pytest.approx(1.0, abs=1e-12)

    def test_first_classical_value_is_one(self, family_spectra):
        for s in family_spectra.values():
            ser = series(s, TimeGrid(0.0, 2.0, 0.25), "classical_avg_return")
            assert ser.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_missing_parameters(self, k2_spectrum):
        grid = TimeGrid(0.0, 1.0, 0.5)
        for quantity in ("classical_pair", "quantum_pair"):
            with pytest.raises(ValueError, match="pair_table"):
                series(k2_spectrum, grid, quantity)
        with pytest.raises(ValueError, match="class_index"):
            series(k2_spectrum, grid, "approx_alpha_bar_sq")
        with pytest.raises(ValueError, match="quantity"):
            series(k2_spectrum, grid, "bogus")

    def test_probability_bounds_enforced(self):
        ts = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="escape"):
            TransportSeries("alpha_bar_sq", ts, np.array([0.5, 1.5]))
        approx = TransportSeries("approx_alpha_bar_sq", ts, np.array([-0.5, 1.5]))
        assert approx.values[0] == -0.5

    def test_matrix_bounds_enforced(self):
        with pytest.raises(ValueError, match="escape"):
            ProbabilityMatrix(2, np.array([[1.5, 0.0], [0.0, 1.0]]), "lta")


class TestExpmOracle:
    def test_identity_at_zero(self):
        m = laplacian(gen_star(4))
        for kind in ("classical", "quantum"):
            assert np.max(np.abs(expm_oracle(m, 0.0, kind) - np.eye(4))) <= 1e-15

    def test_k2_closed_form(self):
        m = laplacian(from_edge_list(2, [(1, 2)]))
        p = expm_oracle(m, 1.0, "classical")
        a, b = 0.5 * (1 + np.exp(-2.0)), 0.5 * (1 - np.exp(-2.0))
        assert np.max(np.abs(p - [[a, b], [b, a]])) <= 1e-12

    def test_quantum_output_unitary(self):
        m = laplacian(gen_path(6))
        u = expm_oracle(m, 3.7, "quantum")
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) <= 1e-9

    def test_against_scipy_on_laplacians(self):
        rng = np.random.default_rng(13)
        for n in (3, 5, 8):
            g = gen_path(n)
            extra = [(int(u) + 1, int(v) + 1) for u, v in rng.integers(0, n, size=(n, 2)) if u != v]
            m = laplacian(from_edge_list(n, list(g.edges) + extra)).astype(float)
            for t in (0.3, 1.7, 4.0):
                assert np.max(np.abs(expm_oracle(m, t, "classical") - scipy_expm(-t * m))) <= 1e-10
                assert np.max(np.abs(expm_oracle(m, t, "quantum") - scipy_expm(-1j * t * m))) <= 1e-10

    def test_against_scipy_on_generic_symmetric(self):
        # indefinite input makes e^{-tA} grow, so compare relative to its scale
        rng = np.random.default_rng(17)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        for t in (0.3, 1.7, 4.0):
            ref = scipy_expm(-t * a)
            gap = np.max(np.abs(expm_oracle(a, t, "classical") - ref))
            assert gap <= 1e-12 * np.max(np.abs(ref))

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            expm_oracle(np.eye(2), 1.0, "fast")

    def test_propagator_matches_oracle(self, family_spectra, family_graphs):
        s = family_spectra["c"]
        m = laplacian(family_graphs["c"])
        for kind in ("classical", "quantum"):
            assert np.max(np.abs(propagator(s, 1.7, kind) - expm_oracle(m, 1.7, kind))) <= 1e-10
