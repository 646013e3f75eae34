from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from ctwalk import transport
from ctwalk.analysis import running_time_average
from ctwalk.graphs import MAX_NODES, from_edge_list, gen_broom, gen_cycle, gen_path, gen_star, laplacian
from ctwalk.spectral import eigendecompose, nearest_class
from ctwalk.transport import (
    DEFAULT_GRID,
    MAX_GRID_POINTS,
    MAX_TABLE_ENTRIES,
    PAIR_QUANTITIES,
    PHASE_KINDS,
    QUANTITIES,
    ProbabilityMatrix,
    TimeGrid,
    TransportSeries,
    chi_bar,
    check_table_size,
    chi_bar_lb,
    class_phases,
    from_phases,
    lta_matrix,
    series,
)

from oracles import approx_difference_form, expm_oracle, propagator, transition_matrix

# Classical propagator entry e^{-L}[0, 4] for the ten-node path, frozen from
# an independent scipy.linalg.expm evaluation.
P10_CLASSICAL_1_5_AT_1 = 0.008195126480625892


def _read(s, quantity, t, j=1):
    """from_phases on the class phase table of the quantity's kind at t: row
    k-1 of start node j for a pair quantity, row 0 for an average."""
    return from_phases(s, quantity, class_phases(s, t, PHASE_KINDS[quantity]), j)


def _transitions(s, quantity, t):
    """The pair tables of every start node at one time t: column j-1 holds
    the probabilities from start node j."""
    return np.column_stack([_read(s, quantity, t, j) for j in range(1, s.n + 1)])


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(1, 1000), st.integers(1, 10_000),
           st.sampled_from([10, 100, 1000]))
    @example(2, 3, 166, 100)  # 0.02:5:0.03
    @example(0, 3, 57, 10)  # 0:17.1:0.3
    def test_on_grid_stop_is_last_point(self, a, b, k, scale):
        # Decimal bounds, as typed on the command line: stop is k steps past
        # start, but rounds apart from start + step * k.
        grid = TimeGrid(a / scale, (a + k * b) / scale, b / scale)
        ts = grid.times()
        assert grid.size == ts.size == k + 1
        assert ts[-1] == grid.stop

    @pytest.mark.parametrize("args", [
        (-1, 1, 0.1), (0, 0, 0.1), (1, 0.5, 0.1), (0, 1, 0),
        # Quotients too large to round to an int: rejected, not overflowed.
        (0, 1e308, 0.5), (1e308, 1.7e308, 1e-5), (0, 1e300, 1e-8),
    ])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            TimeGrid(*args)

    def test_point_limit(self):
        assert TimeGrid(0, MAX_GRID_POINTS - 1, 1).size == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="limit"):
            TimeGrid(0, MAX_GRID_POINTS, 1)
        with pytest.raises(ValueError, match="limit"):
            TimeGrid(0, 1e15, 0.01)
        # The message states the limit, not a point count of 301 digits.
        with pytest.raises(ValueError, match=f"^grid has more points than the limit of {MAX_GRID_POINTS}$"):
            TimeGrid(0, 1e300, 1e-8)

    def test_table_limit(self):
        # Checked on sizes alone: the largest graph on the default grid fits,
        # both as a pair table and as MAX_NODES simple classes; a 300-node
        # pair table on a 999,901-point grid (4.8 GB of cosines and sines)
        # does not, while star:300's 3-class tables on that grid, the Gram
        # form of quantum_avg_return among them, do.
        largest = SimpleNamespace(n=MAX_NODES, class_values=np.zeros(MAX_NODES))
        check_table_size(largest, ("quantum_pair",), DEFAULT_GRID)
        check_table_size(largest, ("alpha_bar_sq",), DEFAULT_GRID)
        long_grid = TimeGrid(0, 9999, 0.01)
        for graph in (gen_path(300), gen_star(300)):
            s = eigendecompose(laplacian(graph))
            for quantity in PAIR_QUANTITIES:
                with pytest.raises(
                    ValueError, match=f"300 x 999901 table .* limit of {MAX_TABLE_ENTRIES}"
                ):
                    check_table_size(s, ("alpha_bar_sq", quantity), long_grid)
        star = eigendecompose(laplacian(gen_star(300)))
        check_table_size(
            star, [q for q in QUANTITIES if q not in PAIR_QUANTITIES], long_grid
        )

    def test_series_table_limit(self, monkeypatch):
        # star:24 has 3 classes: 303 class entries on 101 points, 2424 in a
        # pair table, one row per target node.  Every series reads a class
        # table, quantum_avg_return included.
        monkeypatch.setattr(transport, "MAX_TABLE_ENTRIES", 1000)
        s, grid = eigendecompose(laplacian(gen_star(24))), TimeGrid(0, 1, 0.01)
        with pytest.raises(ValueError, match="24 x 101 table has 2424 entries"):
            check_table_size(s, ("quantum_pair",), grid)
        for quantity in ("classical_avg_return", "quantum_avg_return", "alpha_bar_sq", "approx_alpha_bar_sq"):
            assert series(s, grid, quantity).values.shape == (101,)
        monkeypatch.setattr(transport, "MAX_TABLE_ENTRIES", 302)
        with pytest.raises(ValueError, match="3 x 101 table has 303 entries"):
            series(s, grid, "quantum_avg_return")

    @pytest.mark.parametrize("quantity", ["classical_avg_return", "quantum_avg_return", "alpha_bar_sq",
                                          "approx_alpha_bar_sq"])
    def test_overflowing_phase_angle(self, quantity):
        # path:3 has eigenvalues 0, 1 and 3: the angle 3t overflows at the
        # last time 1.7e308, while 3e307 on the second grid is finite.  The
        # grid is rejected before any phase is evaluated, with no warning
        # (which pytest makes an error here).
        s = eigendecompose(laplacian(gen_path(3)))
        with pytest.raises(ValueError, match=r"^the phase angle E\*t overflows at time 1\.7e\+308 "
                                             r"and eigenvalue 3; use an earlier time grid$"):
            series(s, TimeGrid(1e308, 1.7e308, 1e307), quantity)
        assert np.isfinite(series(s, TimeGrid(1e306, 1e307, 1e306), quantity).values).all()

    @pytest.mark.parametrize(
        "args", [(0, np.inf, 1), (0, np.nan, 1), (np.nan, 1, 0.1), (0, 1, np.inf)]
    )
    def test_non_finite_bounds(self, args):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(*args)


class TestPairwise:
    def test_k2_classical_closed_form(self, k2_spectrum):
        for t in (0.0, 0.3, 1.0, 5.0):
            assert _read(k2_spectrum, "classical_pair", t)[0] == pytest.approx(
                0.5 * (1 + np.exp(-2 * t)), abs=1e-12
            )

    def test_k2_classical_equipartition(self, k2_spectrum):
        assert _read(k2_spectrum, "classical_pair", 50.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_classical_rejects_negative_time(self, k2_spectrum):
        with pytest.raises(ValueError, match="t >= 0"):
            class_phases(k2_spectrum, -0.1, "classical")

    def test_classical_matches_series_expansion_oracle(self):
        s = eigendecompose(laplacian(gen_path(10)))
        value = _read(s, "classical_pair", 1.0, j=5)[0]
        oracle = expm_oracle(laplacian(gen_path(10)), 1.0, "classical")[0, 4]
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(P10_CLASSICAL_1_5_AT_1, abs=1e-10)

    def test_k2_quantum_amplitude(self, k2_spectrum):
        for t in (0.0, 0.4, 1.7):
            amp = propagator(k2_spectrum, t, "quantum")[0, 0]
            assert amp == pytest.approx(0.5 * (1 + np.exp(-2j * t)), abs=1e-12)

    def test_amplitude_identity_at_zero(self, family_spectra):
        for s in family_spectra.values():
            assert propagator(s, 0.0, "quantum")[2, 2] == pytest.approx(1 + 0j, abs=1e-12)

    def test_time_reversal_conjugation(self, family_spectra):
        s = family_spectra["b"]
        rng = np.random.default_rng(2)
        for t in rng.uniform(0, 20, size=10):
            assert propagator(s, -t, "quantum")[1, 6] == pytest.approx(
                np.conj(propagator(s, t, "quantum")[1, 6]), abs=1e-12
            )

    def test_k2_quantum_prob_cosine(self, k2_spectrum):
        at_half_pi = _read(k2_spectrum, "quantum_pair", np.pi / 2)
        assert at_half_pi[0] == pytest.approx(0.0, abs=1e-12)
        assert at_half_pi[1] == pytest.approx(1.0, abs=1e-12)
        ts = np.linspace(0, 3, 7)
        assert np.allclose(_read(k2_spectrum, "quantum_pair", ts)[0], np.cos(ts) ** 2, atol=1e-12)

    def test_unitarity_per_start_node(self, family_spectra):
        s = family_spectra["c"]
        for t in (0.1, 1.0, 10.0):
            assert _read(s, "quantum_pair", t, j=4).sum() == pytest.approx(1.0, abs=1e-9)

    def test_pair_symmetry(self, family_spectra):
        s = family_spectra["d"]
        for k, j in ((1, 2), (3, 9), (5, 10)):
            for t in (0.5, 2.0, 17.3):
                forward = _read(s, "quantum_pair", t, j=j)[k - 1]
                assert abs(forward - _read(s, "quantum_pair", t, j=k)[j - 1]) <= 1e-10

    def test_label_validation(self, k2_spectrum):
        phases = class_phases(k2_spectrum, 1.0, "classical")
        for j in (0, 3):
            with pytest.raises(ValueError, match="j must be"):
                from_phases(k2_spectrum, "classical_pair", phases, j)


PAIR_GRAPHS = {
    "path": gen_path(9),
    "star": gen_star(8),
    "cycle": gen_cycle(7),
    "broom": gen_broom(4, 5),
}
SAMPLE_TIMES = np.array([0.0, 0.25, 1.0, 3.7, 12.0])


def _check_pair_table(g, j):
    """The all-targets table against the oracle's transition columns, which
    sum over raw eigenvalues rather than classes (1e-13), the expm oracle at
    SAMPLE_TIMES (1e-10), and conservation over targets."""
    s = eigendecompose(laplacian(g))
    ts = np.linspace(0.0, 20.0, 201)
    for quantity, kind in (("classical_pair", "classical"), ("quantum_pair", "quantum")):
        table = _read(s, quantity, ts, j)
        assert table.shape == (g.n, ts.size)
        for col, t in enumerate(ts):
            column = transition_matrix(s, t, kind)[:, j - 1]
            assert np.max(np.abs(table[:, col] - column)) <= 1e-13
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-12
        sampled = _read(s, quantity, SAMPLE_TIMES, j)
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

    def test_validation(self, k2_spectrum):
        with pytest.raises(ValueError, match="j must be"):
            _read(k2_spectrum, "quantum_pair", [0.0], 3)
        with pytest.raises(ValueError, match="t >= 0"):
            _read(k2_spectrum, "classical_pair", [-1.0])
        with pytest.raises(ValueError, match="kind must be"):
            class_phases(k2_spectrum, [0.0], "thermal")


class TestSharedPhases:
    def test_one_table_per_kind_reads_every_quantity(self, family_spectra):
        # Every quantity read from the one table of its kind, against the
        # propagator at each time: its columns for pairs, its diagonal and
        # trace for the averages; the approximation against its difference
        # form.
        s, ts = family_spectra["d"], np.linspace(0.0, 20.0, 41)
        tables = {kind: class_phases(s, ts, kind) for kind in ("classical", "quantum")}
        shared = {q: from_phases(s, q, tables[kind], 4) for q, kind in PHASE_KINDS.items()}
        approx = approx_difference_form(s, nearest_class(s, 1.0), ts)
        for col, t in enumerate(ts):
            p, u = propagator(s, t, "classical"), propagator(s, t, "quantum")
            expected = {
                "classical_pair": p[:, 3],
                "quantum_pair": np.abs(u[:, 3]) ** 2,
                "classical_avg_return": np.trace(p) / s.n,
                "quantum_avg_return": np.mean(np.abs(np.diag(u)) ** 2),
                "alpha_bar_sq": np.abs(np.trace(u) / s.n) ** 2,
                "approx_alpha_bar_sq": approx[col],
            }
            for quantity, table in shared.items():
                assert np.max(np.abs(table[:, col] - expected[quantity])) <= 1e-13

    def test_quantum_table_layout(self, family_spectra):
        # [cos, sin] of the very angles np.multiply.outer gives; a 0-d t
        # drops the time axis.
        s, ts = family_spectra["c"], DEFAULT_GRID.times()
        angles = np.multiply.outer(s.class_values, ts)
        table = class_phases(s, ts, "quantum")
        assert table.shape == (2, s.class_values.size, ts.size)
        assert np.array_equal(table[0], np.cos(angles))
        assert np.array_equal(table[1], np.sin(angles))
        point = class_phases(s, 2.5, "quantum")
        angles = np.multiply.outer(s.class_values, 2.5)
        assert point.shape == (2, s.class_values.size)
        assert np.array_equal(point, [np.cos(angles), np.sin(angles)])

    def test_validation(self, k2_spectrum):
        phases = class_phases(k2_spectrum, [0.0, 1.0], "quantum")
        with pytest.raises(ValueError, match="from_phases needs"):
            from_phases(k2_spectrum, "lta", phases, 1)
        with pytest.raises(ValueError, match="j must be"):
            from_phases(k2_spectrum, "quantum_pair", phases, 3)
        with pytest.raises(ValueError, match="t >= 0"):
            class_phases(k2_spectrum, [-1.0], "classical")


class TestTransitionMatrix:
    def test_identity_at_zero(self, family_spectra):
        s = family_spectra["a"]
        for quantity in PAIR_QUANTITIES:
            assert np.max(np.abs(_transitions(s, quantity, 0.0) - np.eye(s.n))) <= 1e-12

    def test_classical_equipartition_long_time(self, family_spectra):
        m = _transitions(family_spectra["a"], "classical_pair", 1e3)
        assert np.max(np.abs(m - 0.1)) <= 1e-6

    def test_star_hub_return_dominates(self, family_spectra):
        assert _transitions(family_spectra["e"], "quantum_pair", 5.0)[0, 0] > 0.5

    def test_column_sums(self, family_spectra):
        for s in family_spectra.values():
            for t in (0.1, 1.0, 10.0, 100.0):
                for quantity in PAIR_QUANTITIES:
                    m = _transitions(s, quantity, t)
                    assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-9
                    if quantity == "classical_pair":
                        assert np.min(m) >= -1e-12


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
            ser = TransportSeries("quantum_pair", ts, _read(s, "quantum_pair", ts, j)[k - 1])
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
            for quantity in ("classical_avg_return", "quantum_avg_return", "alpha_bar_sq"):
                assert _read(s, quantity, 0.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_star_hand_value(self, family_spectra):
        expected = (1 + 8 * np.exp(-1.0) + np.exp(-10.0)) / 10.0
        value = _read(family_spectra["e"], "classical_avg_return", 1.0)[0]
        assert value == pytest.approx(expected, abs=1e-12)

    def test_classical_strictly_decreasing(self, family_spectra):
        # strict while the decay is resolvable in doubles, non-increasing after
        for s in family_spectra.values():
            early = _read(s, "classical_avg_return", TimeGrid(0.0, 20.0, 0.1).times())[0]
            assert np.all(np.diff(early) < 0)
            late = _read(s, "classical_avg_return", TimeGrid(20.0, 100.0, 0.5).times())[0]
            assert np.all(np.diff(late) <= 1e-15)  # ulp jitter at the 1/N floor

    def test_classical_rejects_negative_time(self, k2_spectrum):
        with pytest.raises(ValueError):
            _read(k2_spectrum, "classical_avg_return", -1.0)

    def test_k2_quantum_cosine(self, k2_spectrum):
        ts = np.linspace(0, 5, 11)
        for quantity in ("quantum_avg_return", "alpha_bar_sq"):
            assert np.allclose(_read(k2_spectrum, quantity, ts)[0], np.cos(ts) ** 2, atol=1e-12)

    def test_lower_bound_ordering(self, family_spectra):
        rng = np.random.default_rng(9)
        ts = rng.uniform(0, 100, size=500)
        for s in family_spectra.values():
            gap = _read(s, "quantum_avg_return", ts)[0] - _read(s, "alpha_bar_sq", ts)[0]
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
        assert s.class_sizes[nearest_class(s, 1.0)] == 8
        assert _read(s, "approx_alpha_bar_sq", 0.0)[0] == pytest.approx(0.96, abs=1e-12)

    def test_star_tracks_exact_curve(self, family_spectra):
        s = family_spectra["e"]
        ts = TimeGrid(0.0, 50.0, 0.01).times()
        exact = _read(s, "alpha_bar_sq", ts)[0]
        approx = _read(s, "approx_alpha_bar_sq", ts)[0]
        deviation = np.abs(approx - exact)
        assert float(deviation.max()) <= 0.05

    def test_weakly_symmetric_network_deviates_more(self, family_spectra):
        ts = TimeGrid(0.0, 50.0, 0.01).times()
        devs = {}
        for label in ("b", "e"):
            s = family_spectra[label]
            exact = _read(s, "alpha_bar_sq", ts)[0]
            approx = _read(s, "approx_alpha_bar_sq", ts)[0]
            devs[label] = float(np.abs(approx - exact).max())
        assert devs["b"] > devs["e"]


class TestSeries:
    def test_k2_quantum_pair_on_half_pi_grid(self, k2_spectrum):
        ts = TimeGrid(0.0, np.pi, np.pi / 2).times()
        values = _read(k2_spectrum, "quantum_pair", ts)[0]
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
            with pytest.raises(ValueError, match="from_phases"):
                series(k2_spectrum, grid, quantity)
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
            ProbabilityMatrix(2, np.array([[1.5, 0.0], [0.0, 1.0]]))


class TestValueTypes:
    def test_equality_is_identity(self, k2_spectrum):
        # The array-holding value types compare and hash by identity, since
        # an element-wise == on their arrays has no truth value.
        s = k2_spectrum
        r = eigendecompose(laplacian(from_edge_list(2, [(1, 2)])))
        ser = series(s, TimeGrid(0.0, 1.0, 0.5), "alpha_bar_sq")
        m = lta_matrix(s)
        assert s == s and s in [r, s] and hash(s) == hash(s)
        assert s != r and s not in [r]
        assert ser == ser and ser != series(s, TimeGrid(0.0, 1.0, 0.5), "alpha_bar_sq")
        assert m == m and m != lta_matrix(r) and hash(m) == hash(m)


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
