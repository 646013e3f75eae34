import numpy as np
import pytest

from ctwalk.analysis import (
    decay_slope,
    efficiency_report,
    equipartition_time,
    running_time_average,
    verdict,
)
from ctwalk.graphs import from_edge_list, gen_family
from ctwalk.transport import TimeGrid, TransportSeries, series


def _series(times, values, quantity="classical_avg_return"):
    return TransportSeries(quantity, np.asarray(times, float), np.asarray(values, float))


class TestDecaySlope:
    def test_exact_power_law(self):
        ts = TimeGrid(1.0, 10.0, 0.05).times()
        ser = _series(ts, 1.0 / ts)
        assert decay_slope(ser, (1.0, 10.0)) == pytest.approx(-1.0, abs=1e-9)
        assert decay_slope(ser, (2.0, 6.0)) == pytest.approx(-1.0, abs=1e-9)

    def test_exact_half_power(self):
        ts = TimeGrid(0.5, 20.0, 0.01).times()
        ser = _series(ts, 0.3 * ts**-0.5)
        assert decay_slope(ser, (1.0, 10.0)) == pytest.approx(-0.5, abs=1e-9)

    def test_constant_series(self):
        ts = TimeGrid(1.0, 5.0, 0.1).times()
        ser = _series(ts, np.full_like(ts, 0.25))
        assert decay_slope(ser, (1.0, 5.0)) == pytest.approx(0.0, abs=1e-9)

    def test_path10_classical_near_half(self, family_spectra):
        ser = series(family_spectra["a"], TimeGrid(0.0, 50.0, 0.01), "classical_avg_return")
        assert decay_slope(ser, (0.5, 5.0)) == pytest.approx(-0.5, abs=0.2)

    def test_rejects_nonpositive_values(self):
        ts = TimeGrid(1.0, 5.0, 0.1).times()
        values = np.full_like(ts, 0.5)
        values[10] = 0.0
        with pytest.raises(ValueError, match="positive"):
            decay_slope(_series(ts, values), (1.0, 5.0))

    def test_rejects_sparse_window(self):
        ts = TimeGrid(1.0, 10.0, 1.0).times()
        with pytest.raises(ValueError, match="10 samples"):
            decay_slope(_series(ts, 1.0 / ts), (1.0, 4.0))

    def test_rejects_window_outside_range(self):
        ts = TimeGrid(1.0, 5.0, 0.1).times()
        ser = _series(ts, 1.0 / ts)
        with pytest.raises(ValueError, match="within the series"):
            decay_slope(ser, (0.5, 4.0))
        with pytest.raises(ValueError, match="within the series"):
            decay_slope(ser, (1.0, 6.0))

    def test_rejects_degenerate_window(self):
        ts = TimeGrid(1.0, 5.0, 0.1).times()
        ser = _series(ts, 1.0 / ts)
        with pytest.raises(ValueError, match="t > 0"):
            decay_slope(ser, (0.0, 2.0))
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            decay_slope(ser, (3.0, 2.0))


class TestRunningTimeAverage:
    def test_constant_is_fixed_point(self):
        ts = TimeGrid(0.0, 10.0, 0.1).times()
        ser = _series(ts, np.full_like(ts, 0.7))
        assert np.allclose(running_time_average(ser).values, 0.7, atol=1e-12)

    def test_cosine_averages_out(self):
        ts = TimeGrid(0.0, 1e3, 0.01).times()
        ser = _series(ts, np.cos(ts), quantity="approx_alpha_bar_sq")
        assert abs(running_time_average(ser).values[-1]) <= 2e-3

    def test_bounded_by_series_range(self):
        rng = np.random.default_rng(21)
        ts = TimeGrid(0.0, 5.0, 0.05).times()
        values = rng.uniform(0.2, 0.9, size=ts.shape)
        avg = running_time_average(_series(ts, values)).values
        assert avg.min() >= values.min() - 1e-12
        assert avg.max() <= values.max() + 1e-12

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="2 points"):
            running_time_average(_series([0.0], [1.0]))


class TestEquipartitionTime:
    def test_constant_at_target(self):
        ts = TimeGrid(0.0, 1.0, 0.1).times()
        ser = _series(ts, np.full_like(ts, 0.1))
        assert equipartition_time(ser, 0.1, 0.005) == 0.0
        # 1 is the classical asymptote of a one-node graph
        ser = _series(ts, np.ones_like(ts))
        assert equipartition_time(ser, 1.0, 0.005) == 0.0

    def test_never_reached(self):
        ts = TimeGrid(0.0, 1.0, 0.1).times()
        ser = _series(ts, np.full_like(ts, 0.5))
        assert equipartition_time(ser, 0.1, 0.005) is None

    def test_star_classical_order_of_magnitude(self, family_spectra):
        ser = series(family_spectra["e"], TimeGrid(0.0, 50.0, 0.01), "classical_avg_return")
        t_eq = equipartition_time(ser, 0.1, 0.005)
        assert 3.0 <= t_eq <= 12.0

    def test_validation(self):
        ts = TimeGrid(0.0, 1.0, 0.1).times()
        ser = _series(ts, np.full_like(ts, 0.5))
        with pytest.raises(ValueError, match="target"):
            equipartition_time(ser, 1.5, 0.01)
        with pytest.raises(ValueError, match="band"):
            equipartition_time(ser, 0.1, 0.0)


class TestVerdict:
    def test_high_bound_is_classical(self):
        assert verdict(0.5, 10, 0.02, -0.5, -1.0) == "classical_more_efficient"

    def test_tie_at_margin_is_classical(self):
        assert verdict(0.12, 10, 0.02, -0.5, -1.0) == "classical_more_efficient"

    def test_low_bound_with_steeper_quantum_decay(self):
        assert verdict(0.10, 10, 0.02, -0.5, -1.0) == "quantum_more_efficient"

    def test_low_bound_without_steeper_decay(self):
        assert verdict(0.10, 10, 0.02, -1.0, -0.5) == "indeterminate"


class TestEfficiencyReport:
    def test_path_network(self):
        report = efficiency_report(gen_family("a"), label="a")
        assert report.verdict == "quantum_more_efficient"
        assert report.symmetry_degree == 0
        assert report.chi_bar_lb == pytest.approx(0.10, abs=1e-12)
        assert report.chi_bar == pytest.approx(0.14, abs=1e-12)
        assert report.classical_asymptote == 0.1
        assert report.chi_bar >= report.chi_bar_lb
        assert 25.0 <= report.equipartition_time <= 40.0
        assert report.n == 10 and report.q == 9

    def test_star_network(self):
        report = efficiency_report(gen_family("e"), label="e")
        assert report.verdict == "classical_more_efficient"
        assert report.symmetry_degree == 8
        assert report.chi_bar_lb == pytest.approx(0.66, abs=1e-12)

    def test_default_label(self):
        report = efficiency_report(gen_family("b"))
        assert report.label == "graph(n=10, q=9)"

    def test_rejects_disconnected(self):
        g = from_edge_list(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="connected"):
            efficiency_report(g)
