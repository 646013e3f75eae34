import json

import numpy as np
import pytest

from ctwalk.analysis import EfficiencyReport
from ctwalk.serialize import (
    fmt_number,
    format_numbers,
    matrix_to_csv,
    matrix_to_json,
    report_to_json,
    report_to_text,
    render_series,
)
from ctwalk.transport import ProbabilityMatrix, TransportSeries


def _report(equipartition_time=30.61):
    return EfficiencyReport(
        label="a",
        n=10,
        q=9,
        symmetry_degree=0,
        chi_bar=0.14,
        chi_bar_lb=0.1,
        classical_slope=-0.44677984918532637,
        quantum_slope=-0.9084401191140842,
        classical_asymptote=0.1,
        equipartition_time=equipartition_time,
        verdict="quantum_more_efficient",
    )


class TestNumbers:
    def test_fifteen_significant_digits(self):
        assert fmt_number(0.1) == "0.1"
        assert fmt_number(1.0) == "1"
        assert fmt_number(1 / 3) == "0.333333333333333"

    def test_clamp_within_slack(self):
        ser = TransportSeries(
            "quantum_pair", np.array([0.0, 1.0, 2.0]), np.array([-5e-10, 0.5, 1.0 + 5e-10])
        )
        assert _csv(ser) == "t,value\n0,0\n1,0.5\n2,1\n"
        m = ProbabilityMatrix(2, np.array([[1.0 + 5e-10, -5e-10], [-5e-10, 1.0]]), "lta")
        assert matrix_to_csv(m) == "1,0\n0,1\n"

    def test_clamp_rejects_real_excursions(self):
        with pytest.raises(ValueError, match="escape"):
            TransportSeries("quantum_pair", np.array([0.0, 1.0]), np.array([0.0, 1.5]))
        with pytest.raises(ValueError, match="escape"):
            ProbabilityMatrix(2, np.array([[1.0, -1e-6], [0.0, 1.0]]), "lta")


EDGE_VALUES = [0.0, 1.0, -0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, 1 / 3, 2.5e-7, 123456789012345.6,
               -0.28, -1e-12, -3.0000000000000004, np.nextafter(1.0, 0.0), 1e-300, 1e300]


def _csv(ser, approx=None):
    return render_series("csv", ser.quantity, format_numbers(ser.times), ser.values, approx)


def _json(ser, approx=None):
    return render_series("json", ser.quantity, format_numbers(ser.times), ser.values, approx)


def _fstring_csv(header, *columns):
    rows = [",".join(f"{x:.15g}" for x in row) for row in zip(*columns)]
    return "\n".join([header] + rows) + "\n"


class TestOneShotFormatter:
    def test_edge_values_match_fstring(self):
        assert format_numbers(np.array(EDGE_VALUES)) == [f"{x:.15g}" for x in EDGE_VALUES]
        assert [fmt_number(x) for x in EDGE_VALUES] == [f"{x:.15g}" for x in EDGE_VALUES]

    def test_random_magnitudes_match_fstring(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, size=2000)
        assert format_numbers(values) == [f"{x:.15g}" for x in values]

    def test_empty_and_table_shapes(self):
        assert format_numbers(np.array([])) == []
        table = np.array([[0.5, 1e-5], [1 / 3, 0.0]])
        assert format_numbers(table) == ["0.5", "1e-05", "0.333333333333333", "0"]

    def test_csv_with_approx_matches_fstring(self):
        ts = np.linspace(0.0, 1.5, len(EDGE_VALUES))
        values = np.clip(np.abs(np.array(EDGE_VALUES)), 0.0, 1.0)
        approx = np.array(EDGE_VALUES) - 0.5
        ser = TransportSeries("alpha_bar_sq", ts, values)
        apx = TransportSeries("approx_alpha_bar_sq", ts, approx)
        assert _csv(ser) == _fstring_csv("t,value", ts, values)
        assert _csv(ser, apx.values) == _fstring_csv("t,value,approx", ts, values, approx)
        assert _csv(apx) == _fstring_csv("t,value", ts, approx)

    def test_shared_time_column(self):
        ts = np.linspace(0.0, 3.0, 31)
        text = format_numbers(ts)
        for values in (np.cos(ts) ** 2, np.sin(ts) ** 2):
            csv = render_series("csv", "quantum_pair", text, values)
            assert csv == _fstring_csv("t,value", ts, values)
            obj = json.loads(render_series("json", "quantum_pair", text, values))
            assert obj["times"] == [float(f"{t:.15g}") for t in ts]
            assert obj["values"] == [float(f"{x:.15g}") for x in values]

    def test_render_validation(self):
        with pytest.raises(ValueError, match="time column"):
            render_series("csv", "quantum_pair", ["0", "1"], np.array([0.5]))
        with pytest.raises(ValueError, match="fmt"):
            render_series("xml", "quantum_pair", ["0"], np.array([0.5]))

    def test_json_values_are_rounded_floats(self):
        values = np.array([0.1 + 0.2, 1 / 3, 1e-5])
        ser = TransportSeries("alpha_bar_sq", np.arange(3.0), values)
        obj = json.loads(_json(ser))
        assert obj["values"] == [float(f"{x:.15g}") for x in values]

    def test_matrix_csv_matches_fstring(self):
        rng = np.random.default_rng(3)
        entries = rng.random((5, 5))
        m = ProbabilityMatrix(5, entries, "lta")
        assert matrix_to_csv(m) == "".join(
            ",".join(f"{x:.15g}" for x in row) + "\n" for row in entries
        )


class TestSeriesExport:
    def test_csv_layout(self):
        ser = TransportSeries("alpha_bar_sq", np.array([0.0, 0.5]), np.array([1.0, 0.25]))
        assert _csv(ser) == "t,value\n0,1\n0.5,0.25\n"

    def test_csv_clamps_probability_tags(self):
        ser = TransportSeries("alpha_bar_sq", np.array([0.0]), np.array([1.0 + 5e-10]))
        assert _csv(ser) == "t,value\n0,1\n"

    def test_csv_keeps_approx_unclamped(self):
        ser = TransportSeries("approx_alpha_bar_sq", np.array([0.0]), np.array([-0.28]))
        assert _csv(ser) == "t,value\n0,-0.28\n"

    def test_csv_with_approx_column(self):
        ts = np.array([0.0, 1.0])
        ser = TransportSeries("alpha_bar_sq", ts, np.array([1.0, 0.5]))
        approx = TransportSeries("approx_alpha_bar_sq", ts, np.array([0.96, 0.4]))
        out = _csv(ser, approx.values)
        assert out.splitlines()[0] == "t,value,approx"
        assert out.splitlines()[1] == "0,1,0.96"

    def test_json_roundtrip(self):
        ts = np.array([0.0, 1.0])
        ser = TransportSeries("alpha_bar_sq", ts, np.array([1.0, 0.5]))
        approx = TransportSeries("approx_alpha_bar_sq", ts, np.array([0.96, 0.4]))
        obj = json.loads(_json(ser, approx.values))
        assert obj["quantity"] == "alpha_bar_sq"
        assert obj["times"] == [0.0, 1.0]
        assert obj["values"] == [1.0, 0.5]
        assert obj["approx"] == [0.96, 0.4]


class TestMatrixExport:
    def test_csv_layout(self):
        m = ProbabilityMatrix(2, np.array([[0.5, 0.5], [0.5, 0.5]]), "lta")
        assert matrix_to_csv(m) == "0.5,0.5\n0.5,0.5\n"

    def test_json_carries_labels_and_tag(self):
        m = ProbabilityMatrix(2, np.eye(2), "quantum_transition", time=0.0)
        obj = json.loads(matrix_to_json(m))
        assert obj["quantity"] == "quantum_transition"
        assert obj["labels"] == [1, 2]
        assert obj["time"] == 0.0
        assert obj["entries"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_lta_time_is_null(self):
        m = ProbabilityMatrix(2, np.eye(2), "lta")
        assert json.loads(matrix_to_json(m))["time"] is None


class TestReportExport:
    def test_json_fields(self):
        obj = json.loads(report_to_json(_report()))
        assert obj["verdict"] == "quantum_more_efficient"
        assert obj["chi_bar_lb"] == 0.1
        assert obj["equipartition_time"] == 30.61
        assert set(obj) == {
            "label",
            "n",
            "q",
            "symmetry_degree",
            "chi_bar",
            "chi_bar_lb",
            "classical_slope",
            "quantum_slope",
            "classical_asymptote",
            "equipartition_time",
            "verdict",
        }

    def test_unreached_equipartition(self):
        obj = json.loads(report_to_json(_report(equipartition_time=None)))
        assert obj["equipartition_time"] is None
        assert "not reached" in report_to_text(_report(equipartition_time=None))

    def test_text_table_alignment(self):
        text = report_to_text(_report())
        lines = text.splitlines()
        assert len(lines) == 11
        assert all("  " in line for line in lines)
        assert lines[-1].startswith("verdict")

    def test_deterministic_bytes(self):
        assert report_to_json(_report()) == report_to_json(_report())
