import json
from dataclasses import asdict

import numpy as np
import pytest

from ctwalk import serialize
from ctwalk.analysis import EfficiencyReport
from ctwalk.graphs import gen_path, laplacian
from ctwalk.spectral import eigendecompose
from ctwalk.serialize import (
    TimeColumn,
    matrix_to_csv,
    matrix_to_json,
    report_to_json,
    report_to_text,
    render_series,
)
from ctwalk.transport import PHASE_KINDS, ProbabilityMatrix, TransportSeries, class_phases, from_phases
from oracles import formatter_texts


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
        assert formatter_texts([0.1, 1.0, 1 / 3]) == ["0.1", "1", "0.333333333333333"]

    def test_clamp_within_slack(self):
        ser = TransportSeries(
            "quantum_pair", np.array([0.0, 1.0, 2.0]), np.array([-5e-10, 0.5, 1.0 + 5e-10])
        )
        assert _csv(ser) == b"t,value\n0,0\n1,0.5\n2,1\n"
        m = ProbabilityMatrix(2, np.array([[1.0 + 5e-10, -5e-10], [-5e-10, 1.0]]))
        assert matrix_to_csv(m) == b"1,0\n0,1\n"

    def test_clamp_rejects_real_excursions(self):
        with pytest.raises(ValueError, match="escape"):
            TransportSeries("quantum_pair", np.array([0.0, 1.0]), np.array([0.0, 1.5]))
        with pytest.raises(ValueError, match="escape"):
            ProbabilityMatrix(2, np.array([[1.0, -1e-6], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            TransportSeries("alpha_bar_sq", np.array([0.0, 1.0]), np.array([bad, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            ProbabilityMatrix(2, np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_non_finite_pair_table_rejected(self):
        s = eigendecompose(laplacian(gen_path(3)))
        for quantity in ("classical_pair", "quantum_pair"):
            with pytest.raises(ValueError, match="non-finite"):
                from_phases(s, quantity, class_phases(s, [0.0, np.nan], PHASE_KINDS[quantity]), 1)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_columns_rejected(self, fmt, bad):
        times = TimeColumn([0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            render_series(fmt, "alpha_bar_sq", times, np.array([[1.0, 0.5]]), np.array([0.9, bad]))
        with pytest.raises(ValueError, match="finite"):
            render_series(fmt, "approx_alpha_bar_sq", times, np.array([[bad, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            render_series(fmt, "quantum_pair", times, np.array([[0.5, 0.5], [bad, 0.5]]))


EDGE_VALUES = [0.0, 1.0, -0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, 1 / 3, 2.5e-7, 123456789012345.6,
               -0.28, -1e-12, -3.0000000000000004, np.nextafter(1.0, 0.0), 1e-300, 1e300]


# Where %.15g text and json's float repr part ways: exponent e+15 and subnormals.
JSON_EDGE_VALUES = EDGE_VALUES + [1e15, 1.2345e15, -1e15, 9.99999999999999e15, 5e-324]


def _random_magnitudes(size, seed):
    """Values of both signs, magnitudes log-uniform from 1e-330 (below the
    smallest subnormal, so some are zero) to 1e308."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-330.0, 308.0, size)


def _rounded(values):
    """The floats the %.15g text of the values parses back to."""
    return [float(f"{x:.15g}") for x in np.ravel(values)]


def _reference(obj):
    return json.dumps(obj, indent=2) + "\n"


def _csv(ser, approx=None):
    return render_series("csv", ser.quantity, TimeColumn(ser.times), [ser.values], approx)[0]


def _json(ser, approx=None):
    return render_series("json", ser.quantity, TimeColumn(ser.times), [ser.values], approx)[0]


def _fstring_csv(header, *columns):
    """The CSV file of the columns, as bytes, from f-strings."""
    rows = [",".join(f"{x:.15g}" for x in row) for row in zip(*columns)]
    return ("\n".join([header] + rows) + "\n").encode()


def _reference_files(fmt, quantity, ts, table, approx=None):
    """The files render_series must write, as bytes, from f-strings and
    json.dumps: probabilities clipped, the approximation column as given."""
    table = np.asarray(table, dtype=float)
    if quantity != "approx_alpha_bar_sq":
        table = np.clip(table, 0.0, 1.0)
    extra = [] if approx is None else [approx]
    if fmt == "csv":
        header = "t,value" if approx is None else "t,value,approx"
        return [_fstring_csv(header, ts, row, *extra) for row in table]
    files = []
    for row in table:
        obj = {"quantity": quantity, "times": ts, "values": row}
        if approx is not None:
            obj["approx"] = approx
        obj = {key: value if key == "quantity" else [float(f"{x:.15g}") for x in value]
               for key, value in obj.items()}
        files.append(_reference(obj).encode())
    return files


def _assert_series_files(fmt, quantity, ts, table, approx=None):
    """render_series writes the reference files, with no NUL left in them."""
    files = render_series(fmt, quantity, TimeColumn(ts), table, approx)
    assert files == _reference_files(fmt, quantity, ts, table, approx)
    assert not any(b"\0" in content for content in files)


class TestOneShotFormatter:
    def test_edge_values_match_fstring(self):
        assert formatter_texts(np.array(EDGE_VALUES)) == [f"{x:.15g}" for x in EDGE_VALUES]
        assert [formatter_texts(x)[0] for x in EDGE_VALUES] == [f"{x:.15g}" for x in EDGE_VALUES]

    def test_random_magnitudes_match_fstring(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, size=2000)
        assert formatter_texts(values) == [f"{x:.15g}" for x in values]

    def test_empty_and_table_shapes(self):
        assert formatter_texts(np.array([])) == []
        table = np.array([[0.5, 1e-5], [1 / 3, 0.0]])
        assert formatter_texts(table) == ["0.5", "1e-05", "0.333333333333333", "0"]

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
        text = TimeColumn(ts)
        for values in (np.cos(ts) ** 2, np.sin(ts) ** 2):
            [csv] = render_series("csv", "quantum_pair", text, [values])
            assert csv == _fstring_csv("t,value", ts, values)
            obj = json.loads(render_series("json", "quantum_pair", text, [values])[0])
            assert obj["times"] == [float(f"{t:.15g}") for t in ts]
            assert obj["values"] == [float(f"{x:.15g}") for x in values]

    def test_render_validation(self):
        with pytest.raises(ValueError, match="time column"):
            render_series("csv", "quantum_pair", TimeColumn([0.0, 1.0]), np.array([[0.5]]))
        with pytest.raises(ValueError, match="time column"):
            render_series("csv", "quantum_pair", TimeColumn([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="one series row"):
            render_series("csv", "alpha_bar_sq", TimeColumn([0.0]), np.array([[0.5], [0.5]]), np.array([0.5]))
        with pytest.raises(ValueError, match="fmt"):
            render_series("xml", "quantum_pair", TimeColumn([0.0]), np.array([[0.5]]))

    def test_json_values_are_rounded_floats(self):
        values = np.array([0.1 + 0.2, 1 / 3, 1e-5])
        ser = TransportSeries("alpha_bar_sq", np.arange(3.0), values)
        obj = json.loads(_json(ser))
        assert obj["values"] == [float(f"{x:.15g}") for x in values]

    # n=129 and n=150 are written in blocks of 127 and 109 rows, the last
    # block partial (see TestMatrixExport.test_row_blocks).
    @pytest.mark.parametrize("n", [5, 0, 1, 129, 150])
    def test_matrix_csv_matches_fstring(self, n):
        rng = np.random.default_rng(3)
        entries = rng.random((n, n))
        m = ProbabilityMatrix(n, entries)
        assert matrix_to_csv(m) == "".join(
            ",".join(f"{x:.15g}" for x in row) + "\n" for row in entries
        ).encode()


def _past_cutoff(values):
    """The values, repeated until there are at least _VECTOR_MIN of them, so
    that formatting them takes the numpy path."""
    values = np.asarray(values, dtype=float)
    return np.tile(values, -(-serialize._VECTOR_MIN // values.size))


def _power_neighbours():
    """Each power of ten from 1e-6 to 1e16, values just below it that round
    up to it at 15 digits (the 1e-04 and 1e+15 notation switches among them)
    or stay below, and the nextafter neighbours of all of these."""
    values = []
    for k in range(-6, 17):
        p = float(f"1e{k}")
        for j in range(12):
            values.append(p * (1.0 - j * 1e-16))
    values = np.array(values + [9.9999999999999995e-05, 999999999999999.5, 99999999999999.95])
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def _decimal_ties():
    """Doubles m * 2**-(k+1), m odd, whose exact decimal has 16 significant
    digits ending in 5: exact ties at 15 digits, half of them rounding up
    under round-half-even."""
    values = []
    for k in range(22):
        low = -(-10**15 // 5 ** (k + 1)) | 1
        values += [m * 2.0 ** -(k + 1) for m in range(low, low + 40, 2)
                   if m * 5 ** (k + 1) < 10**16]
    return np.array(values)


class TestVectorisedFormatter:
    """Inputs of at least _VECTOR_MIN numbers take the numpy path, which must
    give the bytes of f"{x:.15g}" for every double."""

    @pytest.mark.parametrize("values", [
        _past_cutoff(EDGE_VALUES),
        _power_neighbours(),
        -_power_neighbours(),
        _decimal_ties(),
        _past_cutoff([0.0, -0.0, 5e-324, -5e-324, 1e-250, -1e-250, 1e250, -1e250,
                      np.nextafter(1e-250, 1.0), np.nextafter(1e-250, 0.0),
                      np.nextafter(1e250, 0.0), np.nextafter(1e250, np.inf)]),
        _random_magnitudes(5000, 13),
        # Longer than a series block, formatted by one call.
        _random_magnitudes(serialize._BLOCK_NUMBERS + 100, 19),
    ], ids=["edge", "powers", "negative-powers", "ties", "range-ends", "random", "past-block"])
    def test_matches_fstring(self, values):
        assert values.size >= serialize._VECTOR_MIN
        assert formatter_texts(values) == [f"{x:.15g}" for x in values]
        # The values as times, as a two-row block of series, and as the
        # approximation column beside clipped probabilities, in each format.
        for fmt in ("csv", "json"):
            _assert_series_files(fmt, "approx_alpha_bar_sq", values, [values, values[::-1]])
            _assert_series_files(fmt, "alpha_bar_sq", values, [np.abs(values[::-1])], values)

    def test_non_finite_texts(self):
        values = _past_cutoff([np.nan, np.inf, -np.inf, 0.5, -0.0])
        assert formatter_texts(values) == [f"{x:.15g}" for x in values]

    def test_ties_are_ties(self):
        # The tie case is only tested if some ties round up and some down.
        values = _decimal_ties()
        texts = [f"{x:.15g}" for x in values]
        up = [float(text) > x for text, x in zip(texts, values)]
        assert any(up) and not all(up)

    @pytest.mark.parametrize("size", [serialize._VECTOR_MIN - 1, serialize._VECTOR_MIN])
    def test_cutoff(self, monkeypatch, size):
        calls = []
        kernel = serialize._digits_and_exponent
        monkeypatch.setattr(serialize, "_digits_and_exponent",
                            lambda x: calls.append(x.size) or kernel(x))
        values = _random_magnitudes(size, 17)
        assert formatter_texts(values) == [f"{x:.15g}" for x in values]
        assert calls == ([size] if size >= serialize._VECTOR_MIN else [])

    @pytest.mark.parametrize("with_approx", [False, True])
    def test_negative_approximation_column(self, with_approx):
        ts = np.linspace(0.0, 50.0, 1001)
        approx = np.cos(ts) * np.exp(-ts) - 1e-9 * ts  # to -5e-08, with exponent texts
        values = np.clip(np.abs(approx), 0.0, 1.0)
        if with_approx:
            args = ("alpha_bar_sq", TimeColumn(ts), [values], approx)
            csv = _fstring_csv("t,value,approx", ts, values, approx)
            obj = {"quantity": "alpha_bar_sq", "times": _rounded(ts), "values": _rounded(values),
                   "approx": _rounded(approx)}
        else:
            args = ("approx_alpha_bar_sq", TimeColumn(ts), [approx])
            csv = _fstring_csv("t,value", ts, approx)
            obj = {"quantity": "approx_alpha_bar_sq", "times": _rounded(ts), "values": _rounded(approx)}
        assert (approx < 0).any()
        assert render_series("csv", *args) == [csv]
        assert render_series("json", *args) == [_reference(obj).encode()]


class TestJsonWriter:
    """The JSON writer gives the bytes of json.dumps(indent=2) on the floats
    that the %.15g text parses back to."""

    VALUES = np.concatenate([JSON_EDGE_VALUES, _random_magnitudes(2000, 5)])

    @pytest.mark.parametrize("with_approx", [False, True])
    def test_series_matches_json_dumps(self, with_approx):
        times, values = self.VALUES, self.VALUES[::-1]
        if with_approx:
            probs = np.clip(np.abs(values), 0.0, 1.0)
            [out] = render_series("json", "alpha_bar_sq", TimeColumn(times), [probs], values)
            obj = {"quantity": "alpha_bar_sq", "times": _rounded(times),
                   "values": _rounded(probs), "approx": _rounded(values)}
        else:
            [out] = render_series("json", "approx_alpha_bar_sq", TimeColumn(times), [values])
            obj = {"quantity": "approx_alpha_bar_sq", "times": _rounded(times),
                   "values": _rounded(values)}
        assert out == _reference(obj).encode()

    def test_series_clips_probabilities_like_csv(self):
        times = np.arange(len(self.VALUES), dtype=float)
        [out] = render_series("json", "quantum_pair", TimeColumn(times), [self.VALUES])
        clipped = np.clip(self.VALUES, 0.0, 1.0)
        assert out == _reference({"quantity": "quantum_pair", "times": _rounded(times),
                                  "values": _rounded(clipped)}).encode()

    @pytest.mark.parametrize("with_approx", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_series(self, fmt, with_approx):
        """An empty grid gives each row a file of empty columns, and a table
        of no rows gives no file."""
        approx = np.zeros(0) if with_approx else None
        _assert_series_files(fmt, "alpha_bar_sq", np.zeros(0), np.zeros((1, 0)), approx)
        for n in (0, 3):
            times = TimeColumn(np.arange(n, dtype=float))
            assert render_series(fmt, "alpha_bar_sq", times, np.zeros((0, n))) == []

    # n=129 and n=150 are written in blocks of 127 and 109 rows, the last
    # block partial (see TestMatrixExport.test_row_blocks).
    @pytest.mark.parametrize("n", [45, 0, 1, 129, 150])
    @pytest.mark.parametrize("time", [None, 0.0, 2.5, 1e15, 1.2345e15, 1e16, 5e-324])
    def test_matrix_matches_json_dumps(self, time, n):
        entries = 10.0 ** np.random.default_rng(7).uniform(-330.0, 0.0, (n, n))
        edges = [0.0, 1.0, 5e-324, 1e-300, 1 / 3, 0.1 + 0.2]
        entries.flat[: len(edges)] = edges[: entries.size]
        m = ProbabilityMatrix(n, entries, time=time)
        obj = {
            "quantity": "lta",
            "n": n,
            "labels": list(range(1, n + 1)),
            "time": None if time is None else _rounded(time)[0],
            "entries": [_rounded(row) for row in entries],
        }
        assert matrix_to_json(m) == _reference(obj).encode()

    def test_empty_matrix(self):
        m = ProbabilityMatrix(0, np.zeros((0, 0)))
        obj = {"quantity": "lta", "n": 0, "labels": [], "time": None, "entries": []}
        assert matrix_to_json(m) == _reference(obj).encode()
        assert matrix_to_csv(m) == b""

    @pytest.mark.parametrize("size", [len(JSON_EDGE_VALUES), serialize._VECTOR_MIN + 3],
                             ids=["percent-path", "numpy-path"])
    def test_json_numbers_match_json_dumps(self, size):
        """Each token is json.dumps of the float its text parses back to:
        below _VECTOR_MIN values by the rule itself, one text at a time,
        and from the formatter's JSON words above."""
        values = np.concatenate([JSON_EDGE_VALUES, _random_magnitudes(size - len(JSON_EDGE_VALUES), 23)])
        expected = [json.dumps(float(f"{x:.15g}")) for x in values]
        assert formatter_texts(values, json_tokens=True) == expected

    def test_tokens_of_texts_with_points(self):
        """Below _VECTOR_MIN values, where every text holds a point, the
        exponent texts that JSON writes otherwise still become tokens."""
        values = [1.2345e15, 5e-324, 2.5e-7, 0.5]
        expected = [json.dumps(float(f"{x:.15g}")) for x in values]
        assert expected[:2] == ["1234500000000000.0", "5e-324"]
        assert formatter_texts(values, json_tokens=True) == expected

    @pytest.mark.parametrize("value", JSON_EDGE_VALUES)
    def test_report_matches_json_dumps(self, value):
        report = EfficiencyReport(
            label="star \u2606 \"e\"", n=10, q=9, symmetry_degree=8, chi_bar=value,
            chi_bar_lb=1.0, classical_slope=-value, quantum_slope=1e15,
            classical_asymptote=0.1, equipartition_time=None, verdict="indeterminate",
        )
        obj = asdict(report)
        for key, field in obj.items():
            if isinstance(field, float):
                obj[key] = _rounded(field)[0]
        assert report_to_json(report) == _reference(obj).encode()


class TestBlockRendering:
    """render_series formats a table of rows as one block; each row's file
    is the file that row gives on its own."""

    def test_block_rows(self):
        assert TimeColumn(np.arange(5001.0)).block_rows == 3
        assert TimeColumn(np.arange(1001.0)).block_rows == 16
        assert TimeColumn(np.arange(20001.0)).block_rows == 1
        assert TimeColumn([]).block_rows == serialize._BLOCK_NUMBERS

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("quantity", ["quantum_pair", "approx_alpha_bar_sq"])
    @pytest.mark.parametrize("ts", [
        np.linspace(0.0, 3.0, 300),  # times such as 0.0100334448160535: three lead words
        1e15 + 1e14 * np.arange(11),  # exponent texts, "1e+15" and "1.1e+15"
        np.arange(256) * 0.01,
        np.arange(255) * 0.01,  # a row alone is formatted by %, the block in numpy
        np.array([0.5]),
        np.array([]),
    ], ids=["linspace", "exponent", "256", "255", "1", "0"])
    def test_block_matches_rows_alone(self, fmt, quantity, ts):
        # Rows whose own texts differ in width: short decimals, full
        # 15-digit texts, exponents down to subnormals (repr tokens), values
        # outside [0, 1] and the e+15 texts that JSON writes in full, and
        # magnitudes from 1e-300 to 1e300 of both signs, exponent and fixed
        # texts side by side.
        n = ts.size
        table = np.array([
            np.full(n, 0.5),
            np.cos(np.linspace(0.0, 3.0, n)) ** 2,
            10.0 ** -np.linspace(1.0, 323.0, n),
            np.linspace(-2.0, 1e15, n),
            np.geomspace(1e-300, 1e300, n) * (-1.0) ** np.arange(n),
        ]).reshape(5, n)
        files = render_series(fmt, quantity, TimeColumn(ts), table)
        assert files == [render_series(fmt, quantity, TimeColumn(ts), [row])[0] for row in table]
        assert render_series(fmt, quantity, TimeColumn(ts), table[:0]) == []
        _assert_series_files(fmt, quantity, ts, table)
        _assert_series_files(fmt, "alpha_bar_sq", ts, table[1:2], table[4])


class TestSeriesExport:
    def test_csv_layout(self):
        ser = TransportSeries("alpha_bar_sq", np.array([0.0, 0.5]), np.array([1.0, 0.25]))
        assert _csv(ser) == b"t,value\n0,1\n0.5,0.25\n"

    def test_csv_clamps_probability_tags(self):
        ser = TransportSeries("alpha_bar_sq", np.array([0.0]), np.array([1.0 + 5e-10]))
        assert _csv(ser) == b"t,value\n0,1\n"

    def test_csv_keeps_approx_unclamped(self):
        ser = TransportSeries("approx_alpha_bar_sq", np.array([0.0]), np.array([-0.28]))
        assert _csv(ser) == b"t,value\n0,-0.28\n"

    def test_csv_with_approx_column(self):
        ts = np.array([0.0, 1.0])
        ser = TransportSeries("alpha_bar_sq", ts, np.array([1.0, 0.5]))
        approx = TransportSeries("approx_alpha_bar_sq", ts, np.array([0.96, 0.4]))
        out = _csv(ser, approx.values)
        assert out.splitlines()[0] == b"t,value,approx"
        assert out.splitlines()[1] == b"0,1,0.96"

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
        m = ProbabilityMatrix(2, np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert matrix_to_csv(m) == b"0.5,0.5\n0.5,0.5\n"

    def test_json_carries_labels_and_tag(self):
        m = ProbabilityMatrix(2, np.eye(2), time=0.0)
        obj = json.loads(matrix_to_json(m))
        assert obj["quantity"] == "lta"
        assert obj["labels"] == [1, 2]
        assert obj["time"] == 0.0
        assert obj["entries"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_lta_time_is_null(self):
        m = ProbabilityMatrix(2, np.eye(2))
        assert json.loads(matrix_to_json(m))["time"] is None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n, rows", [(0, []), (1, [1]), (128, [128]), (129, [127, 2]), (150, [109, 41])])
    def test_row_blocks(self, monkeypatch, fmt, n, rows):
        """A matrix is formatted max(1, _BLOCK_NUMBERS // n) rows at a time."""
        calls = []
        put_words = serialize._put_words
        monkeypatch.setattr(serialize, "_put_words",
                            lambda x, *args, **kwargs: calls.append(x.size) or put_words(x, *args, **kwargs))
        m = ProbabilityMatrix(n, np.full((n, n), 0.5))
        (matrix_to_csv if fmt == "csv" else matrix_to_json)(m)
        assert calls == [r * n for r in rows]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_json_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="no number"):
            report_to_json(_report(equipartition_time=bad))

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
