"""CSV/JSON emission for series, probability matrices, and reports.

Numbers are rendered with 15 significant digits, fixed column order, LF line
endings, so identical configurations produce byte-identical files.  There is
one number formatter, ``_fill``: it renders a whole column or table with one
%-operation over a template holding a ``%.15g`` slot per number, which gives
the same text as ``f"{x:.15g}"`` for every float.  There is one series
serializer, ``render_series``: it takes the value column(s) as arrays and the
time grid as text already formatted by ``format_numbers``, so a grid shared
by several series is formatted once.  JSON numbers are the floats that this
text parses back to.

Probability values are clipped to [0, 1] here, and only here; TransportSeries,
ProbabilityMatrix and ``transport.pair_table`` have already rejected any
excursion beyond PROB_SLACK.  The dominant-degeneracy approximation series is
exempt (it is not a probability).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .analysis import EfficiencyReport
from .transport import ProbabilityMatrix

_NUMBER = "%.15g"


def _fill(template: str, values) -> str:
    """Fill the %.15g slots of template, in order, with the values (any
    array shape, read row-major)."""
    return template % tuple(np.asarray(values, dtype=float).ravel().tolist())


def format_numbers(values) -> list[str]:
    """Each value as 15-significant-digit text, in row-major order."""
    return _fill((_NUMBER + "\n") * np.size(values), values).split("\n")[:-1]


def fmt_number(x: float) -> str:
    return _fill(_NUMBER, x)


def _round15(values) -> list[float]:
    """Values rounded to 15 significant digits, as JSON floats."""
    return [float(text) for text in format_numbers(values)]


def render_series(fmt: str, quantity: str, time_text, values, approx=None) -> str:
    """One series file ('csv' or 'json') on a time grid already formatted by
    format_numbers: a 't,value' table, or 't,value,approx' when the
    approximation column is given.  Values tagged as probabilities are
    clipped; the approximation column is written as given."""
    if quantity != "approx_alpha_bar_sq":
        values = np.clip(values, 0.0, 1.0)
    columns = [values] if approx is None else [values, np.asarray(approx, dtype=float)]
    if any(np.shape(c) != (len(time_text),) for c in columns):
        raise ValueError("series columns must match the time column")
    if fmt == "csv":
        text = "t,value\n" if approx is None else "t,value,approx\n"
        if time_text:
            slots = ("," + _NUMBER) * len(columns) + "\n"
            text += _fill(slots.join(time_text) + slots, np.column_stack(columns))
        return text
    if fmt == "json":
        obj = {
            "quantity": quantity,
            "times": [float(t) for t in time_text],
            "values": _round15(values),
        }
        if approx is not None:
            obj["approx"] = _round15(approx)
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")


def matrix_to_csv(matrix: ProbabilityMatrix) -> str:
    """Bare n x n grid, row k, column j."""
    row = ",".join([_NUMBER] * matrix.n) + "\n"
    return _fill(row * matrix.n, np.clip(matrix.entries, 0.0, 1.0))


def matrix_to_json(matrix: ProbabilityMatrix) -> str:
    entries = np.clip(matrix.entries, 0.0, 1.0)
    obj = {
        "quantity": matrix.quantity,
        "n": matrix.n,
        "labels": list(range(1, matrix.n + 1)),
        "time": None if matrix.time is None else _round15(matrix.time)[0],
        "entries": [_round15(row) for row in entries],
    }
    return json.dumps(obj, indent=2) + "\n"


def report_to_json(report: EfficiencyReport) -> str:
    obj = asdict(report)
    for key, value in obj.items():
        if isinstance(value, float):
            obj[key] = _round15(value)[0]
    return json.dumps(obj, indent=2) + "\n"


def report_to_text(report: EfficiencyReport) -> str:
    """Aligned two-column table for terminal display."""
    rows = []
    for key, value in asdict(report).items():
        if value is None:
            rendered = "not reached"
        elif isinstance(value, float):
            rendered = fmt_number(value)
        else:
            rendered = str(value)
        rows.append((key, rendered))
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key:<{width}}  {rendered}" for key, rendered in rows) + "\n"
