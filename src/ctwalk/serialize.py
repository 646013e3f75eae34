"""CSV/JSON emission for series, probability matrices, and reports.

Numbers are rendered with 15 significant digits, fixed column order, LF line
endings, so identical configurations produce byte-identical files.  There is
one number formatter, ``_fill``: it renders a whole column or table with one
%-operation over a template holding a ``%.15g`` slot per number, which gives
the same text as ``f"{x:.15g}"`` for every float.  There is one series
serializer, ``render_series``: it takes the value column(s) as arrays and the
time grid as text already formatted by ``format_numbers``, so a grid shared
by several series is formatted once.

JSON is written in the layout of ``json.dumps(obj, indent=2)``, keys in a
fixed order, and each JSON number is the token ``json.dumps`` writes for the
float that the ``%.15g`` text parses back to, derived from that text by one
rule, ``_json_tokens``.  A decimal of at most 15 significant digits survives
the round trip through a double, so a text with a decimal point and no
exponent is that token already.  Every other text is written as
``repr(float(text))``: an integral text gains ".0" ("1" -> "1.0", "-0" ->
"-0.0"); the exponent e+15, where ``%.15g`` switches to exponent notation
one decade before repr, becomes fixed notation ("1e+15" ->
"1000000000000000.0"); a subnormal, which holds fewer than 15 digits, takes
its shortest digits ("4.94065645841247e-324" -> "5e-324"); and every other
exponent text comes back unchanged.  JSON has no token for NaN or infinity,
and such values are rejected before anything is written.

Probability values are clipped to [0, 1] here, and only here; TransportSeries,
ProbabilityMatrix and ``transport.pair_table`` have already rejected any
excursion beyond PROB_SLACK.  The dominant-degeneracy approximation series is
exempt (it is not a probability).
"""

from __future__ import annotations

import json
import math
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


def _json_tokens(texts) -> list[str]:
    """The JSON number token of each %.15g text (see the module docstring)."""
    return [text if "." in text and "e" not in text else _repr_token(text) for text in texts]


def _repr_token(text: str) -> str:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"JSON has no number for {text}")
    return repr(x)


def _json_numbers(values) -> list[str]:
    return _json_tokens(format_numbers(values))


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    out an array that opens at the given indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _json_object(fields: dict) -> str:
    """A top-level JSON object of encoded values, as json.dumps(indent=2)
    writes it, with a final newline."""
    members = [f"  {json.dumps(key)}: {value}" for key, value in fields.items()]
    return "{\n" + ",\n".join(members) + "\n}\n"


def render_series(fmt: str, quantity: str, time_text, values, approx=None) -> str:
    """One series file ('csv' or 'json') on a time grid already formatted by
    format_numbers: a 't,value' table, or 't,value,approx' when the
    approximation column is given.  Values tagged as probabilities are
    clipped; the approximation column is written as given.  A non-finite
    value in either column is rejected."""
    columns = [values] if approx is None else [values, approx]
    if any(np.shape(c) != (len(time_text),) for c in columns):
        raise ValueError("series columns must match the time column")
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    if not np.isfinite(table).all():
        raise ValueError(f"{quantity}: series values must be finite")
    if quantity != "approx_alpha_bar_sq":
        table[:, 0] = np.clip(table[:, 0], 0.0, 1.0)
    if fmt == "csv":
        text = "t,value\n" if approx is None else "t,value,approx\n"
        if time_text:
            slots = ("," + _NUMBER) * len(columns) + "\n"
            text += _fill(slots.join(time_text) + slots, table)
        return text
    if fmt == "json":
        fields = {
            "quantity": json.dumps(quantity),
            "times": _json_array(_json_tokens(time_text), "  "),
        }
        for key, column in zip(("values", "approx"), table.T):
            fields[key] = _json_array(_json_numbers(column), "  ")
        return _json_object(fields)
    raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")


def matrix_to_csv(matrix: ProbabilityMatrix) -> str:
    """Bare n x n grid, row k, column j."""
    row = ",".join([_NUMBER] * matrix.n) + "\n"
    return _fill(row * matrix.n, np.clip(matrix.entries, 0.0, 1.0))


def matrix_to_json(matrix: ProbabilityMatrix) -> str:
    n = matrix.n
    tokens = _json_numbers(np.clip(matrix.entries, 0.0, 1.0))
    rows = [_json_array(tokens[k * n : (k + 1) * n], "    ") for k in range(n)]
    return _json_object({
        "quantity": json.dumps(matrix.quantity),
        "n": str(n),
        "labels": _json_array([str(k) for k in range(1, n + 1)], "  "),
        "time": "null" if matrix.time is None else _json_numbers(matrix.time)[0],
        "entries": _json_array(rows, "  "),
    })


def report_to_json(report: EfficiencyReport) -> str:
    return _json_object({
        key: _json_numbers(value)[0] if isinstance(value, float) else json.dumps(value)
        for key, value in asdict(report).items()
    })


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
