"""CSV/JSON emission for series, probability matrices, and reports.

Numbers are rendered with 15 significant digits, fixed column order, LF line
endings, so identical configurations produce byte-identical files.
Probability values are clipped to [0, 1] here, and only here; TransportSeries
and ProbabilityMatrix have already rejected any excursion beyond PROB_SLACK
when they were built.  The dominant-degeneracy approximation series is exempt
(it is not a probability).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .analysis import EfficiencyReport
from .transport import ProbabilityMatrix, TransportSeries


def fmt_number(x: float) -> str:
    return f"{x:.15g}"


def _round15(x: float) -> float:
    return float(fmt_number(x))


def _export_values(series: TransportSeries) -> np.ndarray:
    if series.quantity == "approx_alpha_bar_sq":
        return series.values
    return np.clip(series.values, 0.0, 1.0)


def series_to_csv(series: TransportSeries, approx: TransportSeries | None = None) -> str:
    """'t,value' rows; when the approximation series is co-emitted the header
    becomes 't,value,approx' and its column stays unclamped."""
    values = _export_values(series)
    if approx is None:
        lines = ["t,value"]
        lines += [f"{fmt_number(t)},{fmt_number(v)}" for t, v in zip(series.times, values)]
    else:
        if approx.times.shape != series.times.shape or np.any(approx.times != series.times):
            raise ValueError("approximation series must share the time grid")
        lines = ["t,value,approx"]
        lines += [
            f"{fmt_number(t)},{fmt_number(v)},{fmt_number(a)}"
            for t, v, a in zip(series.times, values, approx.values)
        ]
    return "\n".join(lines) + "\n"


def series_to_json(series: TransportSeries, approx: TransportSeries | None = None) -> str:
    obj = {
        "quantity": series.quantity,
        "times": [_round15(t) for t in series.times],
        "values": [_round15(v) for v in _export_values(series)],
    }
    if approx is not None:
        if approx.times.shape != series.times.shape or np.any(approx.times != series.times):
            raise ValueError("approximation series must share the time grid")
        obj["approx"] = [_round15(v) for v in approx.values]
    return json.dumps(obj, indent=2) + "\n"


def matrix_to_csv(matrix: ProbabilityMatrix) -> str:
    """Bare n x n grid, row k, column j."""
    entries = np.clip(matrix.entries, 0.0, 1.0)
    lines = [",".join(fmt_number(x) for x in row) for row in entries]
    return "\n".join(lines) + "\n"


def matrix_to_json(matrix: ProbabilityMatrix) -> str:
    entries = np.clip(matrix.entries, 0.0, 1.0)
    obj = {
        "quantity": matrix.quantity,
        "n": matrix.n,
        "labels": list(range(1, matrix.n + 1)),
        "time": None if matrix.time is None else _round15(matrix.time),
        "entries": [[_round15(x) for x in row] for row in entries],
    }
    return json.dumps(obj, indent=2) + "\n"


def report_to_json(report: EfficiencyReport) -> str:
    obj = asdict(report)
    for key, value in obj.items():
        if isinstance(value, float):
            obj[key] = _round15(value)
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
