"""Efficiency diagnostics on transport series: power-law slope fits, running
time averages, equipartition timing, and the per-graph efficiency report
contrasting classical and quantum walks.

The report's slope window and its sample minimum, equipartition band and
verdict margin are the module constants SLOPE_WINDOW, MIN_SLOPE_SAMPLES,
EQUIPARTITION_BAND and VERDICT_MARGIN, set to replicate the ten-node study;
only the grid and the degeneracy tolerance are efficiency_report arguments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, is_connected, laplacian
from .spectral import DEFAULT_DEG_TOL, eigendecompose, symmetry_degree
from . import transport
from .transport import DEFAULT_GRID, TimeGrid, TransportSeries

VERDICTS = ("quantum_more_efficient", "classical_more_efficient", "indeterminate")

# Equality guard for the verdict threshold: chi_bar_lb can land exactly on
# 1/n + margin (it does for the ten-node 2-fold-degenerate network), and a
# bound at the margin still means the quantum walk saturates above
# equipartition, so ties go to the classical side.
_VERDICT_TIE_TOL = 1e-9


# Log-log fit window of both decay slopes and the fewest grid samples a fit
# needs inside it, the band around 1/n that counts as equipartition, and the
# margin above 1/n at which the saturation bound means the quantum walk loses.
SLOPE_WINDOW = (0.5, 5.0)
MIN_SLOPE_SAMPLES = 10
EQUIPARTITION_BAND = 0.005
VERDICT_MARGIN = 0.02


@dataclass(frozen=True)
class EfficiencyReport:
    label: str
    n: int
    q: int
    symmetry_degree: int
    chi_bar: float
    chi_bar_lb: float
    classical_slope: float
    quantum_slope: float
    classical_asymptote: float
    equipartition_time: float | None
    verdict: str


def decay_slope(series: TransportSeries, window: tuple[float, float]) -> float:
    """Least-squares slope of log(value) vs log(t) over the at least
    MIN_SLOPE_SAMPLES samples in [t_lo, t_hi].  Exact on pure power laws."""
    t_lo, t_hi = window
    span = f"{t_lo:g}..{t_hi:g}"
    if t_lo <= 0:
        raise ValueError("window must start at t > 0 for a log-log fit")
    if t_lo >= t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    if t_lo < series.times[0] or t_hi > series.times[-1]:
        grid_span = f"{series.times[0]:g}..{series.times[-1]:g}"
        raise ValueError(f"window must lie within the series time range {grid_span}, got window {span}")
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    count = int(np.sum(mask))
    if count < MIN_SLOPE_SAMPLES:
        raise ValueError(f"need at least {MIN_SLOPE_SAMPLES} samples in the window {span}, got {count}")
    values = series.values[mask]
    if np.any(values <= 0):
        raise ValueError("all values in the window must be positive for a log-log fit")
    return float(np.polyfit(np.log(series.times[mask]), np.log(values), 1)[0])


def running_time_average(series: TransportSeries) -> TransportSeries:
    """Cesaro average (1/t) * integral of the series, trapezoidal, evaluated
    at every grid point; the first point carries the series' own value (the
    t -> t0 limit)."""
    times, values = series.times, series.values
    if times.size < 2:
        raise ValueError("running time average needs at least 2 points")
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))]
    )
    elapsed = times - times[0]
    out = np.empty_like(values)
    out[0] = values[0]
    out[1:] = integral[1:] / elapsed[1:]
    return TransportSeries(quantity=series.quantity, times=times, values=out)


def equipartition_time(series: TransportSeries, target: float, band: float):
    """Smallest grid time after which the series stays within
    [target - band, target + band] through the end of the grid; None when the
    band is never held.  A target of 1 is the asymptote of a one-node graph."""
    if not (0.0 < target <= 1.0):
        raise ValueError("target must lie in (0, 1]")
    if band <= 0:
        raise ValueError("band must be positive")
    outside = np.abs(series.values - target) > band
    if not outside.any():
        return float(series.times[0])
    last_bad = int(np.where(outside)[0][-1])
    if last_bad == series.times.size - 1:
        return None
    return float(series.times[last_bad + 1])


def verdict(chi_bar_lb: float, n: int, margin: float, classical_slope: float, quantum_slope: float) -> str:
    """Efficiency call: a saturation bound at or above 1/n + margin means the
    quantum walk keeps returning and loses; below it, the quantum walk wins
    only if its return probability also decays faster."""
    threshold = 1.0 / n + margin
    if chi_bar_lb >= threshold - _VERDICT_TIE_TOL:
        return "classical_more_efficient"
    if quantum_slope < classical_slope:
        return "quantum_more_efficient"
    return "indeterminate"


def efficiency_report(
    g: Graph, grid: TimeGrid = DEFAULT_GRID, deg_tol: float = DEFAULT_DEG_TOL, label: str = ""
) -> EfficiencyReport:
    """Assemble the per-graph efficiency summary.

    The classical slope is fitted on the average return probability P-bar(t),
    the quantum slope on the lower-bound curve |alpha-bar(t)|^2 (log-log fit
    straight through the oscillation; the sparse interference minima carry
    little weight, so the fit reads the decay trend the way the power-law
    guide lines do).  Requires a connected graph.
    """
    if not is_connected(g):
        raise ValueError("efficiency report requires a connected graph")
    s = eigendecompose(laplacian(g), deg_tol=deg_tol)

    classical = transport.series(s, grid, "classical_avg_return")
    lower_bound = transport.series(s, grid, "alpha_bar_sq")
    classical_slope = decay_slope(classical, SLOPE_WINDOW)
    quantum_slope = decay_slope(lower_bound, SLOPE_WINDOW)
    lb = transport.chi_bar_lb(s)

    return EfficiencyReport(
        label=label or f"graph(n={g.n}, q={g.q})",
        n=g.n,
        q=g.q,
        symmetry_degree=symmetry_degree(s),
        chi_bar=transport.chi_bar(s),
        chi_bar_lb=lb,
        classical_slope=classical_slope,
        quantum_slope=quantum_slope,
        classical_asymptote=1.0 / g.n,
        equipartition_time=equipartition_time(classical, 1.0 / g.n, EQUIPARTITION_BAND),
        verdict=verdict(lb, g.n, VERDICT_MARGIN, classical_slope, quantum_slope),
    )
