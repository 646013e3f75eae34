"""Transport quantities for continuous-time classical and quantum walks.

Everything is computed from a Spectrum: pairwise transition probabilities of
the classical semigroup e^{-tL} and the quantum propagator e^{-itL},
long-time averages (closed-form over degeneracy classes, no numerical time
integration anywhere in this module), average return probabilities, the
eigenvalue-only lower bound |alpha-bar(t)|^2 and its asymptote, and the
dominant-degeneracy cosine approximation.  Every series and average is class
weights times class phases: the weights are summed over each degeneracy
class by one reduction, ``_class_sum``, and the phases taken at the class
values, so pi-bar(t) >= |alpha-bar(t)|^2 and the Cesaro limit of a pair
series is chi_{k,j} by construction.

Time phases are evaluated in one place, ``class_phases``, the only exp, cos
or sin of this package: at the C class values and T times, the classical
table e^{-E_c t} of shape (C, T), or the quantum table
[cos(E_c t), sin(E_c t)] of shape (2, C, T), e^{-iE_c t} in real arithmetic.
``from_phases`` reads every quantity of QUANTITIES, each from the table of
its kind in PHASE_KINDS, all n pair series of one start node or one average
row at a time, so a caller that holds one table per kind evaluates each kind
once however many quantities it reads.  The cosine approximation reads the
quantum table around the degeneracy class nearest eigenvalue 1.  ``series``
wraps one non-pair quantity on a TimeGrid as a TransportSeries.  The
transition probabilities at one time t are the pair tables of a 0-d t, one
start node at a time.

A 0-d time gives tables without the time axis.  Node labels are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum, nearest_class

QUANTITIES = (
    "classical_pair",
    "quantum_pair",
    "classical_avg_return",
    "quantum_avg_return",
    "alpha_bar_sq",
    "approx_alpha_bar_sq",
)

PAIR_QUANTITIES = ("classical_pair", "quantum_pair")

MATRIX_QUANTITIES = ("lta",)

# The phase kind from_phases reads each quantity from.
PHASE_KINDS = {
    "classical_pair": "classical",
    "quantum_pair": "quantum",
    "classical_avg_return": "classical",
    "quantum_avg_return": "quantum",
    "alpha_bar_sq": "quantum",
    "approx_alpha_bar_sq": "quantum",
}

# Largest tolerated excursion of a probability outside [0, 1]; anything worse
# is a solver bug and must not be clamped away silently.
PROB_SLACK = 1e-9

# A grid quotient (stop - start) / step within this relative distance of an
# integer counts as landing on stop: 0.7 / 0.1 = 6.999999999999999.
_GRID_SNAP = 1e-9

# Largest accepted grid, 200 times the CLI's default 0:50:0.01; a larger one
# is rejected before any array is allocated.
MAX_GRID_POINTS = 10**6

# Largest accepted (rows, T) table: n rows when a PAIR_QUANTITIES member is
# read, one per degeneracy class otherwise.  It admits MAX_NODES = 4096 nodes
# on the default 5001-point grid (2.05e7 entries; a quantum entry is a cosine
# and a sine, 16 B), and a run over it is rejected before any table is
# allocated.
MAX_TABLE_ENTRIES = 25 * 10**6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform evaluation grid from start in steps of step, up to stop.

    The grid has floor((stop - start)/step) + 1 points, except that a
    quotient within a relative 1e-9 of an integer is rounded to it, so a
    stop that lies on the grid up to rounding is included, and is then the
    last point exactly.  A grid of more than MAX_GRID_POINTS points is
    rejected when it is built.
    """

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.start, self.stop, self.step)):
            raise ValueError("grid start, stop and step must be finite")
        if self.start < 0:
            raise ValueError("grid start must be >= 0")
        if self.stop <= self.start:
            raise ValueError("grid stop must exceed start")
        if self.step <= 1e-9:
            raise ValueError("grid step must exceed 1e-9")
        # The quotient is checked first: one too large to round to an int
        # would overflow in _steps.
        if (self.stop - self.start) / self.step > MAX_GRID_POINTS or self.size > MAX_GRID_POINTS:
            raise ValueError(f"grid has more points than the limit of {MAX_GRID_POINTS}")

    def _steps(self) -> tuple[int, bool]:
        """Steps from start to the last point, and whether that point is stop."""
        quotient = (self.stop - self.start) / self.step
        nearest = round(quotient)
        if abs(quotient - nearest) <= _GRID_SNAP * max(1.0, abs(quotient)):
            return nearest, True
        return math.floor(quotient), False

    @property
    def size(self) -> int:
        """Number of grid points."""
        return self._steps()[0] + 1

    @property
    def last(self) -> float:
        """The last grid point, as times() computes it."""
        steps, ends_on_stop = self._steps()
        return self.stop if ends_on_stop else self.start + self.step * steps

    def times(self) -> np.ndarray:
        steps, ends_on_stop = self._steps()
        ts = self.start + self.step * np.arange(steps + 1)
        if ends_on_stop:
            ts[-1] = self.stop
        return ts


# The grid of the ten-node study, used by the CLI and efficiency_report.
DEFAULT_GRID = TimeGrid(0.0, 50.0, 0.01)


@dataclass(frozen=True)
class TransportSeries:
    """One transport quantity sampled on a time grid.

    Values are kept raw (unclamped); probability-tagged series must stay
    within PROB_SLACK of [0, 1].  The approx_alpha_bar_sq tag is exempt; the
    cosine truncation is not a probability.
    """

    quantity: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity tag {self.quantity!r}")
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if self.quantity != "approx_alpha_bar_sq":
            _check_prob_bounds(values, self.quantity)
        for name, arr in (("times", times), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Dense n x n probability matrix; entry [k-1, j-1] refers to target node
    k and start node j.  The long-time average, tag lta, is the one matrix
    quantity; its 'time' is None, written as null in JSON."""

    n: int
    entries: np.ndarray
    quantity: str
    time: float | None = None

    def __post_init__(self):
        if self.quantity not in MATRIX_QUANTITIES:
            raise ValueError(f"unknown matrix quantity tag {self.quantity!r}")
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}")
        _check_prob_bounds(entries, self.quantity)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def _check_prob_bounds(values: np.ndarray, what: str) -> None:
    if values.size == 0:
        return
    lo, hi = float(np.min(values)), float(np.max(values))
    # min and max carry a NaN through, so one finiteness test covers every entry.
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what}: non-finite values (min {lo}, max {hi})")
    if lo < -PROB_SLACK or hi > 1.0 + PROB_SLACK:
        raise ValueError(f"{what}: values escape [0,1] beyond tolerance (min {lo}, max {hi})")


def _class_sum(s: Spectrum, x) -> np.ndarray:
    """x with its last axis, over eigenvector indices, summed per class."""
    return np.add.reduceat(x, s.class_starts, axis=-1)


def class_phases(s: Spectrum, t, kind: str) -> np.ndarray:
    """The table of class phases that from_phases reads quantities of that
    kind from: e^{-E_c t} (classical), of shape (C, T), or
    [cos(E_c t), sin(E_c t)] (quantum), of shape (2, C, T), whose angles are
    np.multiply.outer(class_values, t).  Evaluated in place, so the table is
    the only array of its size alive on return."""
    ts = np.asarray(t, dtype=float)
    if kind == "classical":
        if np.any(ts < 0):
            raise ValueError("classical propagation requires t >= 0 (semigroup, not a group)")
        phases = np.multiply.outer(s.class_values, ts)
        np.negative(phases, out=phases)
        return np.exp(phases, out=phases)
    if kind == "quantum":
        phases = np.empty((2,) + s.class_values.shape + ts.shape)
        np.multiply.outer(s.class_values, ts, out=phases[1])
        np.cos(phases[1], out=phases[0])
        np.sin(phases[1], out=phases[1])
        return phases
    raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")


def _cos_sin(weights: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """[weights @ cos, weights @ sin] of a quantum table, in one array: two
    real matrix products, the time axis (absent for a 0-d t) kept last."""
    products = weights @ phases.reshape(2, phases.shape[1], -1)
    return products.reshape((2,) + weights.shape[:-1] + phases.shape[2:])


def from_phases(s: Spectrum, quantity: str, phases: np.ndarray, j: int) -> np.ndarray:
    """A quantity of PHASE_KINDS read from the class phase table of its kind,
    as a table of series: one row per target node k (row k-1) of start node
    j for a pair quantity, one row for an average (j is not read).  Checked
    against the probability bounds and left unclamped, save the cosine
    approximation, which is not a probability (it may leave [0, 1]).

    A quantum quantity |w . e^{-iEt}|^2 is (w . cos)^2 + (w . sin)^2, squared
    and summed in place.  pi-bar(t) = (1/N) sum_k |sum_c W_kc e^{-iE_c t}|^2
    is read as the Gram form (1/N) sum_c cos*(G cos) + sin*(G sin) of the
    C x C matrix G = W^T W, so no n x T table is built for it.  The
    dominant-degeneracy truncation of |alpha-bar(t)|^2 around the class l
    nearest eigenvalue 1,
    (1/N^2)[D_l^2 + 2 sum_{c != l} D_c D_l cos((E_c - E_l) t)], is read
    with cos((E_c - E_l) t) = cos(E_c t) cos(E_l t) + sin(E_c t) sin(E_l t)."""
    if quantity not in PHASE_KINDS:
        raise ValueError(f"from_phases needs one of {tuple(PHASE_KINDS)}, got {quantity!r}")
    if quantity == "classical_avg_return":
        values = (s.class_sizes @ phases) / s.n
    elif quantity == "approx_alpha_bar_sq":
        dominant = nearest_class(s, 1.0)
        others = s.class_sizes.copy()
        others[dominant] = 0
        products = _cos_sin(others, phases) * phases[:, dominant]
        d_l = s.class_sizes[dominant]
        return ((d_l**2 + 2.0 * d_l * (products[0] + products[1])) / s.n**2)[np.newaxis]
    else:
        if quantity in PAIR_QUANTITIES:
            if not (1 <= j <= s.n):
                raise ValueError(f"j must be in 1..{s.n}, got {j}")
            # Class-summed <k|q_n><q_n|j>, one row per target k.
            weights = _class_sum(s, s.eigenvectors * s.eigenvectors[j - 1])
        elif quantity == "quantum_avg_return":
            squares = _class_sum(s, s.eigenvectors**2)
            weights = squares.T @ squares
        else:
            weights = s.class_sizes / s.n
        if quantity == "classical_pair":
            values = weights @ phases
        else:
            values = _cos_sin(weights, phases)
            values *= phases if quantity == "quantum_avg_return" else values
            values[0] += values[1]
            values = values[0]
            if quantity == "quantum_avg_return":
                values = np.sum(values, axis=0) / s.n
    _check_prob_bounds(values, quantity)
    return values if quantity in PAIR_QUANTITIES else values[np.newaxis]


def lta_matrix(s: Spectrum) -> ProbabilityMatrix:
    """chi_{k,j} for all pairs: sum over classes of the squared entries of the
    class eigenprojector.  A simple class's projector q q^T squares to
    (q*q)(q*q)^T, so the simple classes together are one matrix product; only
    the degenerate classes build their projector.  Symmetric; rows and
    columns sum to 1."""
    sizes = s.class_sizes
    squares = s.eigenvectors[:, s.class_starts[sizes == 1]] ** 2
    acc = squares @ squares.T
    acc = 0.5 * (acc + acc.T)
    degenerate = sizes > 1
    for start, size in zip(s.class_starts[degenerate].tolist(), sizes[degenerate].tolist()):
        qc = s.eigenvectors[:, start : start + size]
        proj = qc @ qc.T
        proj = 0.5 * (proj + proj.T)
        acc += proj**2
    return ProbabilityMatrix(s.n, acc, quantity="lta")


def chi_bar(s: Spectrum) -> float:
    """Asymptotic value of pi-bar(t): the mean of the LTA-matrix diagonal,
    computed directly from the class projector diagonals."""
    return float(np.mean(np.sum(_class_sum(s, s.eigenvectors**2) ** 2, axis=1)))


def chi_bar_lb(s: Spectrum) -> float:
    """Eigenvalue-only lower bound of chi-bar: (1/N^2) sum of squared class
    multiplicities; a sum of integers below 2^53, so exact until the division."""
    return float(np.sum(s.class_sizes**2)) / s.n**2


def check_table_size(s: Spectrum, quantities, grid: TimeGrid) -> None:
    """Reject a run of the given quantities over grid whose largest table
    exceeds MAX_TABLE_ENTRIES: n rows when a PAIR_QUANTITIES member is read
    (from_phases weights the phases per target node), one per degeneracy
    class otherwise.  Reject too a grid on which the largest phase angle
    E_c t, at the last time and the largest class value, overflows."""
    rows = s.n if any(q in PAIR_QUANTITIES for q in quantities) else s.class_values.size
    entries = rows * grid.size
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"a {rows} x {grid.size} table has {entries} entries, more than the limit of "
            f"{MAX_TABLE_ENTRIES}; use a shorter or coarser time grid"
        )
    t, e = grid.last, float(s.class_values.max(initial=0.0))
    if not math.isfinite(t * e):
        raise ValueError(f"the phase angle E*t overflows at time {t:.15g} and eigenvalue {e:.15g}; use an earlier time grid")


def series(s: Spectrum, grid: TimeGrid, quantity: str) -> TransportSeries:
    """Evaluate one scalar, non-pair transport quantity over a TimeGrid.

    Pair series come from from_phases, which reads every target node at
    once.  A table over MAX_TABLE_ENTRIES is rejected before it is allocated.
    """
    if quantity in PAIR_QUANTITIES:
        raise ValueError(f"{quantity} series come from from_phases, not series")
    if quantity not in PHASE_KINDS:
        raise ValueError(f"unknown quantity tag {quantity!r}")
    check_table_size(s, (quantity,), grid)
    ts = grid.times()
    values = from_phases(s, quantity, class_phases(s, ts, PHASE_KINDS[quantity]), 1)[0]
    return TransportSeries(quantity=quantity, times=ts, values=values)
