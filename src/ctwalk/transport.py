"""Transport quantities for continuous-time classical and quantum walks.

Everything is computed from a Spectrum: the classical semigroup e^{-tL} and
quantum propagator e^{-itL} via their spectral forms, pairwise transition
probabilities, long-time averages (closed-form over degeneracy classes, no
numerical time integration anywhere in this module), average return
probabilities, the eigenvalue-only lower bound |alpha-bar(t)|^2 and its
asymptote, and the dominant-degeneracy cosine approximation.  Every series
and average is class weights times class phases: the weights are summed
over each degeneracy class by one reduction, ``_class_sum``, and the phases
taken at the class values, so pi-bar(t) >= |alpha-bar(t)|^2 and the Cesaro
limit of a pair series is chi_{k,j} by construction.

Time phases e^{-Et} and e^{-iEt} are evaluated in one place, ``_phases``,
once per (spectrum, grid, kind) for each quantity.  Pair quantities go
through one kernel, ``pair_kernel``: the scalar per-pair functions pass it a
single weight row, and ``pair_table``, the one source of pair series, passes
the rows of every target node at once, so all n series of one start node
cost one phase table and one matrix product.

Scalar time arguments give scalars; array arguments broadcast to arrays.
Node labels are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum

QUANTITIES = (
    "classical_pair",
    "quantum_pair",
    "classical_avg_return",
    "quantum_avg_return",
    "alpha_bar_sq",
    "approx_alpha_bar_sq",
)

PAIR_QUANTITIES = ("classical_pair", "quantum_pair")

MATRIX_QUANTITIES = ("classical_transition", "quantum_transition", "lta")

# Largest tolerated excursion of a probability outside [0, 1]; anything worse
# is a solver bug and must not be clamped away silently.
PROB_SLACK = 1e-9

# A grid quotient (stop - start) / step within this relative distance of an
# integer counts as landing on stop: 0.7 / 0.1 = 6.999999999999999.
_GRID_SNAP = 1e-9

# Largest accepted grid, 200 times the CLI's default 0:50:0.01; a larger one
# is rejected before any array is allocated.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform evaluation grid from start in steps of step, up to stop.

    The grid has floor((stop - start)/step) + 1 points, except that a
    quotient within a relative 1e-9 of an integer is rounded to it, so a
    stop that lies on the grid up to rounding is included.  A grid of more
    than MAX_GRID_POINTS points is rejected when it is built.
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
        if self.size > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {self.size} points, more than the limit of {MAX_GRID_POINTS}"
            )

    @property
    def size(self) -> int:
        """Number of grid points."""
        quotient = (self.stop - self.start) / self.step
        nearest = round(quotient)
        if abs(quotient - nearest) <= _GRID_SNAP * max(1.0, abs(quotient)):
            return nearest + 1
        return math.floor(quotient) + 1

    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.size)


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
    k and start node j.  'time' is None for the long-time-average matrix."""

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
    if lo < -PROB_SLACK or hi > 1.0 + PROB_SLACK:
        raise ValueError(f"{what}: values escape [0,1] beyond tolerance (min {lo}, max {hi})")


def _node_index(s: Spectrum, label: int, name: str) -> int:
    if not (1 <= label <= s.n):
        raise ValueError(f"{name} must be in 1..{s.n}, got {label}")
    return label - 1


def _as_times(t, require_nonneg: bool):
    ts = np.asarray(t, dtype=float)
    if require_nonneg and np.any(ts < 0):
        raise ValueError("classical propagation requires t >= 0 (semigroup, not a group)")
    return ts


def _scalar_like(t, values):
    return float(values) if np.isscalar(t) or np.ndim(t) == 0 else values


def _class_sum(s: Spectrum, x) -> np.ndarray:
    """x with its last axis, over eigenvector indices, summed per class."""
    return np.add.reduceat(x, s.class_starts, axis=-1)


def _class_mults(s: Spectrum) -> np.ndarray:
    return _class_sum(s, np.ones(s.n))


def _phases(values: np.ndarray, ts, kind: str) -> np.ndarray:
    """The time phases e^{-v t} (classical) or e^{-i v t} (quantum) for every
    value v and time t; shape values.shape + ts.shape.  Evaluated in place,
    so the table is the only array of its size alive on return."""
    if kind == "classical":
        phases = np.multiply.outer(values, ts)
        np.negative(phases, out=phases)
    elif kind == "quantum":
        phases = -1j * np.multiply.outer(values, ts)
    else:
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")
    return np.exp(phases, out=phases)


def pair_kernel(weights, eigenvalues, t, kind: str) -> np.ndarray:
    """sum_n weights[..., n] e^{-E_n t} (classical) or e^{-i E_n t} (quantum)
    for every weight row, as one product with a single phase table.

    With class-summed weight rows w_k[c] = sum_{n in c} Q[k, n] Q[j, n] and
    the class values, the rows are P_{k,j}(t) or the amplitudes alpha_{k,j}(t).
    """
    ts = _as_times(t, require_nonneg=kind == "classical")
    phases = _phases(np.asarray(eigenvalues, dtype=float), ts, kind)
    weights = np.asarray(weights, dtype=float)
    return (weights if kind == "classical" else weights.astype(complex)) @ phases


def _pair_weights(s: Spectrum, k, j: int) -> np.ndarray:
    """Class-summed <k|q_n><q_n|j> for target row(s) k (0-based), start index j."""
    return _class_sum(s, s.eigenvectors[k] * s.eigenvectors[j])


def classical_prob(s: Spectrum, k: int, j: int, t):
    """P_{k,j}(t) = sum_n e^{-t E_n} <k|q_n><q_n|j>, by class."""
    ki, ji = _node_index(s, k, "k"), _node_index(s, j, "j")
    return _scalar_like(t, pair_kernel(_pair_weights(s, ki, ji), s.class_values, t, "classical"))


def quantum_amplitude(s: Spectrum, k: int, j: int, t):
    """alpha_{k,j}(t) = <k|e^{-iHt}|j> = sum_n e^{-i t E_n} <k|q_n><q_n|j>, by class."""
    ki, ji = _node_index(s, k, "k"), _node_index(s, j, "j")
    amp = pair_kernel(_pair_weights(s, ki, ji), s.class_values, t, "quantum")
    return complex(amp) if np.isscalar(t) or np.ndim(t) == 0 else amp


def quantum_prob(s: Spectrum, k: int, j: int, t):
    """pi_{k,j}(t) = |alpha_{k,j}(t)|^2."""
    amp = quantum_amplitude(s, k, j, t)
    return _scalar_like(t, np.abs(np.asarray(amp)) ** 2)


def pair_table(s: Spectrum, quantity: str, j: int, t) -> np.ndarray:
    """P_{k,j}(t) (classical_pair) or pi_{k,j}(t) (quantum_pair) for every
    target node k = 1..n: row k-1 holds target k.  One phase table, one
    matrix product and one probability-bound check for the whole table;
    values stay unclamped."""
    if quantity not in PAIR_QUANTITIES:
        raise ValueError(f"pair_table needs one of {PAIR_QUANTITIES}, got {quantity!r}")
    ji = _node_index(s, j, "j")
    kind = quantity.partition("_")[0]
    table = pair_kernel(_pair_weights(s, slice(None), ji), s.class_values, t, kind)
    if kind == "quantum":
        table = np.abs(table) ** 2
    _check_prob_bounds(table, quantity)
    return table


def propagator(s: Spectrum, t: float, kind: str) -> np.ndarray:
    """Spectral-path propagator: e^{-tL} (classical, real) or e^{-itL}
    (quantum, complex)."""
    if kind == "classical" and t < 0:
        raise ValueError("classical propagation requires t >= 0 (semigroup, not a group)")
    q = s.eigenvectors
    phases = _phases(s.eigenvalues, t, kind)
    return (q * phases if kind == "classical" else q.astype(complex) * phases) @ q.T


def transition_matrix(s: Spectrum, t: float, kind: str) -> ProbabilityMatrix:
    """All n^2 transition probabilities at time t in one pass; columns sum
    to 1 (conservation / unitarity)."""
    u = propagator(s, t, kind)
    entries = u if kind == "classical" else np.abs(u) ** 2
    return ProbabilityMatrix(s.n, entries, quantity=f"{kind}_transition", time=float(t))


def lta_matrix(s: Spectrum) -> ProbabilityMatrix:
    """chi_{k,j} for all pairs: sum over classes of the squared entries of the
    class eigenprojector.  Symmetric; rows and columns sum to 1."""
    acc = np.zeros((s.n, s.n))
    bounds = np.append(s.class_starts, s.n).tolist()
    for start, stop in zip(bounds, bounds[1:]):
        qc = s.eigenvectors[:, start:stop]
        proj = qc @ qc.T
        proj = 0.5 * (proj + proj.T)
        acc += proj**2
    return ProbabilityMatrix(s.n, acc, quantity="lta")


def avg_return_classical(s: Spectrum, t):
    """P-bar(t) = (1/N) sum over classes of D_c e^{-t E_c}; eigenvalues only."""
    ts = _as_times(t, require_nonneg=True)
    return _scalar_like(t, (_class_mults(s) @ _phases(s.class_values, ts, "classical")) / s.n)


def avg_return_quantum(s: Spectrum, t):
    """pi-bar(t) = (1/N) sum_j |alpha_{j,j}(t)|^2; needs the eigenvectors."""
    amps = pair_kernel(_class_sum(s, s.eigenvectors**2), s.class_values, t, "quantum")
    return _scalar_like(t, np.mean(np.abs(amps) ** 2, axis=0))


def alpha_bar_sq(s: Spectrum, t):
    """|alpha-bar(t)|^2 = |(1/N) sum over classes of D_c e^{-i t E_c}|^2,
    the eigenvalue-only lower bound of pi-bar(t)."""
    ts = _as_times(t, require_nonneg=False)
    amp = (_class_mults(s).astype(complex) @ _phases(s.class_values, ts, "quantum")) / s.n
    return _scalar_like(t, np.abs(amp) ** 2)


def chi_bar(s: Spectrum) -> float:
    """Asymptotic value of pi-bar(t): the mean of the LTA-matrix diagonal,
    computed directly from the class projector diagonals."""
    return float(np.mean(np.sum(_class_sum(s, s.eigenvectors**2) ** 2, axis=1)))


def chi_bar_lb(s: Spectrum) -> float:
    """Eigenvalue-only lower bound of chi-bar: (1/N^2) sum of squared class
    multiplicities; a sum of integers below 2^53, so exact until the division."""
    return float(np.sum(_class_mults(s) ** 2)) / s.n**2


def approx_alpha_bar_sq(s: Spectrum, class_index: int, t):
    """Dominant-degeneracy truncation of |alpha-bar(t)|^2 around class l:
    (1/N^2)[D_l^2 + 2 sum_{c != l} D_c D_l cos((E_c - E_l) t)].

    Not a probability (it may leave [0, 1]), so it is exported unclamped
    under its own series tag.
    """
    if not (0 <= class_index < len(s.classes)):
        raise ValueError(f"class_index must be in 0..{len(s.classes) - 1}, got {class_index}")
    ts = _as_times(t, require_nonneg=False)
    mult, vals = _class_mults(s), s.class_values
    d_l, e_l = mult[class_index], vals[class_index]
    others = np.arange(len(s.classes)) != class_index
    cosines = np.cos(np.multiply.outer(vals[others] - e_l, ts))
    out = (d_l**2 + 2.0 * d_l * (mult[others] @ cosines)) / s.n**2
    return _scalar_like(t, out)


def series(
    s: Spectrum, grid: TimeGrid, quantity: str, class_index: int | None = None
) -> TransportSeries:
    """Evaluate one scalar, non-pair transport quantity over a TimeGrid.

    The approximation needs the degeneracy-class index.  Pair series come
    from pair_table, which evaluates every target node at once.
    """
    if quantity in PAIR_QUANTITIES:
        raise ValueError(f"{quantity} series come from pair_table, not series")
    ts = grid.times()
    if quantity == "classical_avg_return":
        values = avg_return_classical(s, ts)
    elif quantity == "quantum_avg_return":
        values = avg_return_quantum(s, ts)
    elif quantity == "alpha_bar_sq":
        values = alpha_bar_sq(s, ts)
    elif quantity == "approx_alpha_bar_sq":
        if class_index is None:
            raise ValueError("approx_alpha_bar_sq requires a class_index")
        values = approx_alpha_bar_sq(s, class_index, ts)
    else:
        raise ValueError(f"unknown quantity tag {quantity!r}")
    return TransportSeries(quantity=quantity, times=ts, values=values)
