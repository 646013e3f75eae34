"""Dense symmetric eigendecomposition and eigenvalue-degeneracy clustering.

The solver is LAPACK's symmetric eigensolver (``numpy.linalg.eigh``).  Its
result is checked, not trusted: before a Spectrum is returned, the
orthogonality residual max|Q^T Q - I| and the eigen-residual
max|L Q - Q diag(w)| must both lie within 1e-10 * max(1, ||L||_F), and a
failure (NaN included) raises ConvergenceError.  Eigenvectors are sign-fixed,
so output is byte-stable across runs on one machine and numpy build.  Within
a degenerate class the basis is whatever LAPACK returns; every quantity
downstream depends only on the class projectors, not on that choice.
The eigenvalues split into degeneracy classes, contiguous runs, at every gap
above deg_tol; a run spreading wider than deg_tol is a ValueError, and so is
a deg_tol below ten times the eigen-residual, where noise could split a
class.  So is a class wider than 4 (r_first + r_last) + n eps max|w|, with
r_i = ||L q_i - w_i q_i||_2: each w_i lies within r_i of a true eigenvalue
(Parlett), so such a class merges distinct ones.  The partition is kept as
arrays on the Spectrum (class_starts, class_sizes, class_values), and every
transport series and long-time average reads class values and class-summed
weights from it, so "degenerate" means one thing throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DEG_TOL = 1e-8

# Largest accepted residual, relative to max(1, ||L||_F).  LAPACK's worst
# case on path/star/cycle/broom/random trees with n <= 300 is about 1.6e-14.
_RESIDUAL_TOL = 1e-10

# Smallest accepted deg_tol, as a multiple of the eigen-residual max|L Q - Q
# diag(w)|.  Each computed eigenvalue lies within its residual column's
# 2-norm of a true one, and on the graphs measured (family:e, stars up to
# n = 2000, a 1000-node broom) that norm equals the largest entry to two
# digits, so noise can part two members of one class by about twice the
# residual; a deg_tol under ten times it could split a class.  Star graphs
# have the largest residuals measured, at most 6.3e-11 (n = 3000) for
# n <= 4096, so the default deg_tol clears the floor.
_DEG_TOL_FLOOR = 10.0

# Slack on the merge bound for the rounding of the residual norms: at the
# default deg_tol, spread / (r_first + r_last) is at most 1.022 on the graphs
# measured; family:e at deg_tol 100, merging {0, 1 x 8, 10}, gives 2.6e15.
_MERGE_SLACK = 4.0


class ConvergenceError(RuntimeError):
    """Raised when the eigensolver fails or its result fails the residual
    check; the message carries the residuals."""


@dataclass(frozen=True, init=False)
class Spectrum:
    """Eigenvalues (ascending), orthonormal eigenvectors (column j pairs with
    eigenvalue j), and the degeneracy-class partition of indices 0..n-1 into
    contiguous runs: class_starts (each class's first index), class_values
    and class_sizes (each class's member count, derived from class_starts).

    Spectrum(n, eigenvalues, eigenvectors, deg_tol, class_starts,
    class_values) checks that the starts split 0..n-1 into contiguous runs,
    in order, one value per class, and sets every array read-only (an
    ndarray of the right dtype is kept, not copied).  A rotated basis is
    dataclasses.replace(s, eigenvectors=...), which keeps the partition."""

    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    deg_tol: float
    class_starts: np.ndarray = field(repr=False, compare=False)
    class_values: np.ndarray = field(repr=False, compare=False)
    class_sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, n, eigenvalues, eigenvectors, deg_tol, class_starts, class_values):
        starts = np.asarray(class_starts, dtype=np.intp)
        values = np.asarray(class_values, dtype=float)
        # The class bounds: the starts, then n.  The runs are contiguous and
        # in order when the bounds begin at 0 and rise strictly.
        bounds = np.empty(starts.size + 1, np.intp)
        bounds[:-1] = starts
        bounds[-1] = n
        sizes = np.subtract(bounds[1:], bounds[:-1])
        if not (values.shape == starts.shape and bounds[0] == 0 and (not sizes.size or sizes.min() > 0)):
            raise ValueError("classes must split 0..n-1 into contiguous runs, in order")
        arrays = {"eigenvalues": np.asarray(eigenvalues, dtype=float),
                  "eigenvectors": np.asarray(eigenvectors, dtype=float),
                  "class_starts": starts, "class_values": values, "class_sizes": sizes}
        for arr in arrays.values():
            arr.setflags(write=False)
        self.__dict__.update(arrays, n=n, deg_tol=deg_tol)  # past the frozen __setattr__


def _check_deg_tol(deg_tol: float) -> None:
    """Reject a deg_tol that is not finite and positive: a NaN or inf gap
    test would merge every eigenvalue into one class."""
    if not (math.isfinite(deg_tol) and deg_tol > 0):
        raise ValueError(f"deg_tol must be finite and positive, got {deg_tol!r}")


def _check_residuals(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Raise ConvergenceError unless v is orthonormal and a v = v diag(w) to
    within _RESIDUAL_TOL * max(1, ||a||_F); return the eigen-residual and the
    residual matrix a v - v diag(w).  Written so that NaN fails."""
    tol = _RESIDUAL_TOL * max(1.0, float(np.linalg.norm(a)))
    gram = v.T @ v
    gram.ravel()[:: a.shape[0] + 1] -= 1.0
    orth = float(np.abs(gram, out=gram).max())
    residual = a @ v
    residual -= v * w
    eig = float(np.abs(residual).max())
    if not (orth <= tol and eig <= tol):
        raise ConvergenceError(
            f"eigendecomposition failed its residual check: orthogonality residual "
            f"{orth:.3e}, eigen-residual {eig:.3e}, tolerance {tol:.3e}"
        )
    return eig, residual


def _fix_signs(vectors: np.ndarray) -> None:
    """Deterministic sign convention, applied in place: the first component
    of largest magnitude in each column is made positive (ties resolved by
    np.argmax's lowest index)."""
    if vectors.size:
        # Each column as a contiguous row, so that argmax runs along memory.
        lead = np.abs(vectors.T, order="C").argmax(axis=1)
        vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)


def _partition(w: np.ndarray, deg_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degeneracy classes of an ascending eigenvalue array as arrays:
    first members, member counts and values.  A class ends wherever the gap
    to the next eigenvalue exceeds deg_tol; its value is the mean of its
    members, which for a one-member class is its eigenvalue.  A chain of
    small gaps spreading wider than deg_tol from first to last member is a
    ValueError."""
    gaps = w[1:] - w[:-1]
    # A class ends where the next gap exceeds deg_tol, and at the end of w.
    cut = np.empty(w.size + 1, bool)
    cut[0] = cut[-1] = True
    np.greater(gaps, deg_tol, out=cut[1:-1])
    bounds = cut.nonzero()[0]
    starts, ends = bounds[:-1], bounds[1:]
    sizes = ends - starts
    if starts.size == w.size:
        return starts, sizes, w.copy()  # every class has one member
    # A class's value is its members' sum over their count, which is how
    # np.mean forms it, bit for bit.  Up to two members np.add.reduceat sums
    # them as np.add.reduce does, save that np.add.reduce's zero start turns
    # a pair of -0.0 into 0.0; larger classes, rare in graph spectra, are
    # summed by np.add.reduce itself, whose order np.add.reduceat does not
    # follow.
    values = np.add.reduceat(w, starts)
    values[sizes == 2] += 0.0
    values /= sizes
    large = (sizes > 2).nonzero()[0]
    for c in large.tolist():
        values[c] = np.add.reduce(w[starts[c] : ends[c]]) / sizes[c]
    # Only a class of three or more members can spread wider than deg_tol:
    # a pair spreads one gap.
    spreads = w[ends[large] - 1] - w[starts[large]]
    if (spreads > deg_tol).any():
        c = int(np.argmax(spreads))
        raise ValueError(
            f"degeneracy class at {values[large[c]]:.15g} spreads {spreads[c]:.3e}, wider "
            f"than deg_tol {deg_tol:.3e}; lower --deg-tol to split it"
        )
    return starts, sizes, values


def eigendecompose(matrix, deg_tol: float = DEFAULT_DEG_TOL) -> Spectrum:
    """Full spectrum of a symmetric matrix given as an array, such as the
    integer matrix graphs.laplacian returns.

    Eigenvalues come back ascending with sign-fixed orthonormal eigenvectors
    and the degeneracy-class partition at tolerance ``deg_tol``.  ``deg_tol``
    also bounds the accepted input asymmetry.  A non-finite entry is a
    ValueError naming its 0-based [row, column]; so is a deg_tol that is not
    finite and positive, or one below _DEG_TOL_FLOOR times the eigen-residual,
    or one so wide that a class merges distinct eigenvalues.

    Raises ConvergenceError when LAPACK fails or its result fails the
    residual check (see the module docstring).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _check_deg_tol(deg_tol)
    n = a.shape[0]
    if not n:
        return Spectrum(0, (), np.zeros((0, 0)), deg_tol, (), ())
    finite = np.isfinite(a)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"matrix entry [{row}, {col}] is not finite ({a[row, col]})")
    # a - a.T is antisymmetric, so its largest entry is its largest magnitude.
    asym = float((a - a.T).max())
    if asym > deg_tol:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    if asym:
        a = 0.5 * (a + a.T)  # a symmetric a is this already, bit for bit

    try:
        w, v = np.linalg.eigh(a)  # eigenvalues ascending
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    eig, residual = _check_residuals(a, w, v)
    floor = _DEG_TOL_FLOOR * eig
    if deg_tol < floor:
        raise ValueError(
            f"deg_tol {deg_tol:.3e} is below the floor {floor:.3e}, {_DEG_TOL_FLOOR:g} times "
            f"the eigen-residual, where noise could split a degeneracy class; raise --deg-tol"
        )
    _fix_signs(v)
    starts, sizes, values = _partition(w, deg_tol)
    if starts.size < n:  # some class has two or more members, which could merge
        norms = np.sqrt(np.square(residual, out=residual).sum(axis=0))
        first, last = starts, starts + sizes - 1
        spreads = w[last] - w[first]
        # max(-w[0], w[-1]) is max|w| for an ascending w.  Compared, not
        # divided: equal members with zero residuals pass.
        limits = _MERGE_SLACK * (norms[first] + norms[last])
        limits += n * np.finfo(float).eps * max(-w[0], w[-1])
        merged = spreads > limits
        if merged.any():
            c = int(merged.argmax())
            raise ValueError(
                f"degeneracy class at {values[c]:.15g} spreads {spreads[c]:.3e}, more than "
                f"its residual bound {limits[c]:.3e}, so it merges distinct eigenvalues; lower "
                f"--deg-tol to split it"
            )
    return Spectrum(n, w, v, deg_tol, starts, values)


def nearest_class(spectrum: Spectrum, value: float = 1.0) -> int:
    """Index of the degeneracy class whose value is closest to ``value``."""
    return int(np.argmin(np.abs(spectrum.class_values - value)))


def symmetry_degree(spectrum: Spectrum) -> int:
    """Multiplicity of the degeneracy class sitting at eigenvalue 1 (the
    class nearest 1, if within deg_tol of it), or 0 if that class is absent
    or non-degenerate (a simple eigenvalue 1 confers no symmetry degree)."""
    if not spectrum.n:
        return 0
    c = nearest_class(spectrum, 1.0)
    multiplicity = int(spectrum.class_sizes[c])
    if abs(spectrum.class_values[c] - 1.0) > spectrum.deg_tol or multiplicity < 2:
        return 0
    return multiplicity
