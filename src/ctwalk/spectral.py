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
above deg_tol; a run spreading wider than deg_tol is a ValueError.  Every
transport series and long-time average reads class values and class-summed
weights from this one partition, so "degenerate" means one thing throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DEG_TOL = 1e-8

# Largest accepted residual, relative to max(1, ||L||_F).  LAPACK's worst
# case on path/star/cycle/broom/random trees with n <= 300 is about 1.6e-14.
_RESIDUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Raised when the eigensolver fails or its result fails the residual
    check; the message carries the residuals."""


@dataclass(frozen=True)
class DegeneracyClass:
    """One cluster of numerically equal eigenvalues."""

    value: float
    members: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending), orthonormal eigenvectors (column j pairs with
    eigenvalue j), and the degeneracy-class partition of indices 0..n-1 into
    contiguous runs, also as the arrays class_starts and class_values."""

    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    classes: tuple[DegeneracyClass, ...]
    deg_tol: float
    class_starts: np.ndarray = field(init=False, repr=False, compare=False)
    class_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if [i for c in self.classes for i in c.members] != list(range(self.n)):
            raise ValueError("classes must split 0..n-1 into contiguous runs, in order")
        for name, arr in (
            ("eigenvalues", np.array(self.eigenvalues, dtype=float)),
            ("eigenvectors", np.array(self.eigenvectors, dtype=float)),
            ("class_starts", np.array([c.members[0] for c in self.classes], dtype=np.intp)),
            ("class_values", np.array([c.value for c in self.classes], dtype=float)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_deg_tol(deg_tol: float) -> None:
    """Reject a deg_tol that is not finite and positive: a NaN or inf gap
    test would merge every eigenvalue into one class."""
    if not (math.isfinite(deg_tol) and deg_tol > 0):
        raise ValueError(f"deg_tol must be finite and positive, got {deg_tol!r}")


def _check_residuals(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
    """Raise ConvergenceError unless v is orthonormal and a v = v diag(w) to
    within _RESIDUAL_TOL * max(1, ||a||_F).  Written so that NaN fails."""
    tol = _RESIDUAL_TOL * max(1.0, float(np.linalg.norm(a)))
    orth = float(np.max(np.abs(v.T @ v - np.eye(a.shape[0])), initial=0.0))
    eig = float(np.max(np.abs(a @ v - v * w), initial=0.0))
    if not (orth <= tol and eig <= tol):
        raise ConvergenceError(
            f"eigendecomposition failed its residual check: orthogonality residual "
            f"{orth:.3e}, eigen-residual {eig:.3e}, tolerance {tol:.3e}"
        )


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: the first component of largest magnitude
    in each column is made positive (ties resolved by np.argmax's lowest
    index)."""
    if not vectors.size:
        return vectors.copy()
    lead = np.argmax(np.abs(vectors), axis=0)
    return vectors * np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)


def cluster_degeneracies(eigenvalues, deg_tol: float = DEFAULT_DEG_TOL):
    """Split an ascending eigenvalue array into classes wherever the gap to
    the previous eigenvalue exceeds deg_tol; class value is the mean of its
    members.  A chain of small gaps spreading wider than deg_tol from first
    to last member is a ValueError."""
    w = np.asarray(eigenvalues, dtype=float)
    _check_deg_tol(deg_tol)
    if w.size == 0:
        return []
    if np.any(np.diff(w) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(w) > deg_tol) + 1, [w.size]))
    b = bounds.tolist()
    classes = [DegeneracyClass(float(np.mean(w[i:j])), tuple(range(i, j))) for i, j in zip(b, b[1:])]
    spreads = w[bounds[1:] - 1] - w[bounds[:-1]]
    if np.any(spreads > deg_tol):
        c = int(np.argmax(spreads))
        raise ValueError(
            f"degeneracy class at {classes[c].value:.15g} spreads {spreads[c]:.3e}, wider "
            f"than deg_tol {deg_tol:.3e}; lower --deg-tol to split it"
        )
    return classes


def eigendecompose(matrix, deg_tol: float = DEFAULT_DEG_TOL) -> Spectrum:
    """Full spectrum of a symmetric matrix given as an array, such as the
    integer matrix graphs.laplacian returns.

    Eigenvalues come back ascending with sign-fixed orthonormal eigenvectors
    and the degeneracy-class partition at tolerance ``deg_tol``.  ``deg_tol``
    also bounds the accepted input asymmetry.  A non-finite entry is a
    ValueError naming its 0-based [row, column]; so is a deg_tol that is not
    finite and positive.

    Raises ConvergenceError when LAPACK fails or its result fails the
    residual check (see the module docstring).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _check_deg_tol(deg_tol)
    finite = np.isfinite(a)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"matrix entry [{row}, {col}] is not finite ({a[row, col]})")
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > deg_tol:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    a = 0.5 * (a + a.T)

    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    _check_residuals(a, w, v)
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = _fix_signs(v[:, order])
    classes = tuple(cluster_degeneracies(w, deg_tol))
    return Spectrum(n=a.shape[0], eigenvalues=w, eigenvectors=v, classes=classes, deg_tol=deg_tol)


def nearest_class(spectrum: Spectrum, value: float = 1.0) -> int:
    """Index of the degeneracy class whose value is closest to ``value``."""
    return int(np.argmin(np.abs(spectrum.class_values - value)))


def symmetry_degree(spectrum: Spectrum) -> int:
    """Multiplicity of the degeneracy class sitting at eigenvalue 1 (the
    class nearest 1, if within deg_tol of it), or 0 if that class is absent
    or non-degenerate (a simple eigenvalue 1 confers no symmetry degree)."""
    cls = spectrum.classes[nearest_class(spectrum, 1.0)] if spectrum.classes else None
    if cls is None or abs(cls.value - 1.0) > spectrum.deg_tol or cls.multiplicity < 2:
        return 0
    return cls.multiplicity


def format_spectrum(spectrum: Spectrum) -> str:
    """Plain-text dump for debugging and golden tests: eigenvalues to 15
    significant digits plus the (value, multiplicity) class table."""
    lines = [f"n {spectrum.n}", f"deg_tol {spectrum.deg_tol:.15g}", "eigenvalues"]
    lines += [f"{w:.15g}" for w in spectrum.eigenvalues]
    lines.append("classes value multiplicity")
    lines += [f"{c.value:.15g} {c.multiplicity}" for c in spectrum.classes]
    return "\n".join(lines) + "\n"
