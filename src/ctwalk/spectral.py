"""Dense symmetric eigendecomposition and eigenvalue-degeneracy clustering.

The solver is LAPACK's symmetric eigensolver (``numpy.linalg.eigh``).  Its
result is checked, not trusted: before a Spectrum is returned, the
orthogonality residual max|Q^T Q - I| and the eigen-residual
max|L Q - Q diag(w)| must both lie within 1e-10 * max(1, ||L||_F), and a
failure (NaN included) raises ConvergenceError.  Eigenvectors are sign-fixed,
so output is byte-stable across runs on one machine and numpy build.  Within
a degenerate class the basis is whatever LAPACK returns; every quantity
downstream depends only on the class projectors, not on that choice.
Degenerate eigenvalues are grouped into classes by a greedy gap threshold;
every downstream long-time-average formula consumes the same class
partition, so "degenerate" can never mean two different things.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    eigenvalue j), and the degeneracy-class partition of indices 0..n-1."""

    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    classes: tuple[DegeneracyClass, ...]
    deg_tol: float

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.array(getattr(self, name), dtype=float)
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
    out = vectors.copy()
    for j in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, j]))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def cluster_degeneracies(eigenvalues, deg_tol: float = DEFAULT_DEG_TOL):
    """Greedy left-to-right clustering of an ascending eigenvalue array: a new
    class starts whenever the gap to the previous eigenvalue exceeds deg_tol.
    Class value is the mean of its members."""
    w = np.asarray(eigenvalues, dtype=float)
    _check_deg_tol(deg_tol)
    if w.size == 0:
        return []
    if np.any(np.diff(w) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    classes = []
    start = 0
    for i in range(1, w.size):
        if w[i] - w[i - 1] > deg_tol:
            members = tuple(range(start, i))
            classes.append(DegeneracyClass(float(np.mean(w[start:i])), members))
            start = i
    classes.append(DegeneracyClass(float(np.mean(w[start:])), tuple(range(start, w.size))))
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


def symmetry_degree(spectrum: Spectrum) -> int:
    """Multiplicity of the degeneracy class sitting at eigenvalue 1, or 0 if
    that class is absent or non-degenerate (a simple eigenvalue 1 confers no
    symmetry degree)."""
    best = None
    for cls in spectrum.classes:
        dist = abs(cls.value - 1.0)
        if dist <= spectrum.deg_tol and (best is None or dist < abs(best.value - 1.0)):
            best = cls
    if best is None or best.multiplicity < 2:
        return 0
    return best.multiplicity


def format_spectrum(spectrum: Spectrum) -> str:
    """Plain-text dump for debugging and golden tests: eigenvalues to 15
    significant digits plus the (value, multiplicity) class table."""
    lines = [f"n {spectrum.n}", f"deg_tol {spectrum.deg_tol:.15g}", "eigenvalues"]
    lines += [f"{w:.15g}" for w in spectrum.eigenvalues]
    lines.append("classes value multiplicity")
    lines += [f"{c.value:.15g} {c.multiplicity}" for c in spectrum.classes]
    return "\n".join(lines) + "\n"
