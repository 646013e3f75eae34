"""Independent reference computations for the test suite."""

from __future__ import annotations

import numpy as np

_EXPM_SERIES_ORDER = 20
_EXPM_SCALE_LIMIT = 0.5


def expm_oracle(matrix, t: float, kind: str) -> np.ndarray:
    """Scaling-and-squaring truncated power series for e^{-tL} (classical) or
    e^{-itL} (quantum).

    The argument is halved until its max-abs entry is <= 0.5, the Taylor
    series is summed to order 20, and the result squared back up.  This is a
    validation oracle for the spectral propagators, not a production path.
    """
    a = np.asarray(getattr(matrix, "entries", matrix), dtype=float)
    if kind == "classical":
        b = -t * a
    elif kind == "quantum":
        b = -1j * t * a.astype(complex)
    else:
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")

    scale = 0
    norm = float(np.max(np.abs(b))) if b.size else 0.0
    while norm > _EXPM_SCALE_LIMIT:
        norm /= 2.0
        scale += 1
    b = b / (2.0**scale)

    n = a.shape[0]
    result = np.eye(n, dtype=b.dtype)
    term = np.eye(n, dtype=b.dtype)
    for order in range(1, _EXPM_SERIES_ORDER + 1):
        term = term @ b / order
        result = result + term
    for _ in range(scale):
        result = result @ result
    return result
