"""Independent reference computations for the test suite."""

from __future__ import annotations

import numpy as np

from ctwalk import serialize

_EXPM_SERIES_ORDER = 20
_EXPM_SCALE_LIMIT = 0.5


def expm_oracle(matrix, t: float, kind: str) -> np.ndarray:
    """Scaling-and-squaring truncated power series for e^{-tL} (classical) or
    e^{-itL} (quantum).

    The argument is halved until its max-abs entry is <= 0.5, the Taylor
    series is summed to order 20, and the result squared back up.  This is a
    validation oracle for the spectral route, not a production path.
    """
    a = np.asarray(matrix, dtype=float)
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


def laplacian_oracle(n: int, pairs) -> np.ndarray:
    """L = Z - A of the graph on nodes 1..n with the given 1-based edges,
    built one edge at a time in Python integers: an edge given twice, in
    either orientation, counts once."""
    rows = [[0] * n for _ in range(n)]
    for u, v in {(min(u, v), max(u, v)) for u, v in pairs}:
        rows[u - 1][v - 1] -= 1
        rows[v - 1][u - 1] -= 1
        rows[u - 1][u - 1] += 1
        rows[v - 1][v - 1] += 1
    return np.array(rows, dtype=np.int64).reshape(n, n)


def propagator(s, t: float, kind: str) -> np.ndarray:
    """e^{-tL} (classical, real) or e^{-itL} (quantum, complex) at one time t,
    from the raw eigenvalues and eigenvectors of the Spectrum s.

    This is the matrix route: it evaluates its own phases, one per
    eigenvalue rather than one per degeneracy class, so it stays independent
    of the class phase tables that ctwalk reads every series from.
    """
    if kind == "classical":
        phases = np.exp(-t * s.eigenvalues)
    elif kind == "quantum":
        phases = np.exp(-1j * t * s.eigenvalues)
    else:
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")
    q = s.eigenvectors
    return (q * phases) @ q.T


def transition_matrix(s, t: float, kind: str) -> np.ndarray:
    """All n^2 transition probabilities at time t from the propagator: entry
    [k-1, j-1] is target node k from start node j."""
    u = propagator(s, t, kind)
    return u if kind == "classical" else np.abs(u) ** 2


def approx_difference_form(s, class_index: int, t) -> np.ndarray:
    """The dominant-degeneracy truncation of |alpha-bar(t)|^2 around class l
    in its difference form, (1/N^2)[D_l^2 + 2 sum_{c != l} D_c D_l
    cos((E_c - E_l) t)], with one cosine per class difference rather than
    the products of the class phase table."""
    ts = np.asarray(t, dtype=float)
    mult, vals = s.class_sizes, s.class_values
    d_l, e_l = mult[class_index], vals[class_index]
    others = np.arange(vals.size) != class_index
    cosines = np.cos(np.multiply.outer(vals[others] - e_l, ts))
    return (d_l**2 + 2.0 * d_l * (mult[others] @ cosines)) / s.n**2


_PRIME = 2**31 - 1


def unit_multiplicity(laplacian) -> int:
    """n - rank(L - I), the multiplicity of the Laplacian eigenvalue 1, by
    Gaussian elimination on the integer matrix mod the prime 2^31 - 1 in
    Python integers, with no rounding anywhere.

    A rank mod p is never above the rank over the rationals, and falls below
    it only when p divides every nonzero maximal minor, so the value is the
    exact multiplicity or, in that unlikely case, above it."""
    rows = [[int(x) % _PRIME for x in row] for row in np.asarray(laplacian)]
    n = len(rows)
    for i in range(n):
        rows[i][i] = (rows[i][i] - 1) % _PRIME
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, _PRIME)
        top = [x * inverse % _PRIME for x in rows[rank]]
        rows[rank] = top
        for r in range(rank + 1, n):
            factor = rows[r][col]
            if factor:
                rows[r] = [(x - factor * y) % _PRIME for x, y in zip(rows[r], top)]
        rank += 1
    return n - rank


def formatter_texts(values, json_tokens: bool = False) -> list[str]:
    """The text that serialize._put_words writes for each value (any shape,
    read row-major), or with json_tokens its JSON token: the value's three
    words with their NULs squeezed out.  The values are formatted by one
    call, so _VECTOR_MIN values or more take the numpy path."""
    x = np.asarray(values, dtype=float).ravel()
    words = np.empty((x.size, 3), serialize._WORD)
    serialize._put_words(x, words, json_tokens)
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in words]
