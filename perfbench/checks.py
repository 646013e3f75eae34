"""Output checks made apart from the program.

Each check reads the files one job wrote and compares them with a reference
built here from the benchmark's own edge list: a LAPACK eigendecomposition
(`numpy.linalg.eigh`) evaluated on the whole time grid, `scipy.linalg.expm` at
a few seeded sample times, the paper's table for the ten-node family, and
closed forms for paths, stars and cycles.  Nothing is compared with a saved
copy of earlier output.

A check returns a list of error strings; an empty list means the output
passed.  Checks of later jobs may read results that earlier, passing jobs of
the same graph stored in the `Checker` (CSV against JSON, LTA against the
report).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import (
    FAMILY_CHI_BAR_LB,
    FAMILY_SYMMETRY,
    FAMILY_VERDICT,
)

TOL = 1e-9          # series and matrix values
EXACT_TOL = 1e-12   # closed forms and identities between two outputs
DEG_TOL = 1e-8      # the CLI's default degeneracy tolerance
SAMPLES = 6         # seeded sample times checked against expm per output
FAMILY_FILES = ("alpha_bar_sq", "classical_avg_return", "quantum_avg_return")
VERDICTS = ("quantum_more_efficient", "classical_more_efficient", "indeterminate")


class Reference:
    """Spectral reference for one graph, from `numpy.linalg.eigh`."""

    def __init__(self, n, edges):
        lap = np.zeros((n, n))
        for u, v in edges:
            lap[u - 1, v - 1] = lap[v - 1, u - 1] = -1.0
        lap[np.diag_indices(n)] = -lap.sum(axis=1)
        self.n, self.lap = n, lap
        self.w, self.v = np.linalg.eigh(lap)
        cuts = np.flatnonzero(np.diff(self.w) > DEG_TOL) + 1
        self.classes = np.split(np.arange(n), cuts)

    def avg_returns(self, ts):
        """(classical, quantum, alpha_bar_sq) average return series."""
        cls = np.exp(-np.multiply.outer(self.w, ts)).sum(axis=0) / self.n
        phases = np.exp(-1j * np.multiply.outer(self.w, ts))
        quantum = np.mean(np.abs((self.v**2) @ phases) ** 2, axis=0)
        alpha = np.abs(phases.sum(axis=0) / self.n) ** 2
        return cls, quantum, alpha

    def approx_alpha_bar_sq(self, ts):
        mult = np.array([len(c) for c in self.classes], dtype=float)
        vals = np.array([self.w[c].mean() for c in self.classes])
        dom = int(np.argmin(np.abs(vals - 1.0)))
        others = np.arange(len(mult)) != dom
        cosines = np.cos(np.multiply.outer(vals[others] - vals[dom], ts))
        return (mult[dom] ** 2 + 2.0 * mult[dom] * (mult[others] @ cosines)) / self.n**2

    def pairs(self, j, ts):
        """P[k, t] and pi[k, t] for start node j (1-based)."""
        weights = self.v * self.v[j - 1]
        classical = weights @ np.exp(-np.multiply.outer(self.w, ts))
        quantum = np.abs(weights @ np.exp(-1j * np.multiply.outer(self.w, ts))) ** 2
        return classical, quantum

    def lta(self):
        acc = np.zeros((self.n, self.n))
        for c in self.classes:
            q = self.v[:, c]
            acc += (q @ q.T) ** 2
        return acc

    def chi_bar_lb(self):
        return sum(len(c) ** 2 for c in self.classes) / self.n**2

    def symmetry_degree(self):
        for c in self.classes:
            if abs(self.w[c].mean() - 1.0) <= DEG_TOL and len(c) >= 2:
                return len(c)
        return 0

    def expm(self, t, quantum):
        return scipy.linalg.expm((-1j if quantum else -1.0) * t * self.lap)


def expected_chi_bar_lb(job, ref):
    """The eigenvalue-only bound sum(D_c^2)/N^2: the paper's table for the
    family, a closed form for paths, stars and even cycles, and the
    reference spectrum grouped at DEG_TOL otherwise."""
    kind, n = job.graph.kind, job.graph.n
    if kind == "family":
        return FAMILY_CHI_BAR_LB[job.params["label"]]
    if kind == "path":
        return 1.0 / n
    if kind == "star":
        return ((n - 2) ** 2 + 2) / n**2
    if kind == "cycle" and n % 2 == 0:
        return (2 * n - 2) / n**2
    return ref.chi_bar_lb()


def grid(times):
    start, stop, step = times
    count = int(round((stop - start) / step)) + 1
    return start + step * np.arange(count)


def read_csv_columns(path: Path):
    """Header names and a (rows, columns) float array of a CSV file."""
    text = path.read_text()
    header, _, body = text.partition("\n")
    names = header.split(",")
    values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    return names, values.reshape(-1, len(names))


def read_csv_matrix(path: Path):
    rows = path.read_text().splitlines()
    return np.array([row.split(",") for row in rows], dtype=float)


def _close(errors, what, got, want, tol=TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    if got.size and not np.all(np.abs(got - want) <= tol):
        worst = float(np.max(np.abs(got - want)))
        errors.append(f"{what}: off by {worst:.3e} (tolerance {tol:g})")


def _file_set(errors, out_dir: Path, expected):
    present = sorted(p.name for p in out_dir.iterdir())
    if present != sorted(expected):
        errors.append(f"files {present}, expected {sorted(expected)}")
        return False
    return True


def _check_grid(errors, ts_out, times):
    ts = grid(times)
    _close(errors, "time column", ts_out, ts)
    if len(ts_out) and ts_out[-1] != times[1]:
        errors.append(f"last row at t={ts_out[-1]!r}, stated stop {times[1]!r}")


def _check_stochastic(errors, m, what):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        errors.append(f"{what}: not a square matrix, shape {m.shape}")
        return False
    if np.any(m < 0) or np.any(m > 1):
        errors.append(f"{what}: entries outside [0, 1]")
    _close(errors, f"{what} symmetry", m, m.T, EXACT_TOL)
    _close(errors, f"{what} row sums", m.sum(axis=1), np.ones(len(m)))
    _close(errors, f"{what} column sums", m.sum(axis=0), np.ones(len(m)))
    return True


class Checker:
    """Runs the check named by each job; holds references and the results of
    passing outputs that later checks of the same graph compare against."""

    def __init__(self, sample_seed: int):
        self.rng = np.random.default_rng(sample_seed)
        self.refs = {}
        self.passed = {}

    def ref(self, graph):
        if graph.key not in self.refs:
            self.refs[graph.key] = Reference(graph.n, graph.edges)
        return self.refs[graph.key]

    def check(self, job, out_dir: Path, stdout: str):
        errors = []
        try:
            result = getattr(self, "_" + job.check)(job, out_dir, stdout, errors)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
            result = None
        if not errors and job.id not in self.passed:
            self.passed[job.id] = result
        return errors

    def _sample_indices(self, count):
        return np.sort(self.rng.choice(count, size=min(SAMPLES, count), replace=False))

    def _family_gen(self, job, out_dir, stdout, errors):
        label = job.params["label"]
        want = f"n=10 q=9 D_l={FAMILY_SYMMETRY[label]}"
        if stdout.splitlines()[:1] != [want]:
            errors.append(f"gen printed {stdout.splitlines()[:1]}, expected {want!r}")
        name = f"family_{label}.edges"
        if _file_set(errors, out_dir, [name]):
            lines = (out_dir / name).read_text().split("\n")
            edges = {tuple(sorted(map(int, line.split()))) for line in lines[1:] if line}
            if lines[0] != "n 10" or edges != set(job.graph.edges):
                errors.append(f"{name} does not hold the family {label} graph")
            ref = self.ref(job.graph)
            if ref.symmetry_degree() != FAMILY_SYMMETRY[label]:
                errors.append("reference spectrum disagrees with the paper's D_l")

    def _family_evolve(self, job, out_dir, stdout, errors):
        fmt = job.params["fmt"]
        if not _file_set(errors, out_dir, [f"{q}.{fmt}" for q in FAMILY_FILES]):
            return None
        series = {}
        for q in FAMILY_FILES:
            path = out_dir / f"{q}.{fmt}"
            if fmt == "csv":
                names, cols = read_csv_columns(path)
                want = ["t", "value", "approx"] if q == "alpha_bar_sq" else ["t", "value"]
                if names != want:
                    errors.append(f"{path.name}: header {names}, expected {want}")
                    return None
                series[q] = dict(zip(names, cols.T))
            else:
                obj = json.loads(path.read_text())
                if obj["quantity"] != q:
                    errors.append(f"{path.name}: quantity {obj['quantity']!r}")
                series[q] = {"t": np.array(obj["times"]), "value": np.array(obj["values"])}
                if q == "alpha_bar_sq":
                    series[q]["approx"] = np.array(obj["approx"])

        times = job.params["times"]
        ts = grid(times)
        ref = self.ref(job.graph)
        classical, quantum, alpha = ref.avg_returns(ts)
        want = {"classical_avg_return": classical, "quantum_avg_return": quantum,
                "alpha_bar_sq": alpha}
        for q in FAMILY_FILES:
            _check_grid(errors, series[q]["t"], times)
            _close(errors, f"{q} vs eigh", series[q]["value"], want[q])
        _close(errors, "approx_alpha_bar_sq vs eigh", series["alpha_bar_sq"]["approx"],
               ref.approx_alpha_bar_sq(ts))
        if errors:
            return None

        n = ref.n
        for i in self._sample_indices(len(ts)):
            c, u = ref.expm(ts[i], False), ref.expm(ts[i], True)
            at = f"t={ts[i]:g}"
            _close(errors, f"classical_avg_return vs expm at {at}",
                   series["classical_avg_return"]["value"][i], np.trace(c).real / n)
            _close(errors, f"quantum_avg_return vs expm at {at}",
                   series["quantum_avg_return"]["value"][i], np.mean(np.abs(np.diag(u)) ** 2))
            _close(errors, f"alpha_bar_sq vs expm at {at}",
                   series["alpha_bar_sq"]["value"][i], abs(np.trace(u) / n) ** 2)

        other = self.passed.get(job.params.get("same_as"))
        if other is not None:
            for q in FAMILY_FILES:
                for col in series[q]:
                    _close(errors, f"{q}.{col}: json vs csv", series[q][col], other[q][col],
                           EXACT_TOL)
        return series

    def _pairs(self, job, out_dir, stdout, errors):
        j, times, n = job.params["j"], job.params["times"], job.graph.n
        names = {(q, k): f"{q}_pair_k{k}_j{j}.csv"
                 for q in ("classical", "quantum") for k in range(1, n + 1)}
        if not _file_set(errors, out_dir, names.values()):
            return None
        ts = grid(times)
        got = {"classical": np.empty((n, len(ts))), "quantum": np.empty((n, len(ts)))}
        for (q, k), name in names.items():
            header, cols = read_csv_columns(out_dir / name)
            if header != ["t", "value"] or cols.shape != (len(ts), 2):
                errors.append(f"{name}: header {header}, shape {cols.shape}")
                return None
            _check_grid(errors, cols[:, 0], times)
            got[q][k - 1] = cols[:, 1]
        ref = self.ref(job.graph)
        want = dict(zip(("classical", "quantum"), ref.pairs(j, ts)))
        for q in got:
            if np.any(got[q] < 0) or np.any(got[q] > 1):
                errors.append(f"{q}_pair: values outside [0, 1]")
            _close(errors, f"{q}_pair column sums", got[q].sum(axis=0), np.ones(len(ts)))
            _close(errors, f"{q}_pair vs eigh", got[q], want[q])
        for i in self._sample_indices(len(ts)):
            _close(errors, f"classical_pair vs expm at t={ts[i]:g}",
                   got["classical"][:, i], ref.expm(ts[i], False)[:, j - 1].real)
            _close(errors, f"quantum_pair vs expm at t={ts[i]:g}",
                   got["quantum"][:, i], np.abs(ref.expm(ts[i], True)[:, j - 1]) ** 2)
        return None

    def _lta(self, job, out_dir, stdout, errors):
        fmt, n = job.params["fmt"], job.graph.n
        name = f"lta.{fmt}"
        if not _file_set(errors, out_dir, [name]):
            return None
        if fmt == "csv":
            m = read_csv_matrix(out_dir / name)
        else:
            obj = json.loads((out_dir / name).read_text())
            if (obj["quantity"], obj["n"], obj["labels"], obj["time"]) != (
                    "lta", n, list(range(1, n + 1)), None):
                errors.append(f"{name}: wrong quantity, size, labels or time")
            m = np.array(obj["entries"], dtype=float)
        if not _check_stochastic(errors, m, name):
            return None
        ref = self.ref(job.graph)
        _close(errors, f"{name} vs eigh", m, ref.lta())
        lb = expected_chi_bar_lb(job, ref)
        if np.mean(np.diag(m)) < lb - EXACT_TOL:
            errors.append(f"{name}: mean diagonal {np.mean(np.diag(m))} below chi_bar_lb {lb}")
        return float(np.mean(np.diag(m)))

    def _report(self, job, out_dir, stdout, errors):
        if not _file_set(errors, out_dir, ["report.json"]):
            return None
        rep = json.loads((out_dir / "report.json").read_text())
        g, ref = job.graph, self.ref(job.graph)
        if (rep["n"], rep["q"]) != (g.n, len(g.edges)):
            errors.append(f"report n, q = {rep['n']}, {rep['q']}; expected {g.n}, {len(g.edges)}")
        if rep["verdict"] not in VERDICTS:
            errors.append(f"unknown verdict {rep['verdict']!r}")
        if g.kind == "family" and rep["verdict"] != FAMILY_VERDICT[job.params["label"]]:
            errors.append(f"verdict {rep['verdict']!r}, "
                          f"paper says {FAMILY_VERDICT[job.params['label']]!r}")
        _close(errors, "chi_bar_lb", rep["chi_bar_lb"], expected_chi_bar_lb(job, ref), EXACT_TOL)
        if rep["symmetry_degree"] != ref.symmetry_degree():
            errors.append(f"symmetry_degree {rep['symmetry_degree']}, "
                          f"expected {ref.symmetry_degree()}")
        _close(errors, "chi_bar vs eigh", rep["chi_bar"], np.mean(np.diag(ref.lta())))
        if rep["chi_bar"] < rep["chi_bar_lb"] - EXACT_TOL:
            errors.append("chi_bar below chi_bar_lb")
        lta_diag = self.passed.get(job.params["lta"])
        if lta_diag is not None:
            _close(errors, "chi_bar vs LTA mean diagonal", rep["chi_bar"], lta_diag, EXACT_TOL)
        return None
