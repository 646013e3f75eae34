import warnings

import numpy as np
import pytest

from ctwalk.graphs import from_edge_list, gen_path, gen_star, laplacian
from ctwalk.spectral import (
    ConvergenceError,
    DegeneracyClass,
    Spectrum,
    cluster_degeneracies,
    eigendecompose,
    format_spectrum,
    symmetry_degree,
)

SQ2 = 1.0 / np.sqrt(2.0)


class TestEigendecompose:
    def test_k2_hand_solution(self, k2_spectrum):
        s = k2_spectrum
        assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)
        assert np.allclose(s.eigenvectors[:, 0], [SQ2, SQ2], atol=1e-12)
        assert np.allclose(s.eigenvectors[:, 1], [SQ2, -SQ2], atol=1e-12)

    def test_star10_spectrum(self):
        s = eigendecompose(laplacian(gen_star(10)))
        target = np.array([0.0] + [1.0] * 8 + [10.0])
        assert np.max(np.abs(s.eigenvalues - target)) <= 1e-9
        assert [c.multiplicity for c in s.classes] == [1, 8, 1]

    def test_path10_closed_form_oracle(self):
        s = eigendecompose(laplacian(gen_path(10)))
        oracle = np.sort(2.0 - 2.0 * np.cos(np.arange(10) * np.pi / 10.0))
        assert np.max(np.abs(s.eigenvalues - oracle)) <= 1e-9
        assert all(c.multiplicity == 1 for c in s.classes)

    def test_orthonormality_and_reconstruction(self, family_graphs, family_spectra):
        for label, s in family_spectra.items():
            q = s.eigenvectors
            assert np.max(np.abs(q.T @ q - np.eye(s.n))) <= 1e-10
            recon = q @ np.diag(s.eigenvalues) @ q.T
            assert np.max(np.abs(recon - laplacian(family_graphs[label]))) <= 1e-9

    def test_trace_identity(self, family_graphs, family_spectra):
        for label, s in family_spectra.items():
            assert abs(np.sum(s.eigenvalues) - 2 * family_graphs[label].q) <= 1e-9

    def test_laplacians_positive_semidefinite(self, family_spectra):
        for s in family_spectra.values():
            assert float(s.eigenvalues[0]) >= -1e-9

    def test_connected_zero_mode(self, family_spectra):
        for s in family_spectra.values():
            near_zero = [c for c in s.classes if abs(c.value) <= s.deg_tol]
            assert len(near_zero) == 1 and near_zero[0].multiplicity == 1
            ground = s.eigenvectors[:, 0]
            assert np.max(np.abs(ground - ground[0])) <= 1e-8

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8, 12, 40):
            a = rng.normal(size=(n, n))
            a = a + a.T
            s = eigendecompose(a)
            w_ref = np.linalg.eigvalsh(a)
            assert np.max(np.abs(s.eigenvalues - w_ref)) <= 1e-9
            v = s.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
            assert np.max(np.abs(a @ v - v * s.eigenvalues)) <= 1e-9

    def test_n300_passes_residual_gate(self):
        star = eigendecompose(laplacian(gen_star(300)))
        assert [c.multiplicity for c in star.classes] == [1, 298, 1]
        path = eigendecompose(laplacian(gen_path(300)))
        assert all(c.multiplicity == 1 for c in path.classes)

    def test_plain_array_input(self):
        s = eigendecompose(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(s.eigenvalues, [1.0, 2.0])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigendecompose(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        a[2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entry \[1, 2\] is not finite"):
                eigendecompose(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            eigendecompose(np.zeros((2, 3)))

    def test_rejects_bad_tolerance(self):
        # NaN and inf would merge every eigenvalue into one class
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="deg_tol"):
                eigendecompose(np.eye(2), deg_tol=tol)

    def test_residual_gate_rejects_corrupted_eigenvectors(self, monkeypatch):
        lapack = np.linalg.eigh

        def corrupted(a):
            w, v = lapack(a)
            v = v.copy()
            v[:, 0] += 1e-6
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(ConvergenceError, match="residual"):
            eigendecompose(laplacian(gen_path(5)))

    def test_residual_gate_rejects_nan(self, monkeypatch):
        def nans(a):
            n = a.shape[0]
            return np.full(n, np.nan), np.full((n, n), np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nans)
        with pytest.raises(ConvergenceError, match="residual"):
            eigendecompose(laplacian(gen_path(5)))

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigendecompose(laplacian(gen_path(5)))

    def test_deterministic_signs(self):
        m = laplacian(gen_star(10))
        a = eigendecompose(m)
        b = eigendecompose(m)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        lead = np.argmax(np.abs(a.eigenvectors), axis=0)
        assert np.all(a.eigenvectors[lead, np.arange(a.n)] > 0)


class TestClustering:
    def test_exact_repeats(self):
        classes = cluster_degeneracies([0.0, 1.0, 1.0, 1.0, 3.0], 1e-8)
        assert [(c.value, c.multiplicity) for c in classes] == [(0.0, 1), (1.0, 3), (3.0, 1)]

    def test_sub_tolerance_gap_merges(self):
        classes = cluster_degeneracies([0.0, 1e-12, 2.0], 1e-8)
        assert [c.multiplicity for c in classes] == [2, 1]
        assert abs(classes[0].value - 5e-13) <= 1e-12

    def test_partition_covers_all_indices(self):
        rng = np.random.default_rng(3)
        w = np.sort(rng.uniform(0, 10, size=17))
        classes = cluster_degeneracies(w, 1e-3)
        members = [i for c in classes for i in c.members]
        assert members == list(range(17))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            cluster_degeneracies([1.0, 0.0], 1e-8)

    def test_rejects_bad_tolerance(self):
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="deg_tol"):
                cluster_degeneracies([0.0, 1.0], tol)

    def test_chain_wider_than_tolerance_fails(self):
        # Six eigenvalues 0.9e-8 apart: each gap is within the default
        # deg_tol, but the ends of the chain are 4.5e-8 apart.
        with pytest.raises(ValueError, match=r"spreads 4\.500e-08.*deg_tol 1\.000e-08.*lower --deg-tol"):
            eigendecompose(np.diag(1 + 0.9e-8 * np.arange(6)))

    def test_spectrum_rejects_non_contiguous_classes(self):
        # Class sums read each class as the run from its first member on.
        s = eigendecompose(laplacian(gen_path(3)))
        for classes in (
            (DegeneracyClass(0.0, (0, 2)), DegeneracyClass(1.0, (1,))),
            (DegeneracyClass(0.0, (0,)), DegeneracyClass(1.0, (1,))),
        ):
            with pytest.raises(ValueError, match="contiguous runs"):
                Spectrum(n=3, eigenvalues=s.eigenvalues, eigenvectors=s.eigenvectors,
                         classes=classes, deg_tol=s.deg_tol)

    def test_class_multiplicity(self):
        assert DegeneracyClass(1.0, (3, 4, 5)).multiplicity == 3


class TestSymmetryDegree:
    def test_family_ladder(self, family_spectra):
        degrees = [symmetry_degree(family_spectra[label]) for label in "abcde"]
        assert degrees == [0, 2, 4, 6, 8]

    def test_simple_eigenvalue_one_confers_nothing(self):
        # P3 spectrum is {0, 1, 3}: eigenvalue 1 present but non-degenerate.
        s = eigendecompose(laplacian(gen_path(3)))
        assert any(abs(c.value - 1.0) <= s.deg_tol for c in s.classes)
        assert symmetry_degree(s) == 0

    def test_no_eigenvalue_one(self, k2_spectrum):
        assert symmetry_degree(k2_spectrum) == 0


class TestSerialization:
    def test_format_spectrum(self):
        s = eigendecompose(laplacian(from_edge_list(2, [(1, 2)])))
        text = format_spectrum(s)
        lines = text.splitlines()
        assert lines[0] == "n 2"
        assert "eigenvalues" in lines
        assert lines[-1] == "2 1"
        assert text == format_spectrum(eigendecompose(laplacian(from_edge_list(2, [(1, 2)]))))
