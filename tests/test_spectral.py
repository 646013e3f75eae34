import dataclasses
import warnings

import numpy as np
import pytest

from ctwalk.graphs import gen_cycle, gen_path, gen_star, laplacian
from ctwalk.spectral import (
    ConvergenceError,
    Spectrum,
    _partition,
    eigendecompose,
    symmetry_degree,
)


class TestEigendecompose:
    def test_k2_hand_solution(self, k2_spectrum):
        # Each eigenvector is fixed up to its sign, so the hand solution is
        # its projector q q^T: |q_k| = 1/sqrt(2), and q_1 q_2 = +1/2 at
        # eigenvalue 0, -1/2 at eigenvalue 2.
        s = k2_spectrum
        assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)
        for col, off in ((0, 0.5), (1, -0.5)):
            q = s.eigenvectors[:, col]
            assert np.allclose(np.outer(q, q), [[0.5, off], [off, 0.5]], atol=1e-12)

    def test_star10_spectrum(self):
        s = eigendecompose(laplacian(gen_star(10)))
        target = np.array([0.0] + [1.0] * 8 + [10.0])
        assert np.max(np.abs(s.eigenvalues - target)) <= 1e-9
        assert s.class_sizes.tolist() == [1, 8, 1]

    def test_path10_closed_form_oracle(self):
        s = eigendecompose(laplacian(gen_path(10)))
        oracle = np.sort(2.0 - 2.0 * np.cos(np.arange(10) * np.pi / 10.0))
        assert np.max(np.abs(s.eigenvalues - oracle)) <= 1e-9
        assert np.all(s.class_sizes == 1)

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
            near_zero = np.abs(s.class_values) <= s.deg_tol
            assert s.class_sizes[near_zero].tolist() == [1]
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
        assert star.class_sizes.tolist() == [1, 298, 1]
        path = eigendecompose(laplacian(gen_path(300)))
        assert np.all(path.class_sizes == 1)

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

    def test_deg_tol_floor_is_ten_eigen_residuals(self, monkeypatch):
        # One eigenvalue of the identity shifted by 1e-12 leaves an
        # eigen-residual of exactly 1e-12, so the floor is 1e-11.
        def shifted(a):
            return np.array([1.0, 1.0, 1.0 + 1e-12]), np.eye(3)

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ValueError, match=r"deg_tol 9\.000e-12 is below the floor 1\.000e-11"):
            eigendecompose(np.eye(3), deg_tol=9e-12)
        assert eigendecompose(np.eye(3), deg_tol=2e-11).class_sizes.tolist() == [3]

    def test_class_merging_distinct_eigenvalues_fails(self):
        # At deg_tol 100 the star's spectrum {0, 1 x 8, 10} is one class
        # spreading 10, while each eigenvalue is within about 1e-15 of a true one.
        with pytest.raises(ValueError, match=r"at 1\.8 spreads 1\.000e\+01, more than its residual bound"):
            eigendecompose(laplacian(gen_star(10)), deg_tol=100)
        # Two exact eigenvalues 1e-9 apart, within the default deg_tol.
        with pytest.raises(ValueError, match="merges distinct eigenvalues"):
            eigendecompose(np.diag([1.0, 1.0 + 1e-9]))


class TestClustering:
    def test_exact_repeats(self):
        _, sizes, values = _partition(np.array([0.0, 1.0, 1.0, 1.0, 3.0]), 1e-8)
        assert list(zip(values.tolist(), sizes.tolist())) == [(0.0, 1), (1.0, 3), (3.0, 1)]

    def test_sub_tolerance_gap_merges(self):
        _, sizes, values = _partition(np.array([0.0, 1e-12, 2.0]), 1e-8)
        assert sizes.tolist() == [2, 1]
        assert abs(values[0] - 5e-13) <= 1e-12

    def test_partition_covers_all_indices(self):
        rng = np.random.default_rng(3)
        w = np.sort(rng.uniform(0, 10, size=17))
        starts, sizes, _ = _partition(w, 1e-3)
        members = [i for start, size in zip(starts, sizes) for i in range(start, start + size)]
        assert members == list(range(17))

    def test_rejects_bad_tolerance(self):
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="deg_tol"):
                eigendecompose(np.diag([0.0, 1.0]), deg_tol=tol)

    def test_chain_wider_than_tolerance_fails(self):
        # Six eigenvalues 0.9e-8 apart: each gap is within the default
        # deg_tol, but the ends of the chain are 4.5e-8 apart.
        with pytest.raises(ValueError, match=r"spreads 4\.500e-08.*deg_tol 1\.000e-08.*lower --deg-tol"):
            eigendecompose(np.diag(1 + 0.9e-8 * np.arange(6)))

    @staticmethod
    def _assert_class_means(w, starts, sizes, values):
        for start, size, value in zip(starts.tolist(), sizes.tolist(), values.tolist()):
            mean = float(np.mean(w[start:start + size]))
            assert value.hex() == mean.hex()

    @pytest.mark.parametrize("seed", range(5))
    def test_class_value_is_member_mean_bit_for_bit(self, seed):
        # Singletons mixed with classes of 2..20 members; from 8 members on
        # np.mean sums pairwise, so the value must come from np.mean itself.
        rng = np.random.default_rng(seed)
        sizes = rng.choice([1, 1, 1, *range(2, 21)], size=40)
        centers = np.cumsum(rng.uniform(0.5, 3.0, size=sizes.size))
        w = np.concatenate(
            [c + np.sort(rng.uniform(0.0, 5e-9, size=k)) for c, k in zip(centers, sizes)]
        )
        partition = _partition(w, 1e-8)
        assert partition[1].tolist() == sizes.tolist()
        self._assert_class_means(w, *partition)

    def test_pair_of_negative_zeros_is_member_mean(self):
        # np.mean of (-0.0, -0.0) is 0.0, as np.add.reduce starts from 0.0.
        w = np.array([-0.0, -0.0, 1.0, 1.0 + 1e-12, 5.0])
        partition = _partition(w, 1e-8)
        assert partition[1].tolist() == [2, 2, 1]
        self._assert_class_means(w, *partition)

    @pytest.mark.parametrize("graph", [gen_star(300), gen_path(300)])
    def test_n300_class_values_are_member_means(self, graph):
        s = eigendecompose(laplacian(graph))
        self._assert_class_means(s.eigenvalues, s.class_starts, s.class_sizes, s.class_values)


class TestSpectrumPartition:
    def test_accepts_contiguous_runs(self):
        s = eigendecompose(laplacian(gen_path(3)))
        split = Spectrum(3, s.eigenvalues, s.eigenvectors, s.deg_tol, [0, 2], [0.5, 3.0])
        assert split.class_sizes.tolist() == [2, 1]
        assert not split.class_sizes.flags.writeable
        empty = Spectrum(0, (), np.zeros((0, 0)), 1e-8, (), ())
        assert empty.class_sizes.size == 0

    @pytest.mark.parametrize(
        "starts, values",
        [
            ([1, 2], [1.0, 3.0]),  # starts not beginning at 0
            ([0, 1, 1], [0.0, 1.0, 3.0]),  # a repeated start
            ([0, 3], [0.0, 3.0]),  # a start at n
            ([0, 5], [0.0, 3.0]),  # a start past n
            ([0, 2, 1], [0.0, 1.0, 3.0]),  # starts out of order
            ([0, 1], [0.0, 1.0, 3.0]),  # more values than starts
            ([0, 1, 2], [0.0, 1.0]),  # more starts than values
            ([], []),  # no classes when n > 0
        ],
    )
    def test_rejects_malformed_partition(self, starts, values):
        # Class sums read each class as the run from its start to the next.
        s = eigendecompose(laplacian(gen_path(3)))
        with pytest.raises(ValueError, match="contiguous runs"):
            Spectrum(3, s.eigenvalues, s.eigenvectors, s.deg_tol, starts, values)

    @pytest.mark.parametrize("graph", [gen_star(300), gen_path(300), gen_cycle(12)])
    def test_replace_keeps_the_partition(self, graph):
        # A rotated basis keeps the partition arrays, read-only.
        s = eigendecompose(laplacian(graph))
        rotated = dataclasses.replace(s, eigenvectors=-s.eigenvectors)
        assert rotated.class_starts is s.class_starts
        assert rotated.class_values is s.class_values
        assert np.array_equal(rotated.class_sizes, s.class_sizes)
        assert np.array_equal(rotated.eigenvectors, -s.eigenvectors)
        assert not rotated.eigenvectors.flags.writeable


class TestSymmetryDegree:
    def test_family_ladder(self, family_spectra):
        degrees = [symmetry_degree(family_spectra[label]) for label in "abcde"]
        assert degrees == [0, 2, 4, 6, 8]

    def test_simple_eigenvalue_one_confers_nothing(self):
        # P3 spectrum is {0, 1, 3}: eigenvalue 1 present but non-degenerate.
        s = eigendecompose(laplacian(gen_path(3)))
        assert np.any(np.abs(s.class_values - 1.0) <= s.deg_tol)
        assert symmetry_degree(s) == 0

    def test_no_eigenvalue_one(self, k2_spectrum):
        assert symmetry_degree(k2_spectrum) == 0
