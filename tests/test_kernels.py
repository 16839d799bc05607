import numpy as np
import pytest
from hypothesis import given

import reachopt.kernels
from reachopt import (
    ConstraintOperator,
    DimensionMismatchError,
    RuleKernel,
    decompose,
    smallest_k_for_error,
    truncate,
)
from conftest import random_orthogonal, random_psd, rank_deficient_psd
from oracles import power_iteration_norm


@pytest.fixture
def spectrum_421():
    return decompose(np.diag([4.0, 2.0, 1.0]))


class TestTruncate:
    def test_full_rank_reproduces_pseudoinverse(self, spectrum_421):
        kernel = truncate(spectrum_421, 3)
        assert np.array_equal(
            kernel.kernel_matrix.entries, spectrum_421.pseudoinverse().entries
        )
        assert kernel.op_error == 0.0

    def test_error_certificate_value(self, spectrum_421):
        # Keeping the heaviest mode leaves weights {1/4, 1/2}; the largest is 0.5.
        assert truncate(spectrum_421, 1).op_error == pytest.approx(0.5, abs=1e-12)

    def test_zero_kernel(self, spectrum_421):
        kernel = truncate(spectrum_421, 0)
        assert np.array_equal(kernel.kernel_matrix.entries, np.zeros((3, 3)))
        # The zero map misses the full pseudoinverse by its largest weight.
        assert kernel.op_error == pytest.approx(1.0, abs=1e-12)

    def test_keeps_heaviest_weights(self, spectrum_421):
        kernel = truncate(spectrum_421, 1)
        assert np.allclose(kernel.kernel_matrix.entries, np.diag([0.0, 0.0, 1.0]))

    def test_out_of_range(self, spectrum_421):
        with pytest.raises(ValueError):
            truncate(spectrum_421, 4)
        with pytest.raises(ValueError):
            truncate(spectrum_421, -1)
        with pytest.raises(TypeError):
            truncate(spectrum_421, 1.5)

    def test_kernel_matrix_rank(self, rng):
        spectrum = decompose(random_psd(rng, 6, 4))
        for k in range(5):
            kernel = truncate(spectrum, k)
            assert decompose(kernel.kernel_matrix).rank == k

    def test_nesting_rank_one_increment(self, rng):
        spectrum = decompose(random_psd(rng, 6, 5))
        rank = spectrum.rank
        for k in range(rank - 1):
            small = truncate(spectrum, k).kernel_matrix.entries
            large = truncate(spectrum, k + 1).kernel_matrix.entries
            added = rank - k - 1
            mode = spectrum.eigenvectors[:, added]
            term = np.outer(mode, mode) / spectrum.eigenvalues[added]
            assert np.max(np.abs(large - small - term)) <= 1e-12

    def test_certificate_matches_power_iteration(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(1, dim + 1))
            spectrum = decompose(random_psd(rng, dim, rank))
            k = int(rng.integers(0, rank + 1))
            kernel = truncate(spectrum, k)
            difference = (
                spectrum.pseudoinverse().entries - kernel.kernel_matrix.entries
            )
            measured = power_iteration_norm(difference)
            assert measured == pytest.approx(kernel.op_error, abs=1e-9)

    @given(rank_deficient_psd())
    def test_nesting_and_certificate_on_clustered_and_graded_spectra(self, drawn):
        matrix, rank = drawn
        spectrum = decompose(matrix)
        assert spectrum.rank == rank
        pinv = spectrum.pseudoinverse().entries
        # Rounding in K_k scales with its largest weight, |A+|_2 = 1 / lambda_min.
        ulp = np.finfo(float).eps / spectrum.eigenvalues[rank - 1]
        kernels = [truncate(spectrum, k) for k in range(rank + 1)]
        assert np.array_equal(kernels[rank].kernel_matrix.entries, pinv)
        for k, kernel in enumerate(kernels[:-1]):
            added = rank - k - 1
            mode = spectrum.eigenvectors[:, added]
            step = kernels[k + 1].kernel_matrix.entries - kernel.kernel_matrix.entries
            term = np.outer(mode, mode) / spectrum.eigenvalues[added]
            assert np.max(np.abs(step - term)) <= 32 * ulp
            measured = np.linalg.norm(pinv - kernel.kernel_matrix.entries, 2)
            assert kernel.op_error == 1.0 / spectrum.eigenvalues[added]
            assert abs(measured - kernel.op_error) <= 1e3 * ulp

    def test_certificate_exact_for_flat_tail(self):
        # Equal omitted eigenvalues: the certificate still equals the
        # measured operator norm of the difference.
        basis = random_orthogonal(np.random.default_rng(5), 4)
        matrix = (basis * np.array([3.0, 0.5, 0.5, 0.5])) @ basis.T
        spectrum = decompose(matrix)
        kernel = truncate(spectrum, 1)
        difference = spectrum.pseudoinverse().entries - kernel.kernel_matrix.entries
        assert power_iteration_norm(difference) == pytest.approx(
            kernel.op_error, abs=1e-9
        )


class TestRuleKernelView:
    def test_truncate_builds_no_matrix(self, rng, monkeypatch):
        calls = []
        outer_sum = reachopt.kernels._reciprocal_outer_sum

        def spy(*args):
            calls.append(args[1:])
            return outer_sum(*args)

        monkeypatch.setattr(reachopt.kernels, "_reciprocal_outer_sum", spy)
        spectrum = decompose(random_psd(rng, 6, 4))
        gradient = rng.standard_normal(6)
        for k in range(spectrum.rank + 1):
            kernel = truncate(spectrum, k)
            kernel.apply_with_residual(gradient)
            assert kernel.op_error >= 0.0
        assert smallest_k_for_error(spectrum, 1.0) <= spectrum.rank
        assert calls == []
        assert kernel.kernel_matrix.dim == 6
        assert calls == [(0, spectrum.rank)]

    def test_direct_construction_is_checked(self, spectrum_421):
        with pytest.raises(ValueError, match="truncation rank"):
            RuleKernel(4, spectrum_421)
        with pytest.raises(TypeError):
            RuleKernel(1.0, spectrum_421)

    def test_k_is_stored_as_a_python_int(self, spectrum_421):
        kernel = truncate(spectrum_421, np.int64(1))
        assert type(kernel.k) is int and kernel.k == 1
        assert kernel == RuleKernel(1, spectrum_421)


class TestApplyWithResidual:
    def test_unexcited_omitted_modes_leave_no_residual(self, spectrum_421):
        kernel = truncate(spectrum_421, 1)
        compressed, report = kernel.apply_with_residual([0.0, 0.0, 5.0])
        assert np.allclose(compressed, [0.0, 0.0, 5.0])
        assert report.residual_norm_sq == 0.0
        assert np.max(np.abs(report.residual_vector)) <= 1e-12

    def test_coordinate_example(self, spectrum_421):
        kernel = truncate(spectrum_421, 1)
        _, report = kernel.apply_with_residual([1.0, 1.0, 1.0])
        # Omitted modes carry eigenvalues 4 and 2.
        assert report.residual_norm_sq == pytest.approx(0.3125, rel=1e-12)
        assert report.per_mode_contributions == (
            (0, pytest.approx(0.0625, rel=1e-12)),
            (1, pytest.approx(0.25, rel=1e-12)),
        )

    def test_full_rank_residual_exactly_zero(self, spectrum_421):
        kernel = truncate(spectrum_421, 3)
        _, report = kernel.apply_with_residual([1.0, 2.0, 3.0])
        assert np.array_equal(report.residual_vector, np.zeros(3))
        assert report.residual_norm_sq == 0.0

    def test_dimension_mismatch(self, spectrum_421):
        with pytest.raises(DimensionMismatchError):
            truncate(spectrum_421, 1).apply_with_residual([1.0, 2.0])

    def test_closed_form_matches_subtraction(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 11))
            rank = int(rng.integers(1, dim + 1))
            spectrum = decompose(random_psd(rng, dim, rank))
            k = int(rng.integers(0, rank + 1))
            gradient = rng.standard_normal(dim)
            kernel = truncate(spectrum, k)
            compressed, report = kernel.apply_with_residual(gradient)
            explicit = float(report.residual_vector @ report.residual_vector)
            assert report.residual_norm_sq == pytest.approx(
                explicit, rel=1e-10, abs=1e-12
            )
            assert report.residual_norm_sq == pytest.approx(
                sum(v for _, v in report.per_mode_contributions), rel=1e-10, abs=1e-15
            )
            full_norm = float(np.linalg.norm(spectrum.pseudoinverse().entries @ gradient))
            dense = kernel.kernel_matrix.entries @ gradient
            assert np.linalg.norm(compressed - dense) <= 1e-12 * full_norm

    def test_repeated_eigenvalues_residual_identity(self, rng):
        basis = random_orthogonal(rng, 4)
        matrix = (basis * np.array([2.0, 1.0, 1.0, 0.5])) @ basis.T
        spectrum = decompose(matrix)
        gradient = rng.standard_normal(4)
        for k in range(5):
            _, report = truncate(spectrum, k).apply_with_residual(gradient)
            explicit = float(report.residual_vector @ report.residual_vector)
            assert report.residual_norm_sq == pytest.approx(
                explicit, rel=1e-10, abs=1e-12
            )


class TestSmallestKForError:
    def test_linear_scan_example(self, spectrum_421):
        # Error levels by k: 1.0, 0.5, 0.25, 0.
        assert smallest_k_for_error(spectrum_421, 0.6) == 1

    def test_loose_target_needs_nothing(self, spectrum_421):
        assert smallest_k_for_error(spectrum_421, 1.0) == 0
        assert smallest_k_for_error(spectrum_421, 5.0) == 0

    def test_tight_target_needs_everything(self, spectrum_421):
        assert smallest_k_for_error(spectrum_421, 0.2) == 3
        assert smallest_k_for_error(spectrum_421, 1e-3) == 3

    def test_intermediate_target(self, spectrum_421):
        assert smallest_k_for_error(spectrum_421, 0.25) == 2

    def test_monotone_in_eps(self, rng):
        spectrum = decompose(random_psd(rng, 6, 5))
        grid = np.geomspace(1e-4, 1e3, 40)
        ks = [smallest_k_for_error(spectrum, float(eps)) for eps in grid]
        assert all(b <= a for a, b in zip(ks, ks[1:]))
        # Every returned k really meets its target.
        for eps, k in zip(grid, ks):
            assert truncate(spectrum, k).op_error <= eps

    def test_rejects_nonpositive_eps(self, spectrum_421):
        with pytest.raises(ValueError):
            smallest_k_for_error(spectrum_421, 0.0)

    def test_rejects_nan_eps(self, spectrum_421):
        # Every comparison with NaN is false, so NaN would pass a test for eps <= 0.
        with pytest.raises(ValueError, match="eps must be positive"):
            smallest_k_for_error(spectrum_421, float("nan"))


class TestOperatorIntegration:
    def test_kernel_of_operator_spectrum(self, rng):
        op = ConstraintOperator(random_psd(rng, 5, 3))
        kernel = truncate(op.spectrum, 2)
        gradient = rng.standard_normal(5)
        compressed, report = kernel.apply_with_residual(gradient)
        full = op.spectrum.pseudoinverse().entries @ gradient
        assert np.allclose(compressed + report.residual_vector, full, atol=1e-12)
