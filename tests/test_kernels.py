import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


    @pytest.mark.parametrize(
        "eps, k", [(1.0, 2), (1e301, 1), (np.inf, 0), (np.float32(1.0), 2), (5e-324, 2)]
    )
    def test_subnormal_eigenvalue_cuts_agree_with_op_error(self, eps, k):
        # 1/lambda overflows to inf for 1e-309, as in op_error, with no numpy warning
        # (a warning fails the suite).
        spectrum = decompose(np.diag([1e-300, 1e-309]))
        assert spectrum.rank == 2
        assert smallest_k_for_error(spectrum, eps) == k
        errors = [truncate(spectrum, j).op_error for j in range(3)]
        assert errors[0] == np.inf
        assert k == min(j for j, error in enumerate(errors) if error <= float(eps))


# Operators at the edges of the float range: the diagonal, the gradient, and per k the
# quantity whose overflow raises (None: every output is finite).
_EDGE_CASES = {
    "subnormal": ([1e-309, 2e-309], [1.0, 1.0], ["residual", "kernel action", "kernel action"]),
    "near-1e300": ([1e300, 2e300], [1.0, 1.0], [None, None, None]),
    "gradient-1e160": ([1.0, 2.0], [1e160, 1e160],
                       ["squared residual norm", "squared residual norm", None]),
}


class TestEdgeScales:
    """Each result is finite, or a ``ValueError`` naming what overflows; no numpy warning
    escapes (the suite turns one into an error)."""

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_apply_with_residual_is_finite_or_names_the_overflow(self, case):
        diagonal, gradient, overflows = _EDGE_CASES[case]
        spectrum = decompose(np.diag(diagonal))
        assert spectrum.rank == 2
        for k, name in enumerate(overflows):
            kernel = truncate(spectrum, k)
            if name is not None:
                with pytest.raises(ValueError, match=f"^{name} overflows"):
                    kernel.apply_with_residual(gradient)
                continue
            compressed, report = kernel.apply_with_residual(gradient)
            terms = [term for _, term in report.per_mode_contributions]
            assert np.isfinite(compressed).all() and np.isfinite(report.residual_vector).all()
            assert np.isfinite(terms).all() and math.isfinite(report.residual_norm_sq)
            if k == 2:  # the whole action A+ g: each entry is g / lambda, correctly rounded
                assert np.array_equal(compressed, np.divide(gradient, diagonal))

    def test_residual_whose_unit_scale_squares_underflow_still_raises(self):
        # The one coefficient is 5e-163 at unit scale, so its square underflows to 0, yet
        # the residual is 1e138 / 2e-309 = 5e446: each vector is checked on its own entries.
        spectrum = decompose(np.diag([2e-309, 0.0]))
        with pytest.raises(ValueError, match="^residual overflows"):
            truncate(spectrum, 0).apply_with_residual([1e138, 1e300])

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_dense_kernels_are_finite_or_name_the_overflow(self, case):
        diagonal = _EDGE_CASES[case][0]
        spectrum = decompose(np.diag(diagonal))
        subnormal = case == "subnormal"
        for k in range(3):
            if subnormal and k:
                with pytest.raises(ValueError, match="^pseudoinverse entry overflows"):
                    truncate(spectrum, k).kernel_matrix
            else:
                assert np.isfinite(truncate(spectrum, k).kernel_matrix.entries).all()
        if subnormal:
            with pytest.raises(ValueError, match="^pseudoinverse entry overflows"):
                spectrum.pseudoinverse()
        else:
            expected = np.diag(np.divide(1.0, diagonal))
            assert np.array_equal(spectrum.pseudoinverse().entries, expected)

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_op_error_and_smallest_k_agree(self, case):
        diagonal = _EDGE_CASES[case][0]
        spectrum = decompose(np.diag(diagonal))
        errors = [truncate(spectrum, k).op_error for k in range(3)]
        if case == "subnormal":
            assert errors == [math.inf, 1.0 / 2e-309, 0.0]  # inf is op_error's documented value
        for eps in (1e-300, 1.0, 1e308, math.inf):
            expected = min(k for k, error in enumerate(errors) if error <= eps)
            assert smallest_k_for_error(spectrum, eps) == expected


def _normal_or_zero(values: np.ndarray) -> np.ndarray:
    return (values == 0.0) | (np.abs(values) >= np.finfo(float).tiny)


def _assert_scaled_by(scaled, base, exponent):
    """``scaled == base * 2**exponent`` wherever both sides are normal floats."""
    scaled, base = np.asarray(scaled, dtype=float), np.asarray(base, dtype=float)
    expected = np.ldexp(base, exponent)
    kept = _normal_or_zero(base) & _normal_or_zero(expected)
    assert kept.any() or not base.size
    assert np.array_equal(scaled[kept], expected[kept])


class TestPowerOfTwoScaling:
    """A times 4^j or g times 2^e moves every kernel output by the matching exact power
    of two: Jacobi scales only the eigenvalues, and the kernels divide at unit scale."""

    @given(rank_deficient_psd(), st.integers(-120, 120), st.integers(-200, 200),
           st.integers(0, 2**32 - 1))
    def test_outputs_scale_exactly(self, drawn, j, e, seed):
        matrix, rank = drawn
        gradient = np.random.default_rng(seed).standard_normal(matrix.shape[0])
        base, scaled = decompose(matrix), decompose(np.ldexp(matrix, 2 * j))
        assert np.array_equal(scaled.eigenvalues, np.ldexp(base.eigenvalues, 2 * j))
        _assert_scaled_by(scaled.pseudoinverse().entries, base.pseudoinverse().entries, -2 * j)
        for k in range(rank + 1):
            kernel, moved = truncate(base, k), truncate(scaled, k)
            _assert_scaled_by(moved.kernel_matrix.entries, kernel.kernel_matrix.entries, -2 * j)
            before = kernel.apply_with_residual(gradient)
            for after, shift in ((moved.apply_with_residual(gradient), -2 * j),
                                 (kernel.apply_with_residual(np.ldexp(gradient, e)), e)):
                _assert_scaled_by(after[0], before[0], shift)
                _assert_scaled_by(after[1].residual_vector, before[1].residual_vector, shift)
                _assert_scaled_by(after[1].residual_norm_sq, before[1].residual_norm_sq,
                                  2 * shift)
                _assert_scaled_by([t for _, t in after[1].per_mode_contributions],
                                  [t for _, t in before[1].per_mode_contributions], 2 * shift)


class TestOperatorIntegration:
    def test_kernel_of_operator_spectrum(self, rng):
        op = ConstraintOperator(random_psd(rng, 5, 3))
        kernel = truncate(op.spectrum, 2)
        gradient = rng.standard_normal(5)
        compressed, report = kernel.apply_with_residual(gradient)
        full = op.spectrum.pseudoinverse().entries @ gradient
        assert np.allclose(compressed + report.residual_vector, full, atol=1e-12)
