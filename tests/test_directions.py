import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reachopt import (
    ConstraintOperator,
    DimensionMismatchError,
    DirectionKind,
    optimal_direction,
    sample_unit_effort,
    truncate,
)
from conftest import random_mild_psd, random_psd, rank_deficient_psd
from oracles import angle_between


@st.composite
def direction_problems(draw):
    """(A, g, n): a rank-deficient PSD operator, a gradient and an optional normal."""
    matrix, _ = draw(rank_deficient_psd())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gradient = rng.standard_normal(matrix.shape[0])
    normal = rng.standard_normal(matrix.shape[0]) if draw(st.booleans()) else None
    return matrix, gradient, normal


def exponents(values) -> np.ndarray:
    """Binary exponents (as ``frexp`` gives them) of the nonzero entries."""
    values = np.asarray(values, dtype=float)
    return np.frexp(np.abs(values[values != 0.0]))[1]


class TestOptimalDirection:
    def test_identity_reduces_to_normalized_gradient(self):
        op = ConstraintOperator(np.eye(2))
        result = optimal_direction(op, [3.0, 4.0])
        assert result.kind is DirectionKind.OPTIMAL
        assert np.allclose(result.direction, [0.6, 0.8])
        assert result.first_order_gain == pytest.approx(5.0, abs=1e-10)

    def test_kernel_gradient_is_degenerate(self):
        op = ConstraintOperator(np.diag([1.0, 0.0]))
        result = optimal_direction(op, [0.0, 7.0])
        assert result.kind is DirectionKind.DEGENERATE
        assert result.direction is None
        assert result.first_order_gain == 0.0

    def test_kernel_of_an_operator_with_overflowing_norm_is_degenerate(self):
        # |A|_F overflows at 2^511 * ones; the kernel is still found.
        op = ConstraintOperator(np.ldexp(np.ones((2, 2)), 511))
        assert optimal_direction(op, [1.0, -1.0]).kind is DirectionKind.DEGENERATE
        result = optimal_direction(op, [1.0, 1.0])
        assert result.kind is DirectionKind.OPTIMAL
        assert abs(result.direction[0] / result.direction[1] - 1.0) <= 1e-15

    def test_subnormal_eigenvalues_keep_the_optimum(self):
        # The operator is solved at the scale of one, so c / lambda cannot overflow;
        # the suite turns RuntimeWarning into an error. The normal points away from
        # e1, so it leaves the free direction e1 / sqrt(lambda) and gain |g| / sqrt(lambda).
        op = ConstraintOperator(1e-309 * np.eye(2))
        root = np.sqrt(1e-309)
        for size in (1.0, 1e-300):
            for normal in (None, [-1.0, 1.0]):
                result = optimal_direction(op, [size, 0.0], normal)
                assert result.kind is DirectionKind.OPTIMAL
                assert np.allclose(result.direction, [1.0 / root, 0.0], rtol=1e-12, atol=0.0)
                assert result.first_order_gain == pytest.approx(size / root, rel=1e-12)
                assert result.weighted_gradient_norm == pytest.approx(size / root, rel=1e-12)
        assert optimal_direction(op, [0.0, 0.0]).weighted_gradient_norm == 0.0

    def test_eigenvalues_near_the_top_of_the_range_keep_the_direction(self):
        # lambda * c passes the float range in the degeneracy test without a warning.
        axis = np.ones(6) / np.sqrt(6.0)
        v = np.eye(6)[0] - axis
        reflect = np.eye(6) - 2.0 * np.outer(v, v) / (v @ v)  # its first column is the axis
        values = np.array([8.0, 7.0, 6.0, 5.0, 4.0, 3.0]) * 1e307
        op = ConstraintOperator((reflect * values) @ reflect.T)
        result = optimal_direction(op, np.full(6, 0.99))
        assert result.kind is DirectionKind.OPTIMAL
        assert np.allclose(result.direction, axis / np.sqrt(8e307), rtol=1e-12, atol=0.0)

    def test_zero_gradient_is_degenerate(self):
        op = ConstraintOperator(np.eye(3))
        assert optimal_direction(op, np.zeros(3)).kind is DirectionKind.DEGENERATE

    def test_zero_operator_is_degenerate(self):
        op = ConstraintOperator(np.zeros((2, 2)))
        assert optimal_direction(op, [1.0, 1.0]).kind is DirectionKind.DEGENERATE

    def test_dimension_mismatch(self):
        op = ConstraintOperator(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            optimal_direction(op, np.ones(3))

    def test_optimal_invariants(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            rank = int(rng.integers(1, dim + 1))
            op = ConstraintOperator(random_psd(rng, dim, rank))
            gradient = rng.standard_normal(dim)
            result = optimal_direction(op, gradient)
            if result.kind is DirectionKind.DEGENERATE:
                continue
            assert float(op.effort(result.direction)) == pytest.approx(1.0, abs=1e-10)
            off_image = result.direction - op.project_onto_image(result.direction)
            assert np.linalg.norm(off_image) <= 1e-8
            assert result.first_order_gain == pytest.approx(
                result.weighted_gradient_norm, abs=1e-8
            )

    def test_sampling_oracle_rank3(self):
        # Brute force over the admissible set: no sample may beat the solver,
        # and the best sample must sit close to the returned ray.
        rng = np.random.default_rng(77)
        op = ConstraintOperator(random_mild_psd(rng, 5, 3))
        gradient = rng.standard_normal(5)
        result = optimal_direction(op, gradient)
        samples = sample_unit_effort(op, 100_000, rng=rng)
        gains = samples @ gradient
        best = int(np.argmax(gains))
        assert float(gains[best]) <= result.first_order_gain + 1e-4
        assert angle_between(samples[best], result.direction) <= np.radians(2.0)

    def test_scaling_covariance(self, rng):
        op = ConstraintOperator(random_psd(rng, 4, 3))
        gradient = rng.standard_normal(4)
        base = optimal_direction(op, gradient)
        scaled = optimal_direction(op, 37.5 * gradient)
        assert np.linalg.norm(base.direction - scaled.direction) <= 1e-10

    @settings(max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    )
    def test_scale_covariance_over_two_hundred_decades(self, seed, exponent):
        generator = np.random.default_rng(seed)
        dim = int(generator.integers(2, 7))
        op = ConstraintOperator(random_psd(generator, dim, int(generator.integers(1, dim + 1))))
        gradient = generator.standard_normal(dim)
        scale = 10.0**exponent
        base = optimal_direction(op, gradient)
        scaled = optimal_direction(op, scale * gradient)
        assert base.kind is scaled.kind is DirectionKind.OPTIMAL
        assert np.max(np.abs(scaled.direction - base.direction)) <= 1e-12
        assert scaled.first_order_gain == pytest.approx(
            scale * base.first_order_gain, rel=1e-12
        )
        assert scaled.weighted_gradient_norm == pytest.approx(
            scale * base.weighted_gradient_norm, rel=1e-12
        )

    @settings(max_examples=80)
    @given(problem=direction_problems(), half=st.integers(-540, 540))
    @example(  # diag(1e300, 0) with a normal whose effort underflowed
        problem=(np.ldexp(np.diag([1e300, 0.0]), -996), [1.0, 0.0], [2e-12, 1.0]), half=498
    )
    @example(
        problem=(np.ldexp(np.diag([1e300, 0.0]), -996), [1.0, 0.0], [2e-11, 1.0]), half=498
    )
    @example(  # 1e-309 * I, whose c / lambda overflowed
        problem=(np.ldexp(1e-309 * np.eye(2), 1026), [1e-300, 0.0], None), half=-513
    )
    def test_operator_scale_moves_the_result_by_an_exact_power_of_two(self, problem, half):
        # d ~ A+g: scaling A by 4^h scales the direction and its norm by 2^-h and
        # changes nothing else, bit for bit, wherever the scaled values are floats.
        matrix, gradient, normal = problem
        assume(exponents(matrix).max() + 2 * half < 1024)  # the symmetrizing sum stays finite
        scaled_matrix = np.ldexp(matrix, 2 * half)
        assume(np.array_equal(np.ldexp(scaled_matrix, -2 * half), matrix))
        base = optimal_direction(ConstraintOperator(matrix), gradient, normal)
        norm = base.weighted_gradient_norm
        assume(norm == 0.0 or (norm < math.inf and -1021 <= math.frexp(norm)[1] - half <= 1024))
        if base.direction is not None:
            # 64 bits of headroom keep the products inside U_r (c / lambda) normal too.
            moved = exponents(base.direction) - half
            assume(moved.max() <= 1024 and moved.min() >= -1021 + 64)
        scaled = optimal_direction(ConstraintOperator(scaled_matrix), gradient, normal)
        assert scaled.kind is base.kind
        assert (np.float64(scaled.weighted_gradient_norm).tobytes()
                == np.ldexp(base.weighted_gradient_norm, -half).tobytes())
        if base.direction is None:
            assert scaled.direction is None and scaled.first_order_gain == 0.0
        else:
            assert scaled.direction.tobytes() == np.ldexp(base.direction, -half).tobytes()
            assert scaled.first_order_gain == math.ldexp(base.first_order_gain, -half)

    def test_huge_eigenvalue_spread_keeps_the_direction(self):
        # The rank cut drops the unit mode; the direction has effort
        # 1e20 * (1e-10)^2 = 1 even though its own scale is 1e-10.
        op = ConstraintOperator(np.diag([1e20, 1.0]))
        result = optimal_direction(op, [1.0, 1.0])
        assert result.kind is DirectionKind.OPTIMAL
        assert np.allclose(result.direction, [1e-10, 0.0], rtol=1e-12, atol=0.0)

    def test_small_gradient_is_not_degenerate(self):
        result = optimal_direction(ConstraintOperator(np.eye(2)), [1e-7, 0.0])
        assert result.kind is DirectionKind.OPTIMAL
        assert result.first_order_gain == pytest.approx(1e-7, rel=1e-12)

    def test_gradient_in_sub_tolerance_modes_is_degenerate(self):
        # 1.5e-12 falls below the default rank cut, so no retained mode sees
        # the gradient, although the full operator maps it to 1.5e-12.
        op = ConstraintOperator(np.diag([1.0, 1.5e-12]))
        assert op.reachable_dim == 1
        assert optimal_direction(op, [0.0, 1.0]).kind is DirectionKind.DEGENERATE

    @pytest.mark.parametrize(
        "diagonal, gradient, direction",
        [
            ([1.0, 1.0], [1e-170, 0.0], [1.0, 0.0]),
            ([1e20, 1.0], [1e-160, 0.0], [1e-10, 0.0]),
            ([1.0, 1e-9], [0.0, 1e150], [0.0, 1e-9**-0.5]),
            ([1.0, 1.0], [1e160, 0.0], [1.0, 0.0]),
        ],
        ids=["underflow", "underflow-past-the-relative-test", "overflow", "gradient-norm-overflow"],
    )
    def test_effort_out_of_floating_range_is_optimal(self, diagonal, gradient, direction):
        # Unscaled, the effort norm c . (c / lambda) underflows to 0 or
        # overflows to inf, and in the last case so does |g|. The gradient is
        # divided by the power of two of its largest entry first, so the
        # solve runs at the scale of one and the norm is scaled back exactly.
        result = optimal_direction(ConstraintOperator(np.diag(diagonal)), gradient)
        assert result.kind is DirectionKind.OPTIMAL
        assert np.allclose(result.direction, direction, rtol=1e-12, atol=0.0)
        gain = float(np.dot(gradient, direction))
        assert result.first_order_gain == pytest.approx(gain, rel=1e-12)
        assert result.weighted_gradient_norm == pytest.approx(gain, rel=1e-12)

    def test_gain_beyond_floating_range_is_degenerate(self):
        # The maximal gain 1e308 / sqrt(0.25) is not a float, so no optimal
        # result can report it.
        result = optimal_direction(ConstraintOperator(0.25 * np.eye(2)), [1e308, 0.0])
        assert result.kind is DirectionKind.DEGENERATE
        assert result.weighted_gradient_norm == np.inf

    def test_ray_uniqueness_near_optimum(self, rng):
        op = ConstraintOperator(random_mild_psd(rng, 4, 3))
        gradient = rng.standard_normal(4)
        result = optimal_direction(op, gradient)
        spectrum = op.spectrum
        values = spectrum.eigenvalues[: op.reachable_dim]
        basis = spectrum.eigenvectors[:, : op.reachable_dim]
        optimum_coeff = basis.T @ result.direction
        accepted = 0
        for _ in range(2000):
            coeff = optimum_coeff + 1e-3 * rng.standard_normal(values.size)
            coeff /= np.sqrt(float(values @ (coeff * coeff)))
            candidate = basis @ coeff
            gain = float(gradient @ candidate)
            if gain >= (1.0 - 1e-6) * result.first_order_gain:
                accepted += 1
                assert angle_between(candidate, result.direction) <= np.radians(1.0)
        assert accepted > 0

    def test_degenerate_branch_has_no_payoff(self, rng):
        op = ConstraintOperator(random_psd(rng, 5, 3))
        kernel_basis = op.spectrum.eigenvectors[:, op.reachable_dim :]
        gradient = kernel_basis @ rng.standard_normal(kernel_basis.shape[1])
        result = optimal_direction(op, gradient)
        assert result.kind is DirectionKind.DEGENERATE
        samples = sample_unit_effort(op, 5000, rng=rng)
        assert float(np.max(np.abs(samples @ gradient))) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda op, v: optimal_direction(op, v),
        lambda op, v: optimal_direction(op, [1.0, 0.0], v),
        lambda op, v: op.project_onto_image(v),
        lambda op, v: truncate(op.spectrum, 1).apply_with_residual(v),
    ],
    ids=["gradient", "normal", "project_onto_image", "apply_with_residual"],
)
def test_non_finite_vector_raises(call, bad):
    with pytest.raises(ValueError, match="must be finite"):
        call(ConstraintOperator(np.eye(2)), [bad, 0.0])


class TestFirstOrderGain:
    def test_cauchy_schwarz_bound(self, rng):
        op = ConstraintOperator(random_psd(rng, 5, 4))
        gradient = rng.standard_normal(5)
        result = optimal_direction(op, gradient)
        samples = sample_unit_effort(op, 20_000, rng=rng)
        gains = samples @ gradient
        assert float(np.max(gains)) <= result.weighted_gradient_norm + 1e-8


class TestSampleUnitEffort:
    def test_samples_are_admissible(self, rng):
        op = ConstraintOperator(random_psd(rng, 4, 2))
        samples = sample_unit_effort(op, 200, rng=rng)
        for row in samples:
            assert float(op.effort(row)) == pytest.approx(1.0, abs=1e-10)
            off_image = row - op.project_onto_image(row)
            assert np.linalg.norm(off_image) <= 1e-9

    def test_count_validation(self, rng):
        op = ConstraintOperator(np.eye(2))
        with pytest.raises(ValueError):
            sample_unit_effort(op, 0, rng=rng)

    def test_zero_operator_raises(self):
        op = ConstraintOperator(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            sample_unit_effort(op, 5)

    def test_deterministic_for_seed(self):
        op = ConstraintOperator(np.eye(3))
        first = sample_unit_effort(op, 10, rng=123)
        second = sample_unit_effort(op, 10, rng=123)
        assert np.array_equal(first, second)
