import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachopt import cones
from reachopt.cones import DEFAULT_ITERATIONS, FEASIBILITY_TOLERANCE
from reachopt import (
    CircularCone,
    CouplingFamily,
    InfeasibleAtMaxError,
    find_gamma_star,
    is_feasible,
    phi,
    phi_curve,
)
from oracles import (
    angle_between,
    enumerated_minimax,
    phi_curve_by_level,
    spherical_cap_fraction_3d,
    two_cone_feasible,
    two_cone_gamma_star,
)


def cone(axis, half_angle_deg):
    return CircularCone(np.asarray(axis, dtype=float), math.radians(half_angle_deg))


def planar_axis(angle_deg, dim=3):
    axis = np.zeros(dim)
    angle = math.radians(angle_deg)
    axis[0], axis[1] = math.cos(angle), math.sin(angle)
    return axis


def count_solves(monkeypatch):
    """Record the level of every minimax solve the cones module makes."""
    levels = []
    solve = cones._minimize_max_violation

    def counted(family, gamma, *args):
        levels.append(gamma)
        return solve(family, gamma, *args)

    monkeypatch.setattr(cones, "_minimize_max_violation", counted)
    return levels


def count_balance_solves(monkeypatch):
    """Record the number of cones in every balance-point solve."""
    sizes = []
    solve = cones._balance_points

    def counted(axes, halves):
        sizes.append(axes.shape[0])
        return solve(axes, halves)

    monkeypatch.setattr(cones, "_balance_points", counted)
    return sizes


def two_cone_family(seed, dim, half1, half2, spread):
    """Two cones whose axes are ``spread`` apart, in a seeded random orientation."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    second = math.cos(spread) * basis[:, 0] + math.sin(spread) * basis[:, 1]
    return CouplingFamily((CircularCone(basis[:, 0], half1), CircularCone(second, half2)))


def centred_family(seed, dim, count, answer):
    """Cones with threshold ``answer``, built around a centre as the benchmark does.

    Each axis lies 0.5-1.1 rad from the centre along a tangent direction, and
    weighted tangents sum to zero, so 0 is in their convex hull. Every cone is
    violated by ``answer`` at the centre, which is therefore the minimax point.
    """
    rng = np.random.default_rng(seed)
    centre = rng.standard_normal(dim)
    centre /= np.linalg.norm(centre)
    tangents = rng.standard_normal((count, dim))
    tangents -= np.outer(tangents @ centre, centre)
    weights = rng.uniform(0.5, 1.5, size=count)
    tangents[-1] = -(weights[:-1] @ tangents[:-1]) / weights[-1]
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    spreads = rng.uniform(0.5, 1.1, size=count)
    axes = np.cos(spreads)[:, None] * centre + np.sin(spreads)[:, None] * tangents
    return CouplingFamily(
        tuple(CircularCone(a, s - answer) for a, s in zip(axes, spreads))
    )


def random_family(rng, dim, count, max_half_angle_deg=80.0):
    cones = []
    for _ in range(count):
        axis = rng.standard_normal(dim)
        half = math.radians(rng.uniform(2.0, max_half_angle_deg / 2.0))
        cones.append(CircularCone(axis, half))
    return CouplingFamily(tuple(cones))


class TestCircularCone:
    def test_axis_normalized(self):
        made = CircularCone(np.array([3.0, 4.0]), 0.5)
        assert np.allclose(made.axis, [0.6, 0.8])
        assert abs(np.linalg.norm(made.axis) - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "axis, unit",
        [
            ([1e308, 1e308], [math.sqrt(0.5), math.sqrt(0.5)]),
            ([1e-320, 5e-321], [2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)]),
        ],
        ids=["huge", "subnormal"],
    )
    def test_axis_of_any_finite_scale_is_normalized(self, axis, unit):
        # The norm of the raw axis overflows or underflows; the axis must not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            made = CircularCone(np.array(axis), 0.1)
        assert np.allclose(made.axis, unit, rtol=1e-15, atol=0.0)
        assert abs(np.linalg.norm(made.axis) - 1.0) <= 1e-15

    def test_huge_vector_violation_matches_unit_scale(self):
        family = CouplingFamily((cone([1.0, 0.0], 10.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = family.max_violation([1e308, 1e308], 0.0)
        assert huge == family.max_violation([1.0, 1.0], 0.0)

    def test_rejects_zero_axis(self):
        with pytest.raises(ValueError):
            CircularCone(np.zeros(3), 0.3)

    def test_rejects_out_of_range_half_angle(self):
        with pytest.raises(ValueError):
            CircularCone(np.array([1.0, 0.0]), -0.1)
        with pytest.raises(ValueError):
            CircularCone(np.array([1.0, 0.0]), math.pi / 2 + 0.1)

    def test_membership(self):
        made = CouplingFamily((cone([1.0, 0.0, 0.0], 30.0),))
        assert made.max_violation([1.0, 0.1, 0.0], 0.0) <= FEASIBILITY_TOLERANCE
        assert made.max_violation([0.0, 1.0, 0.0], 0.0) == pytest.approx(math.pi / 3)

    def test_enlarged_clamps(self):
        family = CouplingFamily((cone([1.0, 0.0], 80.0),))
        grown = family.enlarged_half_angles(math.radians(30.0))
        assert grown[0] == pytest.approx(math.pi / 2)
        for gamma in (-0.1, math.nan):
            with pytest.raises(ValueError):
                family.enlarged_half_angles(gamma)


class TestCouplingFamily:
    def test_requires_cones(self):
        with pytest.raises(ValueError):
            CouplingFamily(())

    def test_requires_matching_dims(self):
        with pytest.raises(ValueError):
            CouplingFamily((cone([1.0, 0.0], 10.0), cone([1.0, 0.0, 0.0], 10.0)))

    def test_level_zero_is_identity(self):
        family = CouplingFamily((cone([1.0, 0.0, 0.0], 25.0), cone([0.0, 1.0, 0.0], 40.0)))
        base = [c.half_angle for c in family.base_cones]
        assert np.allclose(family.enlarged_half_angles(0.0), base)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 8),
        count=st.integers(1, 5),
        start=st.floats(0.0, 1.0),
        steps=st.lists(st.floats(1e-6, 0.5), max_size=7),
        samples=st.integers(1, 2000),
    )
    def test_nesting_by_sampled_membership(self, seed, dim, count, start, steps, samples):
        # Common random numbers: each sample can only enter the enlarged cones.
        family = random_family(np.random.default_rng(seed), dim, count)
        grid = list(np.cumsum([start, *steps]))
        curve = phi_curve(family, grid, samples, seed)
        assert [gamma for gamma, _, _ in curve] == grid
        estimates = [estimate for _, estimate, _ in curve]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))
        for estimate in estimates:
            assert type(estimate) is float
            assert estimate == round(estimate * samples) / samples
        halves = family.enlarged_half_angles(0.0)
        assert estimates == phi_curve_by_level(family.axes_matrix(), halves, grid, samples, seed)
        assert phi_curve(family, grid, samples, seed) == curve

    def test_convexity_spot_check(self):
        rng = np.random.default_rng(10)
        made = CouplingFamily((CircularCone(np.array([0.0, 0.0, 1.0]), math.radians(35.0)),))
        for _ in range(200):
            first, second = rng.standard_normal((2, 3))
            first /= np.linalg.norm(first)
            second /= np.linalg.norm(second)
            if max(made.max_violation(v, 0.3) for v in (first, second)) > FEASIBILITY_TOLERANCE:
                continue
            blend = first + second
            if np.linalg.norm(blend) < 1e-9:
                continue
            assert made.max_violation(blend, 0.3) <= FEASIBILITY_TOLERANCE


class TestIsFeasible:
    def test_identical_cones_feasible_at_zero(self):
        axis = np.array([0.0, 0.0, 1.0])
        family = CouplingFamily((CircularCone(axis, 0.3), CircularCone(axis, 0.3)))
        result = is_feasible(family, 0.0)
        assert result.feasible
        assert angle_between(result.witness, axis) <= 1e-6

    def test_separated_cones_infeasible(self):
        family = CouplingFamily((cone(planar_axis(0.0), 20.0), cone(planar_axis(60.0), 20.0)))
        result = is_feasible(family, 0.0)
        assert not result.feasible
        assert result.witness is None
        # The gap to feasibility is (60 - 40) / 2 degrees.
        assert result.residual == pytest.approx(math.radians(10.0), abs=1e-9)

    def test_enlargement_makes_feasible(self):
        family = CouplingFamily((cone(planar_axis(0.0), 20.0), cone(planar_axis(60.0), 20.0)))
        result = is_feasible(family, math.radians(15.0))
        assert result.feasible
        assert family.max_violation(result.witness, math.radians(15.0)) <= 1e-9

    def test_matches_analytic_two_cone_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            first = rng.standard_normal(dim)
            second = rng.standard_normal(dim)
            halves = rng.uniform(0.05, 0.7, size=2)
            family = CouplingFamily(
                (CircularCone(first, halves[0]), CircularCone(second, halves[1]))
            )
            spread = angle_between(family.base_cones[0].axis, family.base_cones[1].axis)
            gamma = float(rng.uniform(0.0, 0.6))
            limits = family.enlarged_half_angles(gamma)
            expected = two_cone_feasible(spread, limits[0], limits[1])
            # Skip knife-edge cases where the analytic verdict itself is
            # tolerance-sensitive.
            if abs(spread - limits[0] - limits[1]) < 1e-6:
                continue
            assert is_feasible(family, gamma).feasible == expected

    def test_validation(self):
        family = CouplingFamily((cone([1.0, 0.0], 10.0),))
        for gamma in (-0.1, math.nan):
            with pytest.raises(ValueError):
                is_feasible(family, gamma)

    def test_hemispheres_meeting_in_one_ray(self):
        # The first three axes sum to zero, so their hemispheres share only the
        # line through (1, 1, 1). Both ends of it balance those three cones at
        # violation 0; only the positive end lies in the fourth hemisphere.
        axes = ([0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 1.0, 1.0])
        family = CouplingFamily(tuple(CircularCone(np.array(a), math.pi / 2) for a in axes))
        result = is_feasible(family, 0.0)
        assert result.feasible
        assert np.allclose(result.witness, np.ones(3) / math.sqrt(3.0))

    def test_matches_subset_enumeration_past_a_subset_of_nullity_two(self):
        # The first two axes repeat and the third opposes them, so a subset of all three
        # spans a line and has no balance point; the minimax comes from smaller subsets.
        axes = ([-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, -1.0])
        halves = (math.pi / 2, 0.7, math.pi / 4)
        family = CouplingFamily(tuple(CircularCone(np.array(a), h) for a, h in zip(axes, halves)))
        value, _ = enumerated_minimax(family.axes_matrix(), family.enlarged_half_angles(0.0))
        result = is_feasible(family, 0.0)
        assert not result.feasible
        assert result.residual == pytest.approx(value, abs=1e-10)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            count = int(rng.integers(2, 5))
            family = random_family(rng, dim, count)
            verdicts = [
                is_feasible(family, gamma).feasible
                for gamma in (0.0, 0.3, 0.8, math.pi / 2)
            ]
            for earlier, later in zip(verdicts, verdicts[1:]):
                assert (not earlier) or later

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 5),
        count=st.integers(2, 5),
        half1=st.floats(0.05, 0.6),
        half2=st.floats(0.05, 0.6),
        gap=st.floats(0.01, 0.4),
        fraction=st.floats(0.0, 0.99),
    )
    def test_residual_falls_one_for_one_below_the_clamp(
        self, seed, dim, count, half1, half2, gap, fraction
    ):
        if count == 2:
            family = two_cone_family(seed, dim, half1, half2, half1 + half2 + 2.0 * gap)
        else:
            family = centred_family(seed, dim + 1, count, gap)
        widest = max(cone.half_angle for cone in family.base_cones)
        at_zero = is_feasible(family, 0.0).residual
        gamma = fraction * min(at_zero, math.pi / 2 - widest)
        at_gamma = is_feasible(family, gamma).residual
        assert at_gamma == pytest.approx(at_zero - gamma, abs=1e-12)

    @settings(max_examples=400)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        count=st.integers(1, 5),
        level=st.sampled_from(["zero", "random", "clamp"]),
        lattice=st.booleans(),
    )
    def test_matches_subset_enumeration(self, seed, dim, count, level, lattice):
        # Lattice families (axis entries in {-1, 0, 1}, half-angles from a
        # short list) repeat, oppose and form circuits, which exercises the
        # rank-deficient balance points and ties; gaussian ones are generic.
        rng = np.random.default_rng(seed)
        if lattice:
            axes = rng.integers(-1, 2, (count, dim))
            halves = rng.choice([0.0, 0.1, 0.3, 0.7, math.pi / 4, math.pi / 2], count)
        else:
            axes = rng.standard_normal((count, dim))
            halves = rng.uniform(0.0, rng.choice([0.3, math.pi / 2]), count)
        assume(np.all(np.any(axes != 0, axis=1)))
        gamma = {"zero": 0.0, "random": rng.uniform(0.0, 1.0), "clamp": math.pi / 2}[level]
        family = CouplingFamily(tuple(CircularCone(a, h) for a, h in zip(axes, halves)))
        limits = family.enlarged_half_angles(gamma)
        value, _ = enumerated_minimax(family.axes_matrix(), limits)
        assume(abs(value - FEASIBILITY_TOLERANCE) > 1e-12)
        result = is_feasible(family, gamma)
        assert result.feasible == (value <= FEASIBILITY_TOLERANCE)
        if np.all(limits + value <= math.pi / 2):
            assert result.residual == pytest.approx(value, abs=1e-10)
            assert result.pivots < DEFAULT_ITERATIONS


class TestWholeFamilyFirst:
    """A family of at most ``dim`` cones is first tried whole, and kept only when
    its own balance point certifies itself; else the axis-start search runs."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("offset", [-0.01, 0.01])
    def test_centred_family_certifies_itself_in_one_solve(self, monkeypatch, seed, offset):
        answer = 0.2
        family = centred_family(seed, 6, 4, answer)
        gamma = answer + offset
        value, _ = enumerated_minimax(family.axes_matrix(), family.enlarged_half_angles(gamma))
        sizes = count_balance_solves(monkeypatch)
        result = is_feasible(family, gamma)
        assert sizes == [4]
        assert result.pivots == 1
        assert result.feasible == (value <= FEASIBILITY_TOLERANCE)
        assert result.residual == pytest.approx(value, abs=1e-12)
        assert result.residual == pytest.approx(-offset, abs=1e-12)

    def test_wide_cone_holding_the_others_minimax_falls_back_to_the_search(self, monkeypatch):
        # The two narrow cones balance at the midpoint of their axes, deep inside
        # the wide cone, so the whole family has no certified balance point.
        family = CouplingFamily(
            (cone(planar_axis(-30.0), 10.0), cone(planar_axis(30.0), 10.0),
             cone([1.0, 0.0, 0.2], 60.0))
        )
        axes, limits = family.axes_matrix(), family.enlarged_half_angles(0.0)
        whole = [0, 1, 2]
        assert not cones._balance_scores(axes, limits, whole, whole)[2].any()
        value, _ = enumerated_minimax(axes, limits)
        sizes = count_balance_solves(monkeypatch)
        result = is_feasible(family, 0.0)
        assert sizes[0] == 3 and len(sizes) > 1
        assert not result.feasible
        assert result.residual == pytest.approx(value, abs=1e-12)
        assert result.residual == pytest.approx(math.radians(20.0), abs=1e-12)

    def test_more_cones_than_dimensions_skip_the_shortcut(self, monkeypatch):
        # Three planar cones in the plane: a rank-2 set of three rows has no
        # balance point of its own, so the whole family is never tried.
        family = CouplingFamily(
            (cone(planar_axis(0.0, 2), 10.0), cone(planar_axis(60.0, 2), 15.0),
             cone(planar_axis(130.0, 2), 20.0))
        )
        value, _ = enumerated_minimax(family.axes_matrix(), family.enlarged_half_angles(0.0))
        sizes = count_balance_solves(monkeypatch)
        result = find_gamma_star(family, 1e-4)
        assert sizes and max(sizes) <= 2
        assert result.solves == 1
        assert result.gamma_star == pytest.approx(value, abs=1e-12)
        assert result.gamma_star == pytest.approx(math.radians(50.0), abs=1e-12)


class TestFindGammaStar:
    def test_identical_cones_threshold_zero(self):
        axis = np.array([0.0, 1.0, 0.0])
        family = CouplingFamily((CircularCone(axis, 0.2), CircularCone(axis, 0.2)))
        result = find_gamma_star(family, 1e-4)
        assert result.gamma_star == 0.0
        assert result.bracket == (0.0, 0.0)
        assert result.tolerance == 0.0
        assert family.max_violation(result.witness, 0.0) <= 1e-9

    def test_two_cone_analytic_example(self):
        family = CouplingFamily((cone(planar_axis(0.0), 20.0), cone(planar_axis(60.0), 20.0)))
        result = find_gamma_star(family, 1e-4)
        assert result.gamma_star == pytest.approx(math.pi / 18, abs=2e-4)
        assert result.tolerance <= 1e-4
        lo, hi = result.bracket
        assert lo <= result.gamma_star <= hi + 1e-15
        assert family.max_violation(result.witness, hi) <= 1e-9

    def test_residual_rounded_above_half_pi_keeps_the_bracket_ordered(self):
        # The level-0 residual rounds one ulp above pi/2. In the first family a cone
        # clamps; in the second the level-0 minimizer stays feasible there.
        for family in (
            CouplingFamily((cone([-1.0, 0.0, -1.0], 0.0), cone([-1.0, 0.0, 0.0], 45.0),
                            cone([1.0, 0.0, 1.0], 0.0))),
            CouplingFamily((cone([0.0, -1.0], 30.0), cone([1.0, -1.0], 0.0),
                            cone([-1.0, 1.0], 0.0))),
        ):
            result = find_gamma_star(family, 1e-4)
            low, high = result.bracket
            assert low <= high
            assert result.tolerance >= 0.0
            assert result.gamma_star == cones.HALF_PI
            assert family.max_violation(result.witness, cones.HALF_PI) <= FEASIBILITY_TOLERANCE

    def test_antipodal_needle_cones(self):
        family = CouplingFamily(
            (cone([1.0, 0.0, 0.0], 0.0), cone([-1.0, 0.0, 0.0], 0.0))
        )
        result = find_gamma_star(family, 1e-4)
        assert result.gamma_star == pytest.approx(math.pi / 2, abs=2e-4)

    def test_infeasible_at_max(self):
        family = CouplingFamily(
            (
                cone(planar_axis(0.0, dim=2), 5.0),
                cone(planar_axis(120.0, dim=2), 5.0),
                cone(planar_axis(240.0, dim=2), 5.0),
            )
        )
        with pytest.raises(InfeasibleAtMaxError):
            find_gamma_star(family, 1e-4)

    def test_validation(self):
        family = CouplingFamily((cone([1.0, 0.0], 10.0),))
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                find_gamma_star(family, tol)
        with pytest.raises(ValueError):
            find_gamma_star(family, 1e-3, restarts=0)
        with pytest.raises(ValueError):
            find_gamma_star(family, 1e-3, seed=-1)

    def test_random_two_cone_matches_oracle(self):
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 20:
            dim = int(rng.integers(2, 6))
            first = rng.standard_normal(dim)
            second = rng.standard_normal(dim)
            halves = rng.uniform(0.05, 0.5, size=2)
            family = CouplingFamily(
                (CircularCone(first, halves[0]), CircularCone(second, halves[1]))
            )
            spread = angle_between(family.base_cones[0].axis, family.base_cones[1].axis)
            expected = two_cone_gamma_star(spread, halves[0], halves[1])
            # Stay away from the clamp and from an exactly-zero threshold.
            if expected < 0.01 or max(halves) + expected > math.pi / 2 - 0.05:
                continue
            result = find_gamma_star(family, 1e-4)
            assert result.gamma_star == pytest.approx(expected, abs=2e-4)
            assert family.max_violation(result.witness, result.bracket[1]) <= 1e-9
            checked += 1

    def test_one_solve_below_the_clamp(self, monkeypatch):
        tol = 1e-4
        cases = [
            (
                CouplingFamily((cone(planar_axis(0.0), 20.0), cone(planar_axis(60.0), 20.0))),
                math.radians(20.0),
                math.radians(20.0),
            )
        ]
        rng = np.random.default_rng(77)
        while len(cases) < 6:
            half1, half2 = rng.uniform(0.05, 0.5, size=2)
            answer = rng.uniform(0.02, 0.4)
            if max(half1, half2) + answer < math.pi / 2 - 0.05:
                spread = half1 + half2 + 2.0 * answer
                family = two_cone_family(len(cases), 2 + len(cases) % 4, half1, half2, spread)
                cases.append((family, half1, half2))
        levels = count_solves(monkeypatch)
        for family, half1, half2 in cases:
            spread = angle_between(family.base_cones[0].axis, family.base_cones[1].axis)
            levels.clear()
            result = find_gamma_star(family, tol)
            assert levels == [0.0]
            assert result.solves == 1
            assert result.gamma_star == pytest.approx(
                two_cone_gamma_star(spread, half1, half2), abs=1e-12
            )
            lo, hi = result.bracket
            assert 0.0 < hi - lo <= tol
            assert family.max_violation(result.witness, hi) <= 1e-9

    def test_clamped_family_bisects_above_the_residual(self, monkeypatch):
        # The 80 degree cone opens to a half-space at level 10 degrees; the
        # 10 degree cone then reaches it at level 150 - 90 - 10 = 50 degrees,
        # well above the level-0 residual of (150 - 80 - 10) / 2 = 30 degrees.
        tol = 1e-4
        family = CouplingFamily(
            (cone(planar_axis(0.0), 80.0), cone(planar_axis(150.0), 10.0))
        )
        levels = count_solves(monkeypatch)
        result = find_gamma_star(family, tol)
        assert result.gamma_star == pytest.approx(math.radians(50.0), abs=2e-4)
        lo, hi = result.bracket
        assert 0.0 < hi - lo <= tol
        assert family.max_violation(result.witness, hi) <= 1e-9
        assert len(levels) > 2
        assert min(levels[1:]) >= math.radians(30.0) - 1e-9
        assert result.solves == len(levels)

    def test_random_thresholds_past_a_clamp_match_subset_enumeration(self):
        # The enumeration's verdicts are exact at every level: a feasible optimum
        # is a balance point. Families like test_matches_subset_enumeration's,
        # with half-angles up to pi/2 so that cones clamp.
        def feasible(family, gamma):
            limits = family.enlarged_half_angles(gamma)
            return enumerated_minimax(family.axes_matrix(), limits)[0] <= FEASIBILITY_TOLERANCE

        tol, past_clamp, raised = 1e-4, 0, 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            dim, count = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            if rng.integers(2):
                axes = rng.integers(-1, 2, (count, dim))
                halves = rng.choice([0.0, 0.1, 0.3, 0.7, math.pi / 4, math.pi / 2], count)
            else:
                axes = rng.standard_normal((count, dim))
                halves = rng.uniform(0.0, math.pi / 2, count)
            if not np.all(np.any(axes != 0, axis=1)):
                continue
            family = CouplingFamily(tuple(CircularCone(a, h) for a, h in zip(axes, halves)))
            try:
                result = find_gamma_star(family, tol)
            except InfeasibleAtMaxError:
                assert not feasible(family, math.pi / 2)
                raised += 1
                continue
            # The witness also proves the family feasible at pi/2, where the cones nest.
            low, high = result.bracket
            assert family.max_violation(result.witness, high) <= 1e-9
            if result.solves == 1:
                continue
            past_clamp += 1
            # A level-0 residual of exactly pi/2 is the threshold itself.
            assert 0.0 < high - low <= tol or low == high == math.pi / 2
            if low > 1e-7:
                assert not feasible(family, low - 1e-7)
        assert past_clamp >= 20 and raised >= 1

    def test_many_cone_family(self):
        # All 40 cones are active at the centre; enumerating the family's
        # subsets of up to six cones would take about 4.6 million solves.
        answer = 0.23
        family = centred_family(3, 6, 40, answer)
        result = find_gamma_star(family, 1e-4)
        assert result.gamma_star == pytest.approx(answer, abs=1e-9)
        assert result.solves == 1
        assert family.max_violation(result.witness, result.gamma_star) <= 1e-9
        below = is_feasible(family, answer - 1e-6)
        assert not below.feasible
        assert below.residual == pytest.approx(1e-6, abs=1e-9)
        assert below.pivots < 40

    def test_restarts_and_seed_do_not_change_the_result(self):
        families = [
            random_family(np.random.default_rng(seed), 2 + seed % 4, 2 + seed % 4)
            for seed in range(12)
        ]
        families.append(
            CouplingFamily((cone(planar_axis(0.0), 80.0), cone(planar_axis(150.0), 10.0)))
        )
        for family in families:
            runs = [
                find_gamma_star(family, 1e-4, restarts, seed=seed)
                for restarts, seed in ((1, 0), (64, 0), (64, 11), (1, 11))
            ]
            for run in runs[1:]:
                assert run.bracket == runs[0].bracket
                assert run.witness.tobytes() == runs[0].witness.tobytes()


class TestPhi:
    def test_hemisphere(self):
        family = CouplingFamily((CircularCone(np.array([0.0, 0.0, 1.0]), math.pi / 2),))
        estimate, std_error = phi(family, 0.7, 100_000, seed=5)
        assert abs(estimate - 0.5) <= 3.0 * max(std_error, 1e-12)

    def test_empty_intersection(self):
        family = CouplingFamily(
            (cone(planar_axis(0.0), 10.0), cone(planar_axis(90.0), 10.0))
        )
        estimate, std_error = phi(family, 0.0, 50_000, seed=6)
        assert estimate == 0.0
        assert std_error == 0.0

    def test_identical_axes_clamped(self):
        axis = np.array([1.0, 1.0, 1.0])
        family = CouplingFamily(
            (CircularCone(axis, math.pi / 2), CircularCone(axis, math.pi / 2))
        )
        estimate, std_error = phi(family, 1.0, 100_000, seed=7)
        assert abs(estimate - 0.5) <= 3.0 * max(std_error, 1e-12)

    def test_cap_fraction_3d(self):
        family = CouplingFamily((CircularCone(np.array([0.2, -0.5, 0.8]), math.pi / 4),))
        estimate, std_error = phi(family, 0.0, 100_000, seed=8)
        expected = spherical_cap_fraction_3d(math.pi / 4)
        assert abs(estimate - expected) <= 3.0 * std_error

    def test_deterministic(self):
        family = CouplingFamily((cone([1.0, 0.0, 0.0], 45.0),))
        assert phi(family, 0.1, 10_000, seed=3) == phi(family, 0.1, 10_000, seed=3)

    def test_validation(self):
        family = CouplingFamily((cone([1.0, 0.0], 45.0),))
        with pytest.raises(ValueError):
            phi(family, 0.0, 0, seed=1)
        for gamma in (-0.1, math.nan):
            with pytest.raises(ValueError):
                phi(family, gamma, 100, seed=1)

    def test_is_one_point_of_phi_curve(self):
        family = random_family(np.random.default_rng(13), 3, 2)
        assert phi(family, 0.4, 5_000, 2) == phi_curve(family, [0.4], 5_000, 2)[0][1:]


class TestPhiCurve:
    def test_exactly_monotone(self):
        rng = np.random.default_rng(12)
        family = random_family(rng, 3, 3)
        curve = phi_curve(family, np.linspace(0.0, math.pi / 2, 12), 20_000, seed=4)
        estimates = [value for _, value, _ in curve]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))

    @pytest.mark.parametrize("seed", [7, 8, 1807])
    def test_counts_match_membership_by_level_at_benchmark_scale(self, seed):
        # The largest slot the benchmark runs: five cones in dimension 8, 2e4 samples.
        family = random_family(np.random.default_rng(seed), 8, 5)
        grid = np.linspace(0.0, math.pi / 2, 7)
        estimates = [estimate for _, estimate, _ in phi_curve(family, grid, 20_000, seed)]
        halves = family.enlarged_half_angles(0.0)
        assert estimates == phi_curve_by_level(family.axes_matrix(), halves, grid, 20_000, seed)
        assert estimates[-1] > 0.0

    def test_single_cone_cap_value(self):
        family = CouplingFamily((CircularCone(np.array([0.0, 0.0, 1.0]), math.pi / 4),))
        curve = phi_curve(family, [0.0, 0.3], 100_000, seed=9)
        gamma0, estimate0, std_error0 = curve[0]
        assert gamma0 == 0.0
        assert abs(estimate0 - spherical_cap_fraction_3d(math.pi / 4)) <= 3 * std_error0
        _, estimate1, std_error1 = curve[1]
        assert abs(estimate1 - spherical_cap_fraction_3d(math.pi / 4 + 0.3)) <= 3 * std_error1

    def test_below_threshold_is_zero(self):
        family = CouplingFamily(
            (cone(planar_axis(0.0), 10.0), cone(planar_axis(80.0), 10.0))
        )
        curve = phi_curve(family, [0.0, 0.1], 20_000, seed=11)
        assert curve[0][1] == 0.0
        assert curve[1][1] == 0.0

    def test_grid_validation(self):
        family = CouplingFamily((cone([1.0, 0.0], 30.0),))
        with pytest.raises(ValueError):
            phi_curve(family, [], 100, seed=0)
        with pytest.raises(ValueError):
            phi_curve(family, [0.0, 0.0], 100, seed=0)
        with pytest.raises(ValueError):
            phi_curve(family, [0.2, 0.1], 100, seed=0)
        for grid in ([0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [-0.1, 0.2]):
            with pytest.raises(ValueError):
                phi_curve(family, grid, 100, seed=0)
