import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reachopt import (
    DimensionMismatchError,
    JacobiConvergenceError,
    NotPositiveSemidefiniteError,
    SymmetricMatrix,
    decompose,
)
from reachopt import spectral
from reachopt.spectral import _canonicalize_signs, _jacobi_eigensystem, _round_plan
from conftest import random_gram_psd, random_orthogonal, random_psd, rank_deficient_psd
from oracles import eigenvalues_by_charpoly, jacobi_reference, moore_penrose_residuals


class TestSymmetricMatrix:
    def test_symmetrizes_input(self):
        mat = SymmetricMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(mat.entries, [[1.0, 1.0], [1.0, 3.0]])
        assert mat.dim == 2

    def test_entries_are_read_only(self):
        mat = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            mat.entries[0, 0] = 5.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_entries_too_large_to_symmetrize(self):
        # Each diagonal entry doubles past the float range in A + A.T.
        with pytest.raises(ValueError, match="too large to symmetrize"):
            decompose(np.ldexp(np.ones((2, 2)), 1023))

    def test_huge_pair_that_cancels_and_subnormals_keep_their_bits(self):
        half = np.ldexp(1.0, 1023)
        mat = SymmetricMatrix([[5e-324, half], [-half, 1e-310]])
        assert mat.entries.tobytes() == np.array([[5e-324, 0.0], [0.0, 1e-310]]).tobytes()


class TestDecompose:
    def test_identity(self):
        dec = decompose(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert dec.rank == 3

    def test_diagonal_case(self):
        dec = decompose(np.diag([4.0, 2.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [4.0, 2.0, 1.0])
        # Coordinate axes up to sign; the sign convention makes them exact.
        assert np.array_equal(dec.eigenvectors, np.eye(3))
        assert dec.rank == 3

    def test_random_gram_matches_charpoly_oracle(self):
        rng = np.random.default_rng(42)
        factor = rng.standard_normal((5, 5))
        matrix = factor.T @ factor
        dec = decompose(matrix)
        sym = (matrix + matrix.T) / 2.0
        reconstructed = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        residual = np.linalg.norm(reconstructed - sym)
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(sym))
        expected = eigenvalues_by_charpoly(sym)
        assert np.max(np.abs(dec.eigenvalues - expected)) <= 1e-6

    def test_eigenvalues_descending_and_orthonormal(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 11))
            rank = int(rng.integers(1, dim + 1))
            dec = decompose(random_psd(rng, dim, rank))
            assert np.all(np.diff(dec.eigenvalues) <= 0.0)
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9
            assert np.all(dec.eigenvalues >= -1e-10)

    def test_rank_counts_strictly_above_tolerance(self, rng):
        assert decompose(random_psd(rng, 6, 3)).rank == 3
        # The one rank rule: a mode counts when it exceeds 1e-10 times the
        # largest eigenvalue, so a mode at 2e-10 stays and one at 0.5e-10 goes.
        basis = random_orthogonal(rng, 6)
        values = np.array([1.0, 0.3, 2e-10, 0.5e-10, 0.0, 0.0])
        dec = decompose((basis * values) @ basis.T)
        assert spectral.RELATIVE_RANK_TOLERANCE == 1e-10
        assert dec.rank == 3

    @pytest.mark.parametrize("exponent", [-40, 40])
    def test_power_of_two_scaling_changes_only_eigenvalues(self, rng, exponent):
        # Every tolerance is relative: the scaled matrix runs the same sweeps
        # on scaled entries, keeps its rank and passes the PSD test.
        basis = random_orthogonal(rng, 7)
        values = np.array([1.0, 0.5, 0.3, 2e-10, 0.5e-10, 0.0, 0.0])
        matrix = (basis * values) @ basis.T
        dec = decompose(matrix)
        scaled = decompose(np.ldexp(matrix, exponent))
        assert scaled.rank == dec.rank == 4
        assert scaled.sweeps == dec.sweeps
        assert np.array_equal(scaled.eigenvalues, np.ldexp(dec.eigenvalues, exponent))
        assert np.array_equal(scaled.eigenvectors, dec.eigenvectors)

    @pytest.mark.parametrize("exponent", [511, 1000, -1000])
    def test_frobenius_norm_out_of_range(self, exponent):
        # The sum of squares behind |A|_F overflows (or underflows); A and its spectrum do not.
        dec = decompose(np.ldexp([[1.0, 1.0], [1.0, 1.0]], exponent))
        assert dec.rank == 1 and dec.sweeps == 1
        assert dec.eigenvalues[1] == 0.0
        assert abs(dec.eigenvalues[0] / math.ldexp(1.0, exponent + 1) - 1.0) <= 1e-15
        assert np.allclose(dec.eigenvectors[:, 0], [math.sqrt(0.5)] * 2, rtol=1e-15)

    def test_subnormal_entries(self):
        dec = decompose(np.ldexp([[2.0, 1.0], [1.0, 2.0]], -1070))
        assert dec.rank == 2 and dec.sweeps == 1
        assert np.array_equal(dec.eigenvalues, np.ldexp([3.0, 1.0], -1070))

    def test_sign_convention(self, rng):
        dec = decompose(random_psd(rng, 5, 5))
        for j in range(5):
            column = dec.eigenvectors[:, j]
            first = column[np.flatnonzero(np.abs(column) > 1e-12)[0]]
            assert first > 0.0

    def test_deterministic(self, rng):
        matrix = random_psd(rng, 7, 5)
        first = decompose(matrix)
        second = decompose(matrix)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_clamps_rounding_noise(self):
        basis = random_orthogonal(np.random.default_rng(3), 2)
        matrix = (basis * np.array([1.0, -5e-11])) @ basis.T
        dec = decompose(matrix)
        assert dec.eigenvalues[-1] == 0.0
        assert dec.rank == 1

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            decompose(np.diag([1.0, -1.0]))

    def test_nonconvergence_carries_residual(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_MAX_SWEEPS", 0)
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(JacobiConvergenceError) as excinfo:
            decompose(matrix)
        assert excinfo.value.off_diagonal_residual > 0.0

    def test_zero_matrix(self):
        dec = decompose(np.zeros((3, 3)))
        assert dec.rank == 0
        assert np.array_equal(dec.eigenvalues, np.zeros(3))

    def test_diagonal_input_needs_no_sweep(self):
        dec = decompose(np.diag([3.0, 1.0, 2.0]))
        assert dec.sweeps == 0
        assert dec.off_diagonal_norm == 0.0

    def test_counters_at_64(self):
        matrix = random_psd(np.random.default_rng(5), 64, 64)
        dec = decompose(matrix)
        target = 1e-14 * max(1.0, np.linalg.norm((matrix + matrix.T) / 2.0))
        assert 1 <= dec.sweeps <= 20
        assert dec.off_diagonal_norm <= target


class TestSkipLevel:
    """Jacobi leaves entries of at most 1e-14 * |A|_F / n alone."""

    @staticmethod
    def _accurate(matrix):
        dec = decompose(matrix)
        vectors, values = dec.eigenvectors, dec.eigenvalues
        assert np.max(np.abs(matrix @ vectors - vectors * values)) <= 1e-13 * values[0]
        assert np.max(np.abs(vectors.T @ vectors - np.eye(values.size))) <= 1e-13
        return dec

    def test_rank_deficient_at_64_converges_in_ten_sweeps(self):
        # Rotating the kernel's noise would undo kernel-image couplings already
        # removed; a skip level of target / n**2 needed 12-13 sweeps here.
        dec = self._accurate(random_psd(np.random.default_rng(51), 64, 51))
        assert dec.sweeps <= 10

    def test_repeated_eigenvalue_stays_accurate(self):
        rng = np.random.default_rng(16)
        basis = random_orthogonal(rng, 64)
        values = np.zeros(64)
        values[:16] = 2.0
        values[16:51] = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 35))
        self._accurate((basis * values) @ basis.T)

    def test_entries_just_below_the_skip_level_stay(self):
        n = 16
        matrix = np.diag(np.linspace(1.0, 2.0, n))
        norm = np.linalg.norm(matrix)
        small = 0.99e-14 * norm / n
        matrix += small * (1.0 - np.eye(n))
        matrix[0, 5] = matrix[5, 0] = 10e-14 * norm
        dec = decompose(matrix)
        assert dec.sweeps == 1
        assert dec.off_diagonal_norm <= 1e-14 * np.linalg.norm(matrix)
        # Only the large pair was rotated; the small entries are still there.
        assert dec.off_diagonal_norm >= 0.9 * small * math.sqrt(n * (n - 1) - 2)


def _signs_by_column(vectors):
    """Reference: the per-column loop that ``_canonicalize_signs`` vectorizes."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        column = out[:, j]
        nonzero = np.flatnonzero(np.abs(column) > 1e-12)
        if nonzero.size and column[nonzero[0]] < 0.0:
            out[:, j] = -column
    return out


class TestRoundRobinJacobi:
    @pytest.mark.parametrize("m", [2, 4, 6, 34, 64])
    def test_schedule_meets_every_pair_once(self, m):
        rows = np.arange(m)
        met = set()
        for partner, _, sign, _ in _round_plan(m):
            assert np.array_equal(partner[partner], rows) and not np.any(partner == rows)
            assert np.array_equal(sign[partner], -sign)
            met.update(frozenset(pair) for pair in zip(rows.tolist(), partner.tolist()))
        assert len(met) == m * (m - 1) // 2

    @pytest.mark.parametrize("dim", [1, 2, 3, 33])
    def test_odd_and_even_sizes(self, dim):
        matrix = random_psd(np.random.default_rng(dim), dim, dim)
        dec = decompose(matrix)
        assert dec.eigenvectors.shape == (dim, dim)
        expected = np.sort(np.linalg.eigvalsh(matrix))[::-1]
        assert np.max(np.abs(dec.eigenvalues - expected)) <= 1e-12 * expected[0]
        reconstructed = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(reconstructed - matrix)) <= 1e-12 * expected[0]
        assert np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(dim))) <= 1e-13

    def test_matches_lapack_at_64(self):
        matrix = random_psd(np.random.default_rng(64), 64, 64)
        dec = decompose(matrix)
        norm = np.linalg.norm(matrix, 2)
        expected = np.sort(np.linalg.eigvalsh(matrix))[::-1]
        assert np.max(np.abs(dec.eigenvalues - expected)) <= 1e-12 * norm
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.linalg.norm(gram - np.eye(64), np.inf) <= 1e-13

    def test_pad_stays_out_of_rank_and_kernel(self):
        # An odd dimension is padded to even inside the solver.
        matrix = random_gram_psd(np.random.default_rng(33), 33, 20)
        dec = decompose(matrix)
        assert dec.eigenvalues.shape == (33,)
        assert dec.rank == 20
        kernel = dec.eigenvectors[:, dec.rank :]
        assert kernel.shape == (33, 13)
        assert np.max(np.abs(kernel.T @ kernel - np.eye(13))) <= 1e-13
        assert np.max(np.abs(matrix @ kernel)) <= 1e-12 * np.linalg.norm(matrix, 2)

    def test_sign_canonicalization_matches_column_loop(self):
        basis = random_orthogonal(np.random.default_rng(8), 8)
        values = np.array([3.0, 3.0, 3.0, 1.0, 1.0, 0.5, 0.0, 0.0])
        _, vectors, _, _ = _jacobi_eigensystem((basis * values) @ basis.T)
        vectors[:, 2] = -vectors[:, 2]
        vectors[0, 1] = 1e-13  # below the tolerance, so the next entry decides
        vectors[:, 5] = 0.0  # no entry above the tolerance: left alone
        expected = _signs_by_column(vectors)
        _canonicalize_signs(vectors)
        assert np.array_equal(vectors, expected)
        assert np.array_equal(np.signbit(vectors), np.signbit(expected))


def _moving_layout_case(dim, kind):
    rng = np.random.default_rng(dim)
    if kind == "gram":
        return random_gram_psd(rng, dim, dim)
    if kind == "rank-deficient":
        return random_psd(rng, dim, dim // 2)
    if kind == "diagonal":
        return np.diag(rng.uniform(0.0, 4.0, dim))
    return np.zeros((dim, dim))


def _assert_same_as_moving_layout(matrix, start=None):
    """decompose against the moving-layout solver plus decompose's own sort and signs."""
    sym = SymmetricMatrix(matrix)
    dec = decompose(sym, start=start)
    refined = None if start is None else spectral._orthonormal_start(start, sym.dim)
    values, vectors, sweeps, off = jacobi_reference(sym.entries, refined)
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    values[values < 0.0] = 0.0
    _canonicalize_signs(vectors)
    assert dec.eigenvalues.tobytes() == values.tobytes()
    assert dec.eigenvectors.tobytes() == vectors.tobytes()
    assert (dec.sweeps, dec.off_diagonal_norm) == (sweeps, off)


class TestSameWorkAsMovingLayout:
    """Rounds that keep rows in place do the moving-layout rounds' arithmetic, bit for bit."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize(
        "dim,kind",
        [(dim, kind) for dim in (1, 2, 3, 5, 8, 9, 12)
         for kind in ("gram", "rank-deficient", "diagonal", "zero")]
        + [(33, "rank-deficient"), (64, "gram")],
    )
    def test_matches_reference(self, dim, kind, warm):
        start = random_orthogonal(np.random.default_rng(dim + 1), dim) if warm else None
        _assert_same_as_moving_layout(_moving_layout_case(dim, kind), start)

    @given(rank_deficient_psd(), st.booleans(), st.integers(-60, 60))
    def test_matches_reference_on_drawn_spectra(self, drawn, warm, exponent):
        matrix = np.ldexp(drawn[0], exponent)
        dim = matrix.shape[0]
        start = random_orthogonal(np.random.default_rng(dim), dim) if warm else None
        _assert_same_as_moving_layout(matrix, start)


class TestColdStartIsIdentityStart:
    """No start is the identity start: the same path, bit for bit."""

    @pytest.mark.parametrize(
        "matrix",
        [pytest.param(_moving_layout_case(dim, kind), id=f"{kind}-{dim}")
         for dim in (1, 2, 5, 8, 9, 12) for kind in ("gram", "rank-deficient", "diagonal", "zero")]
        + [pytest.param(-0.0 * np.eye(3), id="negative-zero-3"),
           pytest.param(np.array([[-0.0, -0.0], [-0.0, 1.0]]), id="negative-zero-entries")],
    )
    def test_matches_identity_start(self, matrix):
        cold = decompose(matrix)
        warm = decompose(matrix, start=np.eye(matrix.shape[0]))
        assert cold.eigenvalues.tobytes() == warm.eigenvalues.tobytes()
        assert cold.eigenvectors.tobytes() == warm.eigenvectors.tobytes()
        assert (cold.sweeps, cold.off_diagonal_norm) == (warm.sweeps, warm.off_diagonal_norm)
        assert not np.signbit(cold.eigenvalues).any()


_HASH_SCRIPT = """
import hashlib

import numpy as np
from reachopt import decompose, run_ascent
from conftest import drifting_objective, rotating_field

for dim in (1, 2, 7, 33, 64):
    factor = np.random.default_rng(dim).integers(-3, 4, size=(dim + 1, dim))
    dec = decompose((factor.T @ factor).astype(float))
    digest = hashlib.sha256(dec.eigenvalues.tobytes() + dec.eigenvectors.tobytes())
    print(dim, digest.hexdigest())

# Warm-started Jacobi along point-dependent trajectories, each run twice.
for dim, steps in ((8, 40), (33, 6)):
    for attempt in range(2):
        record = run_ascent(drifting_objective(dim), rotating_field(dim), None,
                            np.zeros(dim), steps, 0.01)
        points = np.array([row.point for row in record.steps] + [record.final_point])
        gains = np.array([row.first_order_gain for row in record.steps])
        digest = hashlib.sha256(points.tobytes() + gains.tobytes())
        print("run", dim, len(record.steps), digest.hexdigest())
"""


def test_bits_identical_across_blas_threads():
    # Integer B^T B is exact without BLAS, so only the solver could differ.
    # The trajectories' fields and payoffs are BLAS-free too.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join((str(tests.parent / "src"), str(tests)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(result.stdout)
    lines = outputs[0].splitlines()
    assert len(lines) == 9
    assert lines[5] == lines[6] == "run 8 40 " + lines[5].split()[-1]
    assert lines[7] == lines[8] == "run 33 6 " + lines[7].split()[-1]
    assert outputs[0] == outputs[1]


_CORE_HASH_SCRIPT = """
import hashlib

import numpy as np
from reachopt import decompose

for dim in (3, 8, 12):
    factor = np.random.default_rng(dim).integers(-3, 4, size=(dim + 1, dim))
    dec = decompose((factor.T @ factor).astype(float))
    print(dim, hashlib.sha256(dec.eigenvalues.tobytes() + dec.eigenvectors.tobytes()).hexdigest())
"""


def test_decompose_bits_identical_across_blas_cores():
    # The cross-machine part of the determinism contract: OpenBLAS picks its kernels per
    # CPU, and OPENBLAS_CORETYPE makes one machine pick another CPU's. Jacobi calls no
    # BLAS, so decompose keeps its bits; OPENBLAS_VERBOSE=2 reports the core in use.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join((str(tests.parent / "src"), str(tests)))
    cores, outputs = [], []
    for core in ("Haswell", "Prescott"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
                   OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        result = subprocess.run([sys.executable, "-c", _CORE_HASH_SCRIPT], env=env,
                                capture_output=True, text=True, check=True, timeout=120)
        cores.append([line for line in result.stderr.splitlines() if line.startswith("Core:")])
        outputs.append(result.stdout)
    if not cores[0] or cores[0] == cores[1]:
        pytest.skip(f"OPENBLAS_CORETYPE chose no other BLAS core here: {cores}")
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


class TestWarmStart:
    """Jacobi started from a nearby eigenbasis, against the cold solver."""

    @pytest.mark.parametrize("dim", [8, 12, 33])
    def test_graded_matrices_match_cold(self, dim):
        # D C D with D from 1 down to 1e-6: eigenvalues span about 13 decades.
        rng = np.random.default_rng(dim)
        grading = np.geomspace(1.0, 1e-6, dim)
        matrix = grading[:, None] * random_psd(rng, dim, dim) * grading
        start = decompose(matrix).eigenvectors
        skew = 1e-3 * rng.standard_normal((dim, dim))
        skew -= skew.T
        turn = np.linalg.solve(np.eye(dim) - skew, np.eye(dim) + skew)  # Cayley: orthogonal
        turned = SymmetricMatrix(turn @ matrix @ turn.T)
        cold = decompose(turned)
        warm = decompose(turned, start=start)
        assert np.max(np.abs(warm.eigenvalues - cold.eigenvalues)) <= 1e-10 * cold.eigenvalues[0]
        assert warm.rank == cold.rank
        vectors = warm.eigenvectors
        residual = turned.entries @ vectors - vectors * warm.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-12 * cold.eigenvalues[0]
        assert np.max(np.abs(vectors.T @ vectors - np.eye(dim))) <= 1e-13

    def test_start_is_checked(self):
        matrix = np.diag([3.0, 2.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            decompose(matrix, start=np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            decompose(matrix, start=np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="orthonormal"):
            decompose(matrix, start=np.eye(3) * (1.0 + 1e-7))

    def test_slightly_skewed_start_is_refined(self):
        rng = np.random.default_rng(5)
        matrix = random_psd(rng, 6, 6)
        start = decompose(matrix).eigenvectors * (1.0 + 2e-9)
        warm = decompose(matrix, start=start)
        vectors = warm.eigenvectors
        assert np.max(np.abs(vectors.T @ vectors - np.eye(6))) <= 1e-14
        assert np.max(np.abs(warm.eigenvalues - decompose(matrix).eigenvalues)) <= 1e-13


class TestPseudoinverse:
    def test_zero_matrix(self):
        dec = decompose(np.zeros((2, 2)))
        assert np.array_equal(dec.pseudoinverse().entries, np.zeros((2, 2)))

    def test_diagonal_reciprocal_on_support(self):
        dec = decompose(np.diag([4.0, 2.0, 0.0]))
        assert np.allclose(dec.pseudoinverse().entries, np.diag([0.25, 0.5, 0.0]))

    def test_random_rank2_identities(self):
        rng = np.random.default_rng(11)
        matrix = random_psd(rng, 3, 2)
        sym = (matrix + matrix.T) / 2.0
        pinv = decompose(sym).pseudoinverse().entries
        assert max(moore_penrose_residuals(sym, pinv)) <= 1e-9

    def test_identities_across_random_matrices(self, rng):
        for index in range(100):
            dim = int(rng.integers(2, 11))
            rank = int(rng.integers(1, dim + 1))
            if index % 2 == 0:
                matrix = random_psd(rng, dim, rank)
            else:
                matrix = random_gram_psd(rng, dim, rank)
            sym = (matrix + matrix.T) / 2.0
            pinv = decompose(sym).pseudoinverse().entries
            assert max(moore_penrose_residuals(sym, pinv)) <= 1e-9

    @given(rank_deficient_psd())
    def test_identities_on_clustered_and_graded_spectra(self, drawn):
        matrix, rank = drawn
        dec = decompose(matrix)
        assert dec.rank == rank
        # Backward-stable level: residuals grow with the condition number of
        # the retained modes.
        kappa = dec.eigenvalues[0] / dec.eigenvalues[rank - 1]
        sym = SymmetricMatrix(matrix).entries
        residuals = moore_penrose_residuals(sym, dec.pseudoinverse().entries)
        assert max(residuals) <= 1e3 * np.finfo(float).eps * kappa


class TestProjectOntoImage:
    def test_full_rank_is_identity(self, rng):
        dec = decompose(random_psd(rng, 4, 4))
        vector = rng.standard_normal(4)
        assert np.linalg.norm(dec.project_onto_image(vector) - vector) <= 1e-10

    def test_rank_one_axis(self):
        dec = decompose(np.diag([1.0, 0.0, 0.0]))
        projected = dec.project_onto_image(np.array([3.0, 4.0, 0.0]))
        assert np.allclose(projected, [3.0, 0.0, 0.0])

    def test_matches_matrix_product_oracle(self, rng):
        matrix = random_psd(rng, 4, 2)
        sym = (matrix + matrix.T) / 2.0
        dec = decompose(sym)
        vector = rng.standard_normal(4)
        oracle = sym @ dec.pseudoinverse().entries @ vector
        assert np.linalg.norm(dec.project_onto_image(vector) - oracle) <= 1e-9

    def test_idempotent(self, rng):
        dec = decompose(random_psd(rng, 5, 3))
        vector = rng.standard_normal(5)
        once = dec.project_onto_image(vector)
        twice = dec.project_onto_image(once)
        assert np.linalg.norm(twice - once) <= 1e-10

    def test_orthogonal_to_kernel(self, rng):
        dec = decompose(random_psd(rng, 5, 2))
        vector = rng.standard_normal(5)
        projected = dec.project_onto_image(vector)
        kernel = dec.eigenvectors[:, dec.rank :]
        assert np.max(np.abs(kernel.T @ projected)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        dec = decompose(random_psd(rng, 3, 3))
        with pytest.raises(DimensionMismatchError):
            dec.project_onto_image(np.ones(4))
