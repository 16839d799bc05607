import numpy as np
import pytest

from reachopt import (
    ConstraintOperator,
    DimensionMismatchError,
    SymmetricMatrix,
    constant_field,
    diag_decay_field,
    mask_field,
    operator_field_from_config,
)
from conftest import random_psd


class TestEffort:
    def test_identity_gives_squared_norm(self):
        op = ConstraintOperator(np.eye(2))
        assert float(op.effort([3.0, 4.0])) == pytest.approx(25.0, abs=1e-12)

    def test_kernel_direction_is_free(self):
        op = ConstraintOperator(np.diag([4.0, 0.0]))
        assert float(op.effort([0.0, 1.0])) == 0.0

    def test_diagonal_substitution(self):
        op = ConstraintOperator(np.diag([4.0, 2.0]))
        assert float(op.effort([1.0, 1.0])) == pytest.approx(6.0, abs=1e-12)

    def test_dimension_mismatch(self):
        op = ConstraintOperator(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            op.effort([1.0, 2.0, 3.0])

    def test_matches_spectral_form(self, rng):
        op = ConstraintOperator(random_psd(rng, 5, 3))
        direction = rng.standard_normal(5)
        spectrum = op.spectrum
        components = spectrum.eigenvectors.T @ direction
        spectral_value = float(spectrum.eigenvalues @ (components * components))
        assert float(op.effort(direction)) == pytest.approx(
            spectral_value, rel=1e-10, abs=1e-12
        )

    def test_effort_is_float(self):
        op = ConstraintOperator(np.eye(2))
        assert type(op.effort([1.0, 0.0])) is float


class TestIsAdmissible:
    def test_unit_effort_under_identity(self):
        op = ConstraintOperator(np.eye(2))
        assert op.is_admissible([1.0, 0.0], tol=1e-8)

    def test_kernel_direction_rejected(self):
        op = ConstraintOperator(np.diag([1.0, 0.0]))
        assert not op.is_admissible([0.0, 1.0])

    def test_effort_scaling(self):
        op = ConstraintOperator(np.diag([4.0, 1.0]))
        assert op.is_admissible([0.5, 0.0])

    def test_non_unit_effort_rejected(self):
        op = ConstraintOperator(np.eye(2))
        assert not op.is_admissible([2.0, 0.0])

    def test_zero_vector_raises(self):
        op = ConstraintOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.is_admissible([0.0, 0.0])


class TestOperatorGeometry:
    def test_image_kernel_split(self, rng):
        op = ConstraintOperator(random_psd(rng, 6, 4))
        assert op.reachable_dim == 4
        kernel_dim = op.dim - op.reachable_dim
        assert op.reachable_dim + kernel_dim == 6

    def test_orthogonal_decomposition(self, rng):
        op = ConstraintOperator(random_psd(rng, 5, 3))
        for _ in range(10):
            vector = rng.standard_normal(5)
            image_part = op.project_onto_image(vector)
            kernel_part = vector - image_part
            assert abs(float(image_part @ kernel_part)) <= 1e-10
            # The complement really is operator kernel.
            assert np.linalg.norm(op.matrix.apply(kernel_part)) <= 1e-9

    def test_operator_norm_is_top_eigenvalue(self):
        op = ConstraintOperator(np.diag([4.0, 2.0]))
        assert op.operator_norm == pytest.approx(4.0, abs=1e-12)
        assert ConstraintOperator(np.zeros((2, 2))).operator_norm == 0.0


class TestOperatorFields:
    def test_constant_field_reuses_operator(self):
        field = constant_field(np.eye(3))
        first = field(np.zeros(3))
        second = field(np.ones(3))
        assert first is second

    def test_diag_decay_entries(self):
        field = diag_decay_field(dim=3, scale=2.0, ratio=0.5)
        op = field(np.zeros(3))
        assert np.allclose(np.diag(op.matrix.entries), [2.0, 1.0, 0.5])

    def test_diag_decay_validation(self):
        with pytest.raises(ValueError):
            diag_decay_field(dim=0, scale=1.0, ratio=0.5)
        with pytest.raises(ValueError):
            diag_decay_field(dim=2, scale=-1.0, ratio=0.5)

    def test_mask_projection(self):
        field = mask_field([1, 0, 1])
        op = field(np.zeros(3))
        assert op.reachable_dim == 2
        assert np.allclose(op.matrix.entries, np.diag([1.0, 0.0, 1.0]))

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            mask_field([1, 2, 0])

    def test_config_dispatch(self):
        constant = operator_field_from_config(
            {"kind": "constant", "matrix": {"dim": 2, "entries": [[1, 0], [0, 1]]}}
        )
        assert constant(np.zeros(2)).dim == 2
        decay = operator_field_from_config(
            {"kind": "diag_decay", "dim": 2, "scale": 1.0, "ratio": 0.5}
        )
        assert decay(np.zeros(2)).reachable_dim == 2
        masked = operator_field_from_config({"kind": "mask", "mask": [0, 1]})
        assert masked(np.zeros(2)).reachable_dim == 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            operator_field_from_config({"kind": "mystery"})

    def test_symmetric_matrix_input_accepted(self):
        op = ConstraintOperator(SymmetricMatrix(np.eye(2)))
        assert op.dim == 2
