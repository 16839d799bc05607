"""Exception types shared across the toolkit."""

from __future__ import annotations


class ReachoptError(Exception):
    """Base class for all toolkit-specific failures."""


class DimensionMismatchError(ReachoptError, ValueError):
    """Operands disagree on the ambient dimension."""


class NotPositiveSemidefiniteError(ReachoptError, ValueError):
    """A matrix that must be positive semidefinite has a clearly negative eigenvalue."""


class JacobiConvergenceError(ReachoptError, RuntimeError):
    """The round-robin Jacobi sweeps ran out before the off-diagonal mass vanished."""

    def __init__(self, off_diagonal_residual: float, sweeps: int) -> None:
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off_diagonal_residual:.3e})"
        )
        self.off_diagonal_residual = off_diagonal_residual
        self.sweeps = sweeps


class InfeasibleAtMaxError(ReachoptError, RuntimeError):
    """Even fully enlarged cones share no common direction.

    ``residual`` is a worst violation attained at the solver's point, not
    necessarily the minimax: at maximal coupling every cone is clamped, so
    the solve runs outside the convex regime. The verdict itself is exact.
    """

    def __init__(self, residual: float) -> None:
        super().__init__(
            f"no common direction exists even at maximal coupling "
            f"(a residual attained: {residual:.3e} rad)"
        )
        self.residual = residual


class InfeasibleStartError(ReachoptError, ValueError):
    """An ascent run was asked to start outside the budget region."""
