"""operator-scan: one op analyses one constraint operator end to end.

An op builds a ``ConstraintOperator`` (Jacobi ``decompose``), solves 16
``optimal_direction`` problems, sweeps ``truncate`` + ``apply_with_residual``
over every k and calls ``smallest_k_for_error``. Operators are random-basis
PSD matrices of rank round(0.8 n) with log-uniform eigenvalues in [0.1, 10];
each block of 20 ops holds 12 / 5 / 3 operators of the small / middle / large
size, so p50 sits inside the small class and p90 inside the large one.
Two ops per block also get gradients from the kernel, which runs the
degenerate branch.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import KnownSpectrum, check_direction, close, expect
from workload import Op, Workload, pack

SIZES = (12, 32, 64)
SMOKE_SIZES = (4, 6, 8)
#: Size class of each op in a block: shares 60 / 25 / 15 %.
BLOCK = (0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 2)
KERNEL_GRADIENT_OPS = (3, 12)
GRADIENTS = 16
KERNEL_GRADIENTS = 4
WARM_UP_SEED = 0


class OperatorScan(Workload):
    name = "operator-scan"

    def __init__(self, ro, seed: int, workdir, smoke: bool) -> None:
        super().__init__(ro, seed, workdir, smoke)
        self.sizes = SMOKE_SIZES if smoke else SIZES

    def warm_up(self) -> None:
        self._make_op(np.random.default_rng(WARM_UP_SEED), self.sizes[0], False).run()

    def block(self, index: int) -> list[Op]:
        rng = self.rng("block", index)
        return [
            self._make_op(rng, self.sizes[cls], i in KERNEL_GRADIENT_OPS)
            for i, cls in enumerate(BLOCK)
        ]

    def _make_op(self, rng, dim: int, with_kernel_gradients: bool) -> Op:
        ro = self.ro
        spectrum = KnownSpectrum.random(rng, dim, max(1, round(0.8 * dim)))
        gradients = [rng.standard_normal(dim) for _ in range(GRADIENTS)]
        if with_kernel_gradients:
            for i in range(1, 1 + KERNEL_GRADIENTS):
                gradients[i] = spectrum.kernel_vector(rng)
        # Halfway (in log scale) between two consecutive certificate levels.
        k_target = int(rng.integers(0, spectrum.rank))
        eps = math.sqrt(spectrum.op_error(k_target) * spectrum.op_error(max(k_target - 1, 0)))
        if k_target == 0:
            eps = 2.0 * spectrum.op_error(0)
        matrix = spectrum.matrix

        def run():
            operator = ro.ConstraintOperator(matrix)
            directions = [ro.optimal_direction(operator, g) for g in gradients]
            decomposition = operator.spectrum
            sweep = []
            for k in range(decomposition.rank + 1):
                kernel = ro.truncate(decomposition, k)
                compressed, report = kernel.apply_with_residual(gradients[0])
                sweep.append((kernel.op_error, compressed, report.residual_norm_sq))
            k_eps = ro.smallest_k_for_error(decomposition, eps)
            return decomposition, directions, sweep, k_eps

        def check(output):
            decomposition, directions, sweep, k_eps = output
            expect(decomposition.rank == spectrum.rank,
                   f"rank {decomposition.rank} != {spectrum.rank}")
            expect(close(decomposition.eigenvalues, spectrum.values, 1e-9),
                   "eigenvalues differ from the constructed spectrum")
            for result, gradient in zip(directions, gradients):
                check_direction(result, spectrum, gradient)
            expect(len(sweep) == spectrum.rank + 1, "sweep does not cover every k")
            g = gradients[0]
            full = spectrum.pinv_apply(g)
            for k, (op_error, compressed, residual_sq) in enumerate(sweep):
                expect(close(op_error, spectrum.op_error(k), 1e-9), f"op_error wrong at k={k}")
                kept = spectrum.pinv_apply(g, spectrum.rank - k)
                expect(close(compressed, kept, 0.0, 1e-8 * float(np.max(np.abs(full)))),
                       f"kernel action wrong at k={k}")
                expect(close(residual_sq, spectrum.residual_norm_sq(g, k), 1e-8,
                             1e-12 * float(full @ full)),
                       f"residual norm wrong at k={k}")
            expect(k_eps == spectrum.smallest_k_for_error(eps),
                   f"smallest_k_for_error {k_eps} != {spectrum.smallest_k_for_error(eps)}")

        def encode(output):
            decomposition, directions, sweep, k_eps = output
            parts = [decomposition.eigenvalues, decomposition.eigenvectors, decomposition.rank]
            for result in directions:
                parts += [result.kind.value, result.direction, result.first_order_gain]
            for op_error, compressed, residual_sq in sweep:
                parts += [op_error, compressed, residual_sq]
            parts.append(k_eps)
            return pack(parts)

        return Op(f"n{dim}", run, check, encode, {"dim": dim})
