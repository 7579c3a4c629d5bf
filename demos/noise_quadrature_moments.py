"""What the micro-grid quadrature does, shown on sampled Wiener paths.

The corrected steppers replace the trapezoid treatment of the noise
integral over each step [t_j, t_{j+1}] with a Riemann sum over M = 1/tau
micro nodes.  Three facts make that work, and this script measures each:

1. the defect of the micro sum against the true path integral has
   second moment exactly (m/3) tau^5,
2. the trapezoid rule itself is only tau-squared accurate, with the
   quadratic f(t) = t^2 attaining its error bound exactly,
3. the weighted micro sums the wave stepper accumulates have a closed
   second moment, a double sum of min(t_l, t_l') over micro nodes.

Paths are drawn on the micro grid together with the exact integral of
each micro cell, so the path integrals carry no discretization error.
"""

import math

import numpy as np

from mcnspde import (
    TimeMesh,
    defect_moment_exact,
    holder_trapezoid_bound,
    trapezoid_defect,
    wave_micro_sum_moment_exact,
)
from mcnspde.validation import (
    _cell_block,
    _squared_norms,
    _wave_micro_sum_kernel,
    heat_defect_block,
)

print("1. micro-sum defect moment vs (m/3) tau^5")
print(f"{'tau':>8} {'m':>3} {'estimate':>12} {'exact':>12} {'z':>7}")
rng = np.random.Generator(np.random.Philox(key=1000))
for n_steps in (8, 16):
    mesh = TimeMesh(n_steps)
    for m in (1, 2):
        # one row per path component; _squared_norms adds each path's m rows
        block, cells = _cell_block(rng, 300, mesh, m, moments=2)
        sq = _squared_norms(heat_defect_block(block, mesh, cells), m)
        est = sq.mean()
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        exact = defect_moment_exact(mesh.tau, m)
        print(f"{mesh.tau:>8.4f} {m:>3d} {est:>12.4e} {exact:>12.4e} "
              f"{(est - exact) / se:>+7.2f}")

print()
print("2. trapezoid defect sharpness on f(t) = t^2")
print(f"{'kappa':>8} {'defect':>14} {'kappa^2/6':>14} {'Holder bound':>14}")
for kappa in (1.0, 0.5, 1.0 / 16.0):
    defect = trapezoid_defect(lambda t: t * t, 0.0, kappa)
    bound = holder_trapezoid_bound(2.0, 1.0, kappa)
    print(f"{kappa:>8.4f} {defect:>14.8e} {kappa**2 / 6:>14.8e} {bound:>14.8e}")

print()
print("3. wave weighted micro-sum second moment")
mesh = TimeMesh(8)
rng = np.random.Generator(np.random.Philox(key=20260814))
block, _ = _cell_block(rng, 50_000, mesh, 1, moments=1)
values = _wave_micro_sum_kernel(block, mesh)
print(f"{'j':>3} {'estimate':>12} {'exact':>12} {'z':>7}")
for j in (0, 3, 7):
    sq = values[:, j, 0] ** 2
    est = sq.mean()
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    exact = wave_micro_sum_moment_exact(mesh, j, 1)
    print(f"{j:>3d} {est:>12.4e} {exact:>12.4e} {(est - exact) / se:>+7.2f}")
