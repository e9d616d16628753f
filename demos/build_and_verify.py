"""Construct a solution from a residual by two routes and verify it.

Any nonnegative residual with mass b <= 1/4 generates a solution; its
mass must land on (1 - sqrt(1 - 4b))/2.  The series route truncates with
a certified tail, the spectral route is exact in the term count, and the
verifier recovers the residual we started from.
"""

import math

import numpy as np

from autoconv import (
    GridSpec,
    build_series,
    build_spectral,
    crosscheck,
    gaussian_density,
    integrate,
    recovered_residual,
    sample_with_mass,
    verify,
)

spec = GridSpec(dim=1, extent=40.0, points_per_axis=2**12)

for mass in (0.05, 3.0 / 16.0, 0.24, 0.25):
    u = sample_with_mass(spec, gaussian_density(), mass)
    build = build_series(u)
    spectral = build_spectral(u)
    predicted = 0.5 - 0.5 * math.sqrt(max(0.0, 1.0 - 4.0 * mass))
    gap = crosscheck(build, spectral)
    print(
        f"residual mass {mass:<7.4f}: {build.n_terms:>4} terms, "
        f"tail {build.tail_l1:.1e}, solution mass {integrate(build.solution):.6f} "
        f"(predicted {predicted:.6f}), route gap {gap:.2e}"
    )

print("\nround trip through the verifier (mass 3/16):")
u = sample_with_mass(spec, gaussian_density(), 3.0 / 16.0)
build = build_series(u, epsilon=1e-6)
report = verify(build.solution, tolerance=build.tail_sup + 1e-9)
recovered = recovered_residual(build.solution)
l1 = float(np.abs(recovered.values - u.values).sum() * spec.spacing)
print(f"  verdict {report.verdict}, solution mass {report.solution_mass:.6f}")
print(f"  mass relation gap {report.mass_relation_gap:.2e}")
print(f"  recovered residual L1 distance {l1:.2e} (tail budget {build.tail_l1:.2e})")
print(f"  min f = {report.min_value:.3e} (positivity comes with the construction)")
