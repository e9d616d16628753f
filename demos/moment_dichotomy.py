"""Slow decay at critical mass, fast decay below it.

At solution mass 1/2 the first absolute moment diverges: truncated
moments keep growing by about log(2)/pi per window doubling.  Below the
critical mass even the second moment saturates, and compactly supported
residuals give solutions with visibly exponential tails.
"""

import math

from autoconv import (
    GridSpec,
    PoissonParams,
    build_exponential_example,
    bump_residual,
    critical_moment_theorem_demo,
    exp_tail_fit,
    gaussian_density,
    moment_scan,
    poisson,
    sample,
    sample_with_mass,
)


def show(tag, report):
    incs = ", ".join(f"{v:.4f}" for v in report.growth_increments)
    print(f"  {tag}: p = {report.order:<3} -> {report.classification:<10} increments [{incs}]")


print("closed-form critical solution f(a=1/2, t=1), log-rate oracle log(2)/pi =",
      f"{math.log(2.0) / math.pi:.4f}:")
kernel = sample(
    GridSpec(dim=1, extent=640.0, points_per_axis=2**16),
    poisson(PoissonParams(a=0.5, t=1.0)),
)
show("poisson", moment_scan(kernel, 1.0, levels=4))
show("poisson", moment_scan(kernel, 0.5, levels=5))

print("\ncritical build from a compact bump (mass exactly 1/4):")
spec = GridSpec(dim=1, extent=64.0, points_per_axis=2**12)
demo = critical_moment_theorem_demo(bump_residual(spec, 0.25), levels=4, epsilon=0.01)
for order in (0.5, 1.0, 2.0):
    show("bump", demo.reports[order])

print("\nsubcritical build (gaussian residual, mass 3/16):")
gspec = GridSpec(dim=1, extent=40.0, points_per_axis=2**12)
u = sample_with_mass(gspec, gaussian_density(), 3.0 / 16.0)
sub = critical_moment_theorem_demo(u, levels=4)
for order in (0.5, 1.0, 2.0):
    show("gauss", sub.reports[order])

print("\nexponential tails below the critical mass (compact bump residuals):")
bump_spec = GridSpec(dim=1, extent=12.0, points_per_axis=2**11)
# Near the critical mass the window [-12, 12) drops about 1e-5 of the series'
# mass, so mass 0.24 asks for epsilon 1e-4, a target that window meets.
for mass, epsilon in ((0.125, 1e-7), (0.24, 1e-4)):
    build = build_exponential_example(bump_spec, mass=mass, epsilon=epsilon)
    fit = exp_tail_fit(build.solution, inner=2.0)
    print(
        f"  mass {mass:<6}: log-slope {fit.rate:+.3f} per unit |x| "
        f"(fit rms {fit.residual:.3f} over {fit.n_points} nodes), "
        f"escaped_l1 {build.escaped_l1:.2e} against epsilon {epsilon:.0e}"
    )
