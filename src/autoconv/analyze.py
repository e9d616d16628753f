"""Verify the convolution inequality and its structural laws on a grid.

The verifier recomputes the residual f - f*f, scans it for violations and
reports the scalar mass diagnostics, including the identity
(a - 1/2)^2 = 1/4 - b that links the masses a of f and b of the residual.
Moment behavior (divergent first moment at critical mass, fast decay
below it) is not finitely decidable, so it is operationalized as growth
versus saturation of truncated moments across nested windows, calibrated
on families with known tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import SeriesBuild, build_series
from .grids import GridFunction, check_count, check_number, convolve, integrate, moment, restrict

# Fraction of the window (per axis, measured from the boundary) excluded
# from the violation scan: linear convolution under-computes f*f there.
BOUNDARY_BAND = 0.125

# Outer radius of the exponential tail fit, as a fraction of the window.
TAIL_FIT_OUTER = 0.9

# Moment orders scanned by critical_moment_theorem_demo.
DEMO_ORDERS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class SolutionReport:
    solution_mass: float
    residual_mass: float
    min_residual: float
    min_residual_boundary: float
    min_value: float
    mass_relation_gap: float
    verdict: str
    worst_location: tuple[float, ...]
    tolerance: float


@dataclass(frozen=True)
class PositivityReport:
    nonnegative: bool
    min_value: float
    location: tuple[float, ...] | None


@dataclass(frozen=True)
class MomentReport:
    order: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    growth_increments: tuple[float, ...]
    classification: str


@dataclass(frozen=True)
class TailFit:
    rate: float
    residual: float
    inner: float
    outer: float
    n_points: int


@dataclass(frozen=True)
class MomentDemo:
    build: SeriesBuild
    regime: str
    reports: dict[float, MomentReport]


def _interior_mask(g: GridFunction) -> np.ndarray:
    cutoff = g.spec.extent * (1.0 - BOUNDARY_BAND)
    nodes = g.spec.axis_nodes()
    axis_ok = np.abs(nodes) <= cutoff
    mask = axis_ok
    for _ in range(1, g.spec.dim):
        mask = mask[..., None] & axis_ok
    return mask


def recovered_residual(f: GridFunction) -> GridFunction:
    """The slack f - f*f recomputed on the window."""
    return GridFunction(spec=f.spec, values=f.values - convolve(f, f).values)


def verify(f: GridFunction, tolerance: float | None = None) -> SolutionReport:
    """Recompute the residual f - f*f and scan it (see scan_residual)."""
    return scan_residual(f, recovered_residual(f), tolerance)


def scan_residual(
    f: GridFunction, residual: GridFunction, tolerance: float | None = None
) -> SolutionReport:
    """Scan a recovered residual f - f*f and report the mass diagnostics.

    The boundary band (width extent/8 per axis) is excluded from the
    verdict scan because the windowed convolution is truncation-biased
    there; its minimum is still reported.  Violations are verdicts, not
    errors.  The default tolerance is 1e-6 max|f| + 1e-12.
    """
    if tolerance is None:
        tolerance = 1e-6 * float(np.abs(f.values).max(initial=0.0)) + 1e-12
    check_number("tolerance", tolerance)
    if residual.spec != f.spec:
        raise ValueError("grid specs do not match")

    a = integrate(f)
    b = integrate(residual)

    mask = _interior_mask(f)
    inner = np.where(mask, residual.values, np.inf)
    flat = int(np.argmin(inner))
    min_inner = float(inner.ravel()[flat])
    boundary_vals = residual.values[~mask]
    min_boundary = float(boundary_vals.min())

    gap = abs((a - 0.5) ** 2 - (0.25 - b))
    verdict = "solution" if min_inner >= -tolerance else "violation"
    return SolutionReport(
        solution_mass=a,
        residual_mass=b,
        min_residual=min_inner,
        min_residual_boundary=min_boundary,
        min_value=float(f.values.min()),
        mass_relation_gap=gap,
        verdict=verdict,
        worst_location=f.spec.node(flat),
        tolerance=tolerance,
    )


def positivity_check(f: GridFunction) -> PositivityReport:
    """Nonnegative up to a -1e-12 * max|f| noise floor, or sign changing."""
    floor = -1e-12 * float(np.abs(f.values).max(initial=0.0))
    min_value = float(f.values.min())
    if min_value < floor:
        return PositivityReport(
            nonnegative=False,
            min_value=min_value,
            location=f.spec.node(int(np.argmin(f.values))),
        )
    return PositivityReport(nonnegative=True, min_value=min_value, location=None)


def moment_scan(f: GridFunction, order: float, levels: int = 4) -> MomentReport:
    """Truncated moments over nested windows, classified by tail growth.

    Radii double from extent/2^(levels-1) up to the full window.  The scan
    reads "growing" when each of the last two increments still exceeds
    half the first one: a log-divergent moment keeps near-constant
    increments per doubling, while a convergent one collapses them
    geometrically.  A diverging-moment verdict on a finite grid is a
    growth signature, never a proof.  levels is at most log2(N) + 1: any
    deeper, the two smallest balls lie within one spacing of the origin,
    hold it alone, and every function would read "saturating".
    """
    check_number("order", order, "nonnegative")
    top = f.spec.points_per_axis.bit_length()
    check_count("levels", levels, 3, f"an integer in [3, {top}]", top)
    if not positivity_check(f).nonnegative:
        raise ValueError("moment_scan requires a nonnegative function")

    radii = [f.spec.extent / 2**k for k in range(levels - 1, -1, -1)]
    dist = f.spec.radii()
    weighted = dist**order * f.values
    values = [
        float(weighted[dist <= r].sum() * f.spec.cell_volume) for r in radii
    ]
    increments = tuple(float(d) for d in np.diff(values))
    baseline = increments[0]
    growing = (
        baseline > 0.0
        and increments[-1] > 0.5 * baseline
        and increments[-2] > 0.5 * baseline
    )
    return MomentReport(
        order=order,
        radii=tuple(radii),
        values=tuple(values),
        growth_increments=increments,
        classification="growing" if growing else "saturating",
    )


def exp_tail_fit(f: GridFunction, inner: float) -> TailFit:
    """Least-squares slope of log f against |x| on the annulus
    inner <= |x| <= TAIL_FIT_OUTER * extent.

    A clearly negative rate with a small fit residual certifies empirical
    exponential decay; power-law profiles show up as a large residual with
    a rate drifting toward zero.  Nonpositive samples in the fit region
    make the log undefined and raise.
    """
    outer = TAIL_FIT_OUTER * f.spec.extent
    check_number("inner", inner)
    if inner >= outer:
        raise ValueError(f"need 0 < inner < {outer}, got inner = {inner}")
    dist = f.spec.radii()
    sel = (dist >= inner) & (dist <= outer)
    vals = f.values[sel]
    if vals.size < 4:
        raise ValueError("fit region contains fewer than 4 nodes")
    if float(vals.min()) <= 0.0:
        raise ValueError(
            "nonpositive values in the fit region; use a positive floor or a "
            "smaller region"
        )
    r = dist[sel]
    logv = np.log(vals)
    design = np.column_stack([r, np.ones_like(r)])
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    resid = logv - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return TailFit(
        rate=float(coef[0]),
        residual=rms,
        inner=inner,
        outer=outer,
        n_points=int(vals.size),
    )


def critical_moment_theorem_demo(
    u: GridFunction,
    levels: int = 4,
    epsilon: float | None = None,
) -> MomentDemo:
    """Build from a symmetric residual and scan the DEMO_ORDERS moments.

    The residual must be even (its sampled values symmetric under x -> -x
    within 1e-10 relative), which is the grid form of the zero-mean
    hypothesis behind the moment dichotomy: at critical mass the first
    moment grows without saturating, below it the scans saturate even at
    order 2.

    Near the critical mass the truncated series only resolves the slow
    tail out to roughly sqrt(n_terms * variance) of the normalized
    residual; beyond that radius the missing terms would fake saturation,
    so the scan window is clipped to the resolved region.  Below the
    critical mass the discarded terms are geometrically suppressed and
    the full window is scanned.
    """
    flipped = u.values[(slice(None, None, -1),) * u.spec.dim]
    scale = float(np.abs(u.values).max(initial=0.0))
    # Node 0 has no mirror on the half-open window; roll it out of the way.
    aligned = np.roll(flipped, 1, axis=tuple(range(u.spec.dim)))
    if scale > 0 and float(np.abs(aligned - u.values).max()) > 1e-10 * scale:
        raise ValueError("residual must be symmetric under x -> -x")

    build = build_series(u, epsilon=epsilon)
    regime = "critical" if abs(build.ratio - 1.0) <= 4e-3 else "subcritical"

    scan_target = build.solution
    if build.ratio >= 0.995:
        sigma2 = moment(u, 2.0) / build.residual_mass
        resolved = math.sqrt(build.n_terms * sigma2)
        extent = u.spec.extent
        while extent > resolved and u.spec.points_per_axis * (extent / u.spec.extent) >= 16:
            extent /= 2.0
        scan_target = restrict(build.solution, extent)

    reports = {
        order: moment_scan(scan_target, order, levels=levels) for order in DEMO_ORDERS
    }
    return MomentDemo(build=build, regime=regime, reports=reports)
