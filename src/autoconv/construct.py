"""Build solutions of f >= f*f from a nonnegative residual.

Every integrable solution is parameterized by its slack u = f - f*f >= 0
with mass at most 1/4.  Two independent routes realize f from u:

* the series route sums (1/2) c_n 4^n (n-fold convolution of u) with the
  sqrt(1-x) coefficients c_n, truncated once a certified L^1 tail bound
  drops below a target;
* the spectral route evaluates (1 - sqrt(1 - 4 uhat)) / 2 on the grid
  frequencies and inverts, exact in the number of terms.

crosscheck measures their L^1 gap on the window: a diagnostic that
tail_l1 does not bound at critical mass (see crosscheck).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffTable, build_coeffs, tail_bound, terms_for_tail
from .grids import (
    ConvolutionPlan,
    GridFunction,
    GridSpec,
    Spectrum,
    dft,
    idft,
    integrate,
    sample_with_mass,
)

# Pointwise floor below which negative input values are treated as noise
# and clamped to zero (with a warning).
NEGATIVE_CLAMP = 1e-12

# Mass tolerance: residual masses up to (1 + MASS_RTOL)/4 are accepted.
MASS_RTOL = 1e-6

# Most terms a series build may sum.  Near the critical mass the tail
# decays like 1/sqrt(pi N), so a tight target there is refused rather
# than summed over millions of convolutions.
TERM_CAP = 100_000

# One factor per axis for each bump profile; the bump is their product.
_BUMP_PROFILES = {
    "indicator": lambda c: np.abs(c) <= 1.0,
    "cosine": lambda c: np.where(np.abs(c) <= 1.0, 1.0 + np.cos(np.pi * c), 0.0),
}


@functools.cache
def _coeff_table() -> CoeffTable:
    """c_1..c_{TERM_CAP+1}, built on first use and shared by every build."""
    return build_coeffs(TERM_CAP + 1)


@dataclass(frozen=True)
class SeriesBuild:
    """Record of one truncated series construction."""

    residual: GridFunction
    residual_mass: float
    ratio: float
    n_terms: int
    tail_l1: float
    tail_sup: float
    clamped_l1: float  # L^1 mass the per-term clamp removed from the powers
    solution: GridFunction


def default_epsilon(ratio: float) -> float:
    """L^1 truncation target by regime.

    Near ratio = 1 the tail only decays like 1/sqrt(pi N), so tight
    targets are quadratically expensive; the default backs off in steps.
    """
    if ratio <= 0.9:
        return 1e-4
    if ratio <= 0.99:
        return 1e-3
    return 1e-2


def _validated_residual(u: GridFunction) -> tuple[GridFunction, float]:
    """The residual with noise-level negatives clamped, and its mass.

    Both construction routes accept exactly the residuals this accepts.
    Raises if a value is negative beyond the noise floor or the mass
    exceeds 1/4 beyond tolerance.
    """
    low = float(u.values.min())
    if low < 0.0:
        if low < -NEGATIVE_CLAMP:
            raise ValueError(
                f"residual must be nonnegative; min value {low:.3e} is below the "
                f"-{NEGATIVE_CLAMP:.0e} noise floor"
            )
        warnings.warn(
            f"clamping tiny negative residual values (min {low:.3e}) to zero",
            stacklevel=3,
        )
        u = GridFunction(spec=u.spec, values=np.maximum(u.values, 0.0))
    b = integrate(u)
    if b > 0.25 * (1.0 + MASS_RTOL):
        raise ValueError(
            f"residual mass {b:.8f} exceeds 1/4: the construction requires "
            f"0 <= mass <= 1/4"
        )
    return u, b


def build_series(u: GridFunction, epsilon: float | None = None) -> SeriesBuild:
    """Sum the coefficient-weighted convolution powers of the residual.

    Powers are computed incrementally, one linear convolution per term, on
    the scaled residual 4u so every intermediate has mass ratio^n <= 1 and
    nothing overflows.  One ConvolutionPlan caches the transform of 4u, so
    each term costs one forward and one inverse real transform; the loop
    works on the plan's bare window arrays and scales, clamps and
    accumulates them in place.  Truncation stops at the smallest N whose
    certified tail is at most epsilon (default by regime, see
    default_epsilon).  clamped_l1 records the mass the clamp of FFT dust
    removed from the powers.

    Raises if the residual mass exceeds 1/4 beyond tolerance, if epsilon
    is not finite and positive, or if the target would need more than
    TERM_CAP terms (which only happens near the critical mass with a tiny
    epsilon); the error reports the bound that was achievable.  A term
    whose clamp removes more than the plan's mass tolerance raises
    RuntimeError, as a failed mass guard does.
    """
    u, b = _validated_residual(u)
    ratio = 4.0 * b
    capped_ratio = min(ratio, 1.0)
    if epsilon is None:
        epsilon = default_epsilon(capped_ratio)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")

    table = _coeff_table()
    n_terms = terms_for_tail(table, capped_ratio, 2.0 * epsilon)
    if n_terms is None:
        achieved = 0.5 * tail_bound(table, TERM_CAP, capped_ratio)
        raise ValueError(
            f"epsilon {epsilon:.3e} needs more than {TERM_CAP} terms "
            f"(achievable tail at the cap: {achieved:.3e})"
        )

    coeffs = table.values
    h_d = u.spec.cell_volume
    scaled = GridFunction(spec=u.spec, values=4.0 * u.values)
    times_scaled = ConvolutionPlan(scaled)
    power = scaled.values
    power_sum = float(power.sum())
    acc = 0.5 * coeffs[0] * power
    clamped = 0.0
    for n in range(2, n_terms + 1):
        # Powers are nonnegative, so sum|power| is power_sum.
        raw = times_scaled.window(power, power_sum, power_sum)
        raw_sum = float(raw.sum())
        # Convolution powers of a nonnegative density are nonnegative;
        # FFT dust of order 1e-16 would otherwise leak sign noise into f.
        np.maximum(raw, 0.0, out=raw)
        kept_sum = float(raw.sum())
        clamp, bound = kept_sum - raw_sum, times_scaled.tolerance(power_sum)
        if clamp > bound:
            raise RuntimeError(
                f"term {n} clamps {clamp:.3e} of negative raw mass, more than the "
                f"convolution's mass tolerance {bound:.3e}"
            )
        clamped += clamp
        raw *= h_d
        power, power_sum = raw, kept_sum * h_d
        acc += 0.5 * coeffs[n - 1] * power

    tl1 = 0.5 * tail_bound(table, n_terms, capped_ratio)
    tls = 4.0 * float(u.values.max()) * tl1 / capped_ratio if capped_ratio > 0.0 else 0.0
    return SeriesBuild(
        residual=u,
        residual_mass=b,
        ratio=ratio,
        n_terms=n_terms,
        tail_l1=tl1,
        tail_sup=tls,
        # Raw sums scale by h^d into power values and by h^d again into mass.
        clamped_l1=clamped * h_d * h_d,
        solution=GridFunction(spec=u.spec, values=acc),
    )


def build_spectral(u: GridFunction) -> GridFunction:
    """Invert fhat = (1 - sqrt(1 - 4 uhat)) / 2 on the grid.

    The residual contract is the series route's: values down to
    -NEGATIVE_CLAMP are clamped to zero with a warning, and a mass up to
    (1 + MASS_RTOL)/4 is built as critical, just as the series route caps
    its ratio at 1.  Anything else raises.

    For a nonnegative residual |4 uhat(k)| <= 4 uhat(0) <= 1 (up to
    MASS_RTOL), so z = 1 - 4 uhat lies in the closed right half-plane,
    where the principal square root is continuous.  Re z is clamped at 0
    at every frequency, which removes only that rounding and tolerance
    excess (at k = 0 it is what makes a mass above 1/4 critical), so no
    sample can cross the branch cut.
    """
    u, _ = _validated_residual(u)
    z = 1.0 - 4.0 * dft(u).values
    np.maximum(z.real, 0.0, out=z.real)
    fhat = 0.5 - 0.5 * np.sqrt(z)
    return idft(Spectrum(spec=u.spec, values=fhat))


def crosscheck(series: SeriesBuild, spectral: GridFunction) -> float:
    """L^1 distance between the two construction routes on the window.

    Below critical mass it stays near tail_l1 plus the grid error.  At
    critical mass it can exceed tail_l1: the heavy tail of f leaves the
    window, and the series drops that mass while the spectral route folds
    it back in (sigma 1.5 Gaussian, L = 40: 1.37e-2 against 1.0e-2).  The
    acceptance suite checks only gap <= tail_l1 + 1e-3, on L = 80.
    """
    if series.solution.spec != spectral.spec:
        raise ValueError("grid specs do not match")
    diff = np.abs(series.solution.values - spectral.values)
    return float(diff.sum() * spectral.spec.cell_volume)


def bump_residual(spec: GridSpec, mass: float, profile: str = "indicator") -> GridFunction:
    """Nonnegative residual supported in [-1, 1]^d with exact grid mass.

    profile "indicator" is flat; "cosine" is the smooth 1 + cos(pi x)
    taper, rescaled by sample_with_mass to exact grid mass.
    """
    axis_profile = _BUMP_PROFILES.get(profile)
    if axis_profile is None:
        raise ValueError(f"unknown bump profile {profile!r}")

    def evaluator(*coords):
        out = np.ones_like(np.asarray(coords[0]), dtype=np.float64)
        for c in coords:
            out = out * axis_profile(np.asarray(c))
        return out

    return sample_with_mass(spec, evaluator, mass)


def build_exponential_example(
    spec: GridSpec,
    mass: float,
    profile: str = "indicator",
    epsilon: float = 1e-7,
) -> SeriesBuild:
    """Series build from a compactly supported residual of subcritical mass.

    With mass strictly below 1/4 the Laplace transform of the residual
    stays below 1/4 in a neighborhood of the origin, which forces the
    solution to have finite exponential moments; downstream tail fits
    quantify the empirical decay rate.  Masses >= 1/4 are refused because
    the argument needs strict subcriticality.
    """
    if not 0.0 < mass < 0.25:
        raise ValueError(
            f"mass must lie strictly between 0 and 1/4, got {mass} "
            f"(the exponential-moment construction needs strict subcriticality)"
        )
    u = bump_residual(spec, mass, profile)
    return build_series(u, epsilon=epsilon)
