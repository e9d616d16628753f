"""Build solutions of f >= f*f from a nonnegative residual.

Every integrable solution is parameterized by its slack u = f - f*f >= 0
with mass at most 1/4.  Two independent routes realize f from u:

* the series route sums (1/2) c_n 4^n (n-fold convolution of u) with the
  sqrt(1-x) coefficients c_n, truncated once a certified L^1 tail bound
  drops below a target;
* the spectral route evaluates (1 - sqrt(1 - 4 uhat)) / 2 on the real
  half-spectrum of the grid and inverts, exact in the number of terms.

crosscheck measures their L^1 gap on the window: a diagnostic that
tail_l1 alone does not bound at critical mass (see crosscheck).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffTable, build_coeffs, tail_bound, terms_for_tail
from .grids import (
    ConvolutionPlan,
    GridFunction,
    GridSpec,
    check_number,
    integrate,
    sample_with_mass,
    warn,
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
def _coeff_table(long: bool = False) -> CoeffTable:
    """c_1..c_1025, or c_1..c_{TERM_CAP+1} if long; each built on first use and shared.

    The short table serves every default target (a critical build reads 796
    entries).  A target it cannot reach takes the long one: the recurrence
    runs left to right, so its prefix matches the short table bit for bit,
    and so do the N and the tail bound read off it.
    """
    return build_coeffs(TERM_CAP + 1 if long else 1025)


@dataclass(frozen=True)
class SeriesBuild:
    """Record of one truncated series construction.

    tail_l1 bounds the L^1 mass of the terms past n_terms (the truncation)
    and escaped_l1 is the mass the window dropped from the kept terms.
    Their sum bounds the L^1 distance, over the whole lattice hZ^d, from
    the solution to the lattice solution of the sampled residual.  Neither
    covers the grid error against the continuum solution.
    """

    residual: GridFunction
    residual_mass: float
    ratio: float
    epsilon: float  # the L^1 truncation target the build met
    n_terms: int
    tail_l1: float
    tail_sup: float
    clamped_l1: float  # L^1 mass the per-term clamp removed from the powers
    escaped_l1: float  # L^1 mass the window dropped from the kept terms
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
        warn(f"clamping tiny negative residual values (min {low:.3e}) to zero")
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
    clamps and accumulates the plan's window arrays in place.  Truncation
    stops at the smallest N whose certified tail is at most epsilon
    (default by regime, see default_epsilon), which SeriesBuild.epsilon
    records.  clamped_l1 records the mass the clamp of FFT dust removed
    from the powers.  escaped_l1 = (1/2)(c_1 ratio + sum_{n=2..N} c_n r^n)
    - integrate(solution), floored at 0, with r the capped ratio: the mass
    the first N terms hold on the whole lattice hZ^d, less the mass the
    window kept.  A UserWarning says to widen the window when it exceeds
    epsilon.

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
    check_number("epsilon", epsilon)

    table = _coeff_table()
    n_terms = terms_for_tail(table, capped_ratio, 2.0 * epsilon)
    if n_terms is None:
        table = _coeff_table(long=True)
        n_terms = terms_for_tail(table, capped_ratio, 2.0 * epsilon)
    if n_terms is None:
        achieved = 0.5 * tail_bound(table, TERM_CAP, capped_ratio)
        raise ValueError(
            f"epsilon {epsilon:.3e} needs more than {TERM_CAP} terms "
            f"(achievable tail at the cap: {achieved:.3e})"
        )

    coeffs = table.values
    scaled = GridFunction(spec=u.spec, values=4.0 * u.values)
    times_scaled = ConvolutionPlan(scaled)
    power = scaled.values
    power_sum = float(power.sum())
    acc = 0.5 * coeffs[0] * power
    term = np.empty_like(acc)
    clamped = 0.0
    for n in range(2, n_terms + 1):
        # Powers are nonnegative, so sum|power| is power_sum.  raw is the
        # plan's product, which the next window call overwrites.
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
        power, power_sum = raw, kept_sum
        acc += np.multiply(power, 0.5 * coeffs[n - 1], out=term)

    solution = GridFunction(spec=u.spec, values=acc)
    tl1 = 0.5 * tail_bound(table, n_terms, capped_ratio)
    lattice = coeffs[0] * ratio + coeffs[1:n_terms] @ capped_ratio ** np.arange(2.0, n_terms + 1)
    escaped_l1 = max(0.0, float(0.5 * lattice) - integrate(solution))
    if escaped_l1 > epsilon:
        warn(
            f"the window dropped {escaped_l1:.3e} of the series' L1 mass, more than "
            f"epsilon {epsilon:.3e}; widen the window (a larger extent L)"
        )
    tls = 4.0 * float(u.values.max()) * tl1 / capped_ratio if capped_ratio > 0.0 else 0.0
    return SeriesBuild(
        residual=u,
        residual_mass=b,
        ratio=ratio,
        epsilon=epsilon,
        n_terms=n_terms,
        tail_l1=tl1,
        tail_sup=tls,
        clamped_l1=clamped * u.spec.cell_volume,
        escaped_l1=escaped_l1,
        solution=solution,
    )


def build_spectral(u: GridFunction) -> GridFunction:
    """Invert fhat = (1 - sqrt(1 - 4 uhat)) / 2 on the grid.

    The residual contract is the series route's: values down to
    -NEGATIVE_CLAMP are clamped to zero with a warning, and a mass up to
    (1 + MASS_RTOL)/4 is built as critical, just as the series route caps
    its ratio at 1.  Anything else raises.

    uhat is h^d rfftn(u) with the origin at index 0, a half-spectrum
    whose inverse is real by construction.  A nonnegative residual has
    |4 uhat(k)| <= 4 uhat(0) <= 1 (up to MASS_RTOL), so z = 1 - 4 uhat
    lies in the closed right half-plane, where the principal root is
    continuous.  Re z is clamped at 0 at every frequency, removing only
    that rounding and tolerance excess (at k = 0 it makes a mass above
    1/4 critical), so no sample can cross the branch cut.
    """
    u, _ = _validated_residual(u)
    spec, axes = u.spec, tuple(range(u.spec.dim))
    z = 1.0 - 4.0 * spec.cell_volume * np.fft.rfftn(np.fft.ifftshift(u.values), axes=axes)
    np.maximum(z.real, 0.0, out=z.real)
    values = np.fft.irfftn(0.5 - 0.5 * np.sqrt(z), s=spec.shape, axes=axes)
    return GridFunction(spec=spec, values=np.fft.fftshift(values) / spec.cell_volume)


def crosscheck(series: SeriesBuild, spectral: GridFunction) -> float:
    """L^1 distance between the two construction routes on the window.

    Below critical mass it stays near tail_l1 plus the grid error.  At
    critical mass it can exceed tail_l1: the heavy tail of f leaves the
    window, and the series drops that mass (escaped_l1) while the spectral
    route folds it back in (sigma 1.5 Gaussian, L = 40: 1.37e-2 against
    1.0e-2).  The acceptance suite checks only gap <= tail_l1 + 1e-3, on
    L = 80.
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
    check_number("mass", mass)
    if mass >= 0.25:
        raise ValueError(
            f"mass must lie strictly between 0 and 1/4, got {mass} "
            f"(the exponential-moment construction needs strict subcriticality)"
        )
    u = bump_residual(spec, mass, profile)
    return build_series(u, epsilon=epsilon)
