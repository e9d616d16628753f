"""Closed-form function families used as exact oracles and counterexamples.

The Poisson kernels f_{a,t} are heavy-tailed solutions of f >= f*f with
the exact self-convolution identity f_{a,t} * f_{a,t} = f_{a^2, 2t}; the
band-limited sinc profile solves f = f*f in L^p (p > 1) while changing
sign; a dipped Gaussian witnesses the reversed inequality f <= f*f with
both signs; and (1 + |x|)^{-3} is a mean-zero probability density with
infinite variance and a closed-form sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, GridSpec, check_number, sample

# Gamma((d+1)/2) for d = 1, 2, 3; no general gamma function is needed.
_HALF_GAMMA = {1: 1.0, 2: math.sqrt(math.pi) / 2.0, 3: 1.0}


@dataclass(frozen=True)
class PoissonParams:
    """Mass and length scale of the kernel f_{a,t}; both finite and positive."""

    a: float
    t: float

    def __post_init__(self):
        check_number("a", self.a)
        check_number("t", self.t)


@dataclass(frozen=True)
class SincParams:
    """Half-width of the frequency band; the transform is 1 on [-a, a]."""

    a: float

    def __post_init__(self):
        check_number("a", self.a)


def poisson(params: PoissonParams):
    """Evaluator of a Gamma((d+1)/2) pi^{-(d+1)/2} t / (t^2 + |x|^2)^{(d+1)/2}.

    The dimension d = 1, 2 or 3 is the number of coordinates it is called
    with.  Integrates to a over R^d; its transform is a exp(-2 pi |k| t).
    """
    a, t = params.a, params.t

    def evaluator(*coords):
        d = len(coords)
        r2 = sum(np.asarray(c) ** 2 for c in coords)
        norm = a * _HALF_GAMMA[d] * math.pi ** (-(d + 1) / 2.0)
        return norm * t / (t * t + r2) ** ((d + 1) / 2.0)

    return evaluator


def poisson_inequality_margin(a: float, t: float):
    """Evaluator of the pointwise slack f_{a,t} - f_{a^2,2t}.

    This is the residual of the self-convolution bound for the family; it
    is nonnegative everywhere exactly when a <= 1/2.  For a > 1/2 the
    tails flip the sign: the slack behaves like a(1 - 2a) in the far
    field, so violations appear at large |x|, not at the origin.
    """
    lhs = poisson(PoissonParams(a=a, t=t))
    rhs = poisson(PoissonParams(a=a * a, t=2.0 * t))

    def evaluator(*coords):
        return lhs(*coords) - rhs(*coords)

    return evaluator


def sinc_counterexample(params: SincParams):
    """Evaluator x -> sin(2 pi x a)/(pi x), with value 2a at x = 0.

    Its transform is the indicator of [-a, a], so the function equals its
    own self-convolution while taking both signs (first negative lobe near
    x = 3/(4a)).  It is not integrable; it lives in L^p for p > 1 only.
    """
    a = params.a

    def evaluator(x, *more):
        if more:
            raise ValueError("sinc_counterexample is one-dimensional")
        x = np.asarray(x, dtype=np.float64)
        safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 2.0 * a, np.sin(2.0 * math.pi * a * x) / (math.pi * safe))

    return evaluator


def gaussian_density(sigma: float = 1.0):
    """Centered Gaussian probability density evaluator (any dimension)."""
    check_number("sigma", sigma)

    def evaluator(*coords):
        r2 = sum(np.asarray(c) ** 2 for c in coords)
        d = len(coords)
        return np.exp(-r2 / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma) ** (d / 2.0)

    return evaluator


def reverse_example(spec: GridSpec, a: float, delta: float) -> GridFunction:
    """Scaled Gaussian with a -1 dip: a candidate for f < f*f everywhere.

    Returns a * (standard Gaussian density) with values overwritten to -1
    on |x| <= delta.  For a = 2 the dip-free margin is strict because the
    Gaussian ratio density/self-convolution never exceeds sqrt(2) < 2, and
    a small dip cannot close it.  The claim is meant to be checked
    downstream on the grid, not taken from the construction.
    """
    if spec.dim != 1:
        raise ValueError("reverse_example is one-dimensional")
    check_number("a", a)
    check_number("delta", delta, "nonnegative")
    g = sample(spec, gaussian_density())
    values = a * g.values
    if delta > 0:
        values = values.copy()
        values[np.abs(spec.axis_nodes()) <= delta] = -1.0
    return GridFunction(spec=spec, values=values)


def heavy_tail_density():
    """Evaluator of w(x) = (1 + |x|)^{-3} on the line.

    A symmetric probability density (total mass exactly 1) with mean zero
    and infinite variance: the truncated second moment grows like
    2 log R.
    """

    def evaluator(x, *more):
        if more:
            raise ValueError("heavy_tail_density is one-dimensional")
        return (1.0 + np.abs(np.asarray(x, dtype=np.float64))) ** -3.0

    return evaluator


def heavy_tail_cdf(x):
    """Closed-form distribution function of heavy_tail_density."""
    x = np.asarray(x, dtype=np.float64)
    half_tail = 0.5 * (1.0 + np.abs(x)) ** -2.0
    return np.where(x >= 0, 1.0 - half_tail, half_tail)


def heavy_tail_sampler(rng: np.random.Generator, size) -> np.ndarray:
    """Exact inverse-CDF draws from heavy_tail_density.

    Computes sign(v - 0.5) * ((1 - 2|v - 0.5|)^-1/2 - 1) for uniform v in
    place on the generator's buffer, so one draw array and its signs are
    the only full-size arrays.
    """
    v = rng.random(size)
    v -= 0.5
    sign = np.sign(v)
    np.abs(v, out=v)
    v *= -2.0
    v += 1.0
    np.power(v, -0.5, out=v)
    v -= 1.0
    v *= sign
    return v
