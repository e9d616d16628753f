"""Escape of mass under rescaled n-fold self-convolution.

The experiment is one-dimensional.  For a probability density w on a
line grid, the density of n^{-1/2} (X_1 + ... + X_n) is computed by the
characteristic-function power method: evaluate the transform of w at its
own grid's frequencies scaled by 1/sqrt(n) (one chirp-z transform per n,
over the nodes from the first nonzero one to the last), raise to the n-th
power, invert on the same grid.  As w is real, only the half m >= 0 is
computed, powered and inverted (irfft).  On 2 cores (numpy 2.4.6) a
density on the CLI's 2^18-point grid takes 45-105 ms per n for the uniform
summand, nonzero on 11 % of it, and 80-145 ms for the heavy tail.  With
finite variance the mass in a fixed ball tends to the Gaussian ball mass;
with infinite variance it drains to zero, which a mandatory Monte Carlo
cross-check confirms independently of the grid (window truncation alone
would fake a finite variance).

run_experiments draws the Monte Carlo sums as one future on a worker
thread, beside the grid densities that the calling thread builds when more
than one core is usable (both halves run numpy code that releases the GIL)
and after them on one core, _MC_CHUNK // n rows of n draws at a time, or
one row in blocks of _MC_CHUNK beyond.  The draws come from per-n streams
of the recorded seed, so results depend neither on which nor on batch size.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .families import heavy_tail_density, heavy_tail_sampler
from .grids import GridFunction, GridSpec, check_count, check_number, check_real, integrate
from .grids import sample_with_mass, usable_cores, warn

DENSITY_CLAMP = 1e-8
MASS_WARN = 0.02

# Scalar draws per Monte Carlo batch, and per block of a longer row of n
# draws: 2 MB of float64, one core's L2 cache on the 2-core host where
# it was chosen.  Alone, the infinite-variance Monte Carlo of the clt command
# took 0.35-0.47 s in such batches and 0.48-0.68 s in 8 MB ones (two of three
# interleaved sets; the third showed no difference).  Beside the grid half the
# wall times did not differ measurably, and the clt commands' benchmark peaked
# at 95 MB instead of 108 MB.  The draws do not depend on the batch size.
_MC_CHUNK = 2**18

# Summand grids: the unit-variance uniform sits well inside [-16, 16); the
# (1+|x|)^-3 tail needs a wide window to hold its mass.
FINITE_VARIANCE_GRID = GridSpec(dim=1, extent=16.0, points_per_axis=2**18)
INFINITE_VARIANCE_GRID = GridSpec(dim=1, extent=512.0, points_per_axis=2**18)


@dataclass(frozen=True)
class CltResult:
    ball_radius: float
    n_list: tuple[int, ...]
    p_values: tuple[float, ...]
    phi_values: tuple[float, ...]
    mc_values: tuple[float, ...]
    mc_stderr: tuple[float, ...]
    variance_class: str
    seed: int | None
    gaussian_target: float | None


def _fft_length(target: int) -> int:
    """The smallest 2^k or 3 * 2^k that is at least target."""
    power = 1 << (target - 1).bit_length()
    return 3 * power // 4 if 3 * power // 4 >= target else power


def _charfun_on_scaled_lattice(w: GridFunction, n: int) -> np.ndarray:
    """h sum_j w_j exp(-i 2 pi (k_m/sqrt(n)) x_j) for m = 0..N/2.

    In centered indices x_j = h j and k_m/sqrt(n) = m/(2 L sqrt(n)), so
    the sum is over exp(-i 2 pi a m j) with a = h/(2 L sqrt(n)): a chirp-z
    transform for every n.  With chirp_k = exp(i pi a k^2) and m j = (m^2 +
    j^2 - (m - j)^2)/2, it is conj(chirp_m) times the linear convolution of
    w_j conj(chirp_|j|) with chirp_|m - j| (Bluestein), j over the S nodes
    from the first nonzero one to the last: FFTs of length >= S + N/2.  The
    summand is real, so X(-m) = conj(X(m)) and only m >= 0 is computed;
    m = N/2 lies one past the grid's top frequency.
    """
    spec = w.spec
    points = spec.points_per_axis
    count = points // 2 + 1
    a = spec.spacing / (2.0 * spec.extent * math.sqrt(n))
    # exp(i pi a t^2) is even in t; |m - j| never exceeds N
    chirp = np.exp(1j * np.pi * a * np.arange(points + 1, dtype=float) ** 2)
    nonzero = w.values != 0  # a mask, freed below
    start, stop = int(nonzero.argmax()), points - int(nonzero[::-1].argmax())
    del nonzero
    support, offset = stop - start, start - points // 2
    size = _fft_length(support + count - 1)
    spectrum = w.values[start:stop] * chirp[np.abs(np.arange(offset, offset + support))].conj()
    spectrum = np.fft.fft(spectrum, size)
    lags = np.abs(np.arange(1 - offset - support, count - offset))  # every m - j
    spectrum *= np.fft.fft(chirp[lags], size)
    product = np.fft.ifft(spectrum)
    del spectrum
    window = product[support - 1 : support - 1 + count] * chirp[:count].conj()
    del product
    window *= spec.spacing
    return window


def rescaled_density(w: GridFunction, n: int) -> GridFunction:
    """Density of the normalized n-fold sum, on the one-dimensional grid of w.

    The half spectrum m = 0..N/2 of the transform is raised to the n-th
    power, deep underflow flushing to zero, and inverted by irfft.  The
    full spectrum's one unpaired slot, m = -N/2, leaves the imaginary
    residue that irfft drops; above IDFT_IMAG_TOL of the peak (a point
    mass off the origin) it raises ValueError.  Negative values are ringing and clamped to 0;
    values below -DENSITY_CLAMP leave a warning naming the minimum and the
    L1 mass the clamp removed, h sum max(-d_j, 0), as does a mass off 1 by
    over 2 %.
    """
    if w.spec.dim != 1:
        raise ValueError(f"rescaled_density is one-dimensional, got a grid with dim={w.spec.dim}")
    check_count("n", n)
    mass = integrate(w)
    if abs(mass - 1.0) > 1e-4:
        raise ValueError(f"input must be a probability density; mass = {mass:.6f}")

    points, h = w.spec.points_per_axis, w.spec.spacing
    powered = _charfun_on_scaled_lattice(w, n)
    with np.errstate(under="ignore"):
        powered **= n
    # the full inverse's imaginary residue, (-1)^j Im(X(N/2)^n)/(N h), which irfft drops
    imag_peak = abs(powered[-1].imag) / (points * h)
    density = np.fft.fftshift(np.fft.irfft(powered, points)) / h
    del powered
    low = float(density.min())
    check_real(imag_peak, max(float(density.max()), -low))
    if low < -DENSITY_CLAMP:
        removed = -float(density[density < 0].sum()) * h
        warn(
            f"rescaled density has negative values down to {low:.3e}; clamping "
            f"them removes L1 mass {removed:.12e}"
        )
    density = np.maximum(density, 0.0)
    result = GridFunction(spec=w.spec, values=density)
    out_mass = integrate(result)
    if abs(out_mass - 1.0) > MASS_WARN:
        warn(
            f"rescaled density mass {out_mass:.4f} deviates from 1 by more than "
            f"{MASS_WARN:.0%}; widen the window"
        )
    return result


def ball_mass(density: GridFunction, radius: float) -> float:
    """Mass h^d sum over the nodes with |x_j| <= radius.

    Radii at or beyond the window extent just return the total mass; the
    quantity is only informative for radius < extent.
    """
    check_number("radius", radius, "nonnegative")
    sel = density.spec.radii() <= radius
    return float(density.values[sel].sum() * density.spec.cell_volume)


def phi_functional(density: GridFunction) -> float:
    """h^d sum min(1, |x_j|) density[j]; tends to 1 when mass escapes."""
    weights = np.minimum(1.0, density.spec.radii())
    return float(np.sum(weights * density.values) * density.spec.cell_volume)


def _monte_carlo(sampler, radii, n_list, mc_samples, seed, stop: threading.Event):
    """Monte Carlo ball masses and standard errors, one list per radius.

    Each n draws from its own stream spawned from seed, in chunks of
    max(1, _MC_CHUNK // n) rows of n scalars, a longer row in blocks of
    _MC_CHUNK: at most _MC_CHUNK scalars for any n.  A set stop event ends
    the run between chunks and returns None.
    """
    mc_values: list[list[float]] = [[] for _ in radii]
    mc_stderr: list[list[float]] = [[] for _ in radii]
    streams = np.random.SeedSequence(seed).spawn(len(n_list))
    for n, stream in zip(n_list, streams):
        rng = np.random.default_rng(stream)
        chunk = max(1, _MC_CHUNK // n)
        blocks = range(0, n, _MC_CHUNK)  # more than one only when chunk == 1
        scale = 1.0 / math.sqrt(n)
        hits = [0] * len(radii)
        for done in range(0, mc_samples, chunk):
            rows = min(chunk, mc_samples - done)
            sums = sum(sampler(rng, (rows, min(_MC_CHUNK, n - b))).sum(axis=1) for b in blocks)
            sums = np.abs(sums) * scale
            hits = [h + int(np.count_nonzero(sums <= r)) for h, r in zip(hits, radii)]
            if stop.is_set():
                return None
        for values, errors, h in zip(mc_values, mc_stderr, hits):
            p = h / mc_samples
            values.append(p)
            errors.append(math.sqrt(p * (1.0 - p) / mc_samples))
    return mc_values, mc_stderr


def _summand(w_kind: str):
    """Grid, evaluator, sampler and radius -> limit ball mass (None: escapes)."""
    if w_kind == "finite_variance":
        half = math.sqrt(3.0)

        def evaluator(x):
            return np.where(np.abs(x) <= half, 1.0 / (2.0 * half), 0.0)

        def sampler(rng, size):
            return rng.uniform(-half, half, size)

        return FINITE_VARIANCE_GRID, evaluator, sampler, lambda r: math.erf(r / math.sqrt(2.0))
    if w_kind == "infinite_variance":
        return INFINITE_VARIANCE_GRID, heavy_tail_density(), heavy_tail_sampler, lambda r: None
    raise ValueError(f"unknown w_kind {w_kind!r}")


def run_experiments(
    w_kind: str,
    radii: tuple[float, ...],
    n_list: tuple[int, ...] = (4, 16, 64, 256),
    mc_samples: int = 100_000,
    seed: int | None = 0,
) -> tuple[CltResult, ...]:
    """Grid and Monte Carlo ball masses of the rescaled n-fold sums.

    w_kind selects the summand density: "finite_variance" (uniform with
    unit variance; the Gaussian limit erf(R/sqrt(2)) is reported) or
    "infinite_variance" (the (1+|x|)^-3 density on a wide window, where
    the ball mass decays instead).  Monte Carlo replicates draw n fresh
    samples each through per-cell generator streams spawned from the
    master seed, None or an integer >= 0.  mc_samples must be an integer
    >= 0, and 0 skips the Monte Carlo; a bad one raises before any work.

    Each rescaled density and each stream's normalized sums are computed
    once per n and read at every radius; one result per radius comes back
    in radii order, duplicates included.  Radii must be finite and > 0,
    and n_list strictly increasing integers >= 1; neither may be empty.
    """
    radii, n_list = tuple(radii), tuple(n_list)
    if not radii:
        raise ValueError("ball radii must be non-empty, got ()")
    for radius in radii:
        check_number("ball radii", radius)
    for n in n_list:
        check_count("n_list entries", n, 1, "positive integers")
    if not n_list or list(n_list) != sorted(set(n_list)):
        raise ValueError(f"n_list must be non-empty and strictly increasing, got {n_list!r}")
    check_count("mc_samples", mc_samples, 0, "a nonnegative integer (0 skips)")
    if seed is not None:
        check_count("seed", seed, 0, "None or a nonnegative integer")
    spec, evaluator, sampler, limit = _summand(w_kind)
    density = sample_with_mass(spec, evaluator, 1.0)

    from concurrent.futures import ThreadPoolExecutor  # here, so that importing clt stays cheap

    p_values: list[list[float]] = [[] for _ in radii]
    phi_values = []
    mc_values, mc_stderr = [[] for _ in radii], [[] for _ in radii]
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="clt-monte-carlo") as pool:

        def draw():
            return pool.submit(_monte_carlo, sampler, radii, n_list, mc_samples, seed, stop)

        # On one core the halves would only take turns: pinned to one core of
        # a 2-core host, that ran 5 to 8 percent slower than one after the other.
        overlapped = draw() if mc_samples > 0 and usable_cores() > 1 else None
        try:
            for n in n_list:
                dens = rescaled_density(density, n)
                for values, radius in zip(p_values, radii):
                    values.append(ball_mass(dens, radius))
                phi_values.append(phi_functional(dens))
        except BaseException:
            stop.set()  # the worker ends after its current chunk; leaving the pool joins it
            raise
        if mc_samples > 0:
            mc_values, mc_stderr = (overlapped or draw()).result()

    return tuple(
        CltResult(
            ball_radius=radius,
            n_list=n_list,
            p_values=tuple(p),
            phi_values=tuple(phi_values),
            mc_values=tuple(mc),
            mc_stderr=tuple(se),
            variance_class="finite" if w_kind == "finite_variance" else "infinite",
            seed=seed,
            gaussian_target=limit(radius),
        )
        for radius, p, mc, se in zip(radii, p_values, mc_values, mc_stderr)
    )


def run_experiment(
    w_kind: str,
    ball_radius: float = 1.0,
    n_list: tuple[int, ...] = (4, 16, 64, 256),
    mc_samples: int = 100_000,
    seed: int | None = 0,
) -> CltResult:
    """run_experiments at the single radius ball_radius."""
    return run_experiments(w_kind, (ball_radius,), n_list, mc_samples, seed)[0]
