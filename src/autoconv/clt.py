"""Escape of mass under rescaled n-fold self-convolution.

For a probability density w, the density of n^{-1/2} (X_1 + ... + X_n) is
computed by the characteristic-function power method: evaluate the
transform of w at its own grid's frequencies scaled by 1/sqrt(n) (one
chirp-z transform per axis, for every n), raise to the n-th power,
invert on the same grid.  With finite variance the mass in a fixed ball
tends to the Gaussian ball mass; with infinite variance it drains to
zero, which a mandatory Monte Carlo cross-check confirms independently
of the grid (window truncation alone would fake a finite variance).

When more than one core is usable, run_experiments draws the Monte Carlo
sums on one worker thread while the calling thread builds the grid
densities; both halves spend their time in numpy code that releases the
GIL.  The draws come from per-n streams of the recorded seed, so results
do not depend on whether the halves overlap.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .families import heavy_tail_density, heavy_tail_sampler
from .grids import GridFunction, GridSpec, Spectrum, idft, integrate, sample

DENSITY_CLAMP = 1e-8
MASS_WARN = 0.02

# Scalar draws per Monte Carlo batch: 8 MB of float64, small enough to stay
# in cache, which makes a batch faster than a larger one, and to keep the
# peak memory low while it overlaps the grid half.
_MC_CHUNK = 1_000_000

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
    notes: tuple[str, ...]


def _charfun_on_scaled_lattice(w: GridFunction, n: int) -> np.ndarray:
    """h^d sum_j w_j exp(-i 2 pi (k_m/sqrt(n)) . x_j) at the grid's own frequencies.

    In centered indices x_j = h j and k_m/sqrt(n) = m/(2 L sqrt(n)), so
    each axis sums exp(-i 2 pi a m j) with a = h/(2 L sqrt(n)).  As
    m j = (m^2 + j^2 - (m-j)^2)/2, that sum is a linear convolution with
    the chirp exp(i pi a t^2), taken by FFTs of length >= 2N - 1 between
    two multiplications by the one array exp(-i pi a j^2): one chirp-z
    transform (Bluestein) per axis, for every n.
    """
    spec = w.spec
    points = spec.points_per_axis
    a = spec.spacing / (2.0 * spec.extent * math.sqrt(n))
    t = np.arange(1 - points, points, dtype=float)  # all m - j
    size = 1 << (2 * points - 2).bit_length()
    chirp_hat = np.fft.fft(np.exp(1j * np.pi * a * t**2), size)
    twist = np.exp(-1j * np.pi * a * (np.arange(points) - points // 2) ** 2.0)
    values = w.values.astype(np.complex128)
    for axis in range(spec.dim):
        moved = np.fft.ifft(np.fft.fft(np.moveaxis(values, axis, -1) * twist, size) * chirp_hat)
        values = np.moveaxis(moved[..., points - 1 : 2 * points - 1] * twist, -1, axis)
    return values * spec.cell_volume


def rescaled_density(w: GridFunction, n: int) -> GridFunction:
    """Density of the normalized n-fold sum, on the grid of w.

    The transform value is raised to the n-th power through log-magnitude
    arithmetic, so deep underflow flushes cleanly to zero instead of
    raising.  The inverse is idft's checked one: the powered transform of
    a real density is conjugate symmetric, and one that is not (its
    transform has not decayed by the grid's top frequency, as for a point
    mass off the origin) raises ValueError.  Tiny negative output values
    (at worst -1e-8) are ringing and are clamped; a total mass more than
    2 percent away from 1 leaves a warning on record.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    mass = integrate(w)
    if abs(mass - 1.0) > 1e-4:
        raise ValueError(f"input must be a probability density; mass = {mass:.6f}")

    chat = _charfun_on_scaled_lattice(w, n)
    mag = np.abs(chat)
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag, out=np.full_like(mag, -np.inf), where=mag > 0)
    with np.errstate(under="ignore"):
        powered = np.exp(n * log_mag) * np.exp(1j * n * np.angle(chat))

    density = idft(Spectrum(spec=w.spec, values=powered)).values
    low = float(density.min())
    if low < -DENSITY_CLAMP:
        warnings.warn(
            f"rescaled density has negative values down to {low:.3e}; clamping",
            stacklevel=2,
        )
    density = np.maximum(density, 0.0)
    result = GridFunction(spec=w.spec, values=density)
    out_mass = integrate(result)
    if abs(out_mass - 1.0) > MASS_WARN:
        warnings.warn(
            f"rescaled density mass {out_mass:.4f} deviates from 1 by more than "
            f"{MASS_WARN:.0%}; widen the window",
            stacklevel=2,
        )
    return result


def ball_mass(density: GridFunction, radius: float) -> float:
    """Mass h^d sum over the nodes with |x_j| <= radius.

    Radii at or beyond the window extent just return the total mass; the
    quantity is only informative for radius < extent.
    """
    sel = density.spec.radii() <= radius
    return float(density.values[sel].sum() * density.spec.cell_volume)


def phi_functional(density: GridFunction) -> float:
    """h^d sum min(1, |x_j|) density[j]; tends to 1 when mass escapes."""
    weights = np.minimum(1.0, density.spec.radii())
    return float(np.sum(weights * density.values) * density.spec.cell_volume)


def _scaled_sums(sampler, n: int, replicates: int, rng: np.random.Generator):
    """|X_1 + ... + X_n| / sqrt(n) for each replicate, one chunk at a time.

    A chunk holds at most _MC_CHUNK scalar draws, so memory stays bounded
    however many replicates are asked for.
    """
    chunk = max(1, _MC_CHUNK // n)
    scale = 1.0 / math.sqrt(n)
    for done in range(0, replicates, chunk):
        draws = sampler(rng, (min(chunk, replicates - done), n))
        yield np.abs(draws.sum(axis=1)) * scale


def _monte_carlo(sampler, radii, n_list, mc_samples, seed, stop: threading.Event):
    """Monte Carlo ball masses and standard errors, one list per radius.

    Each n draws from its own stream spawned from seed.  A set stop event
    ends the run between chunks and returns None.
    """
    mc_values: list[list[float]] = [[] for _ in radii]
    mc_stderr: list[list[float]] = [[] for _ in radii]
    streams = np.random.SeedSequence(seed).spawn(len(n_list))
    for n, stream in zip(n_list, streams):
        hits = [0] * len(radii)
        for sums in _scaled_sums(sampler, int(n), mc_samples, np.random.default_rng(stream)):
            hits = [h + int(np.count_nonzero(sums <= r)) for h, r in zip(hits, radii)]
            if stop.is_set():
                return None
        for values, errors, h in zip(mc_values, mc_stderr, hits):
            p = h / mc_samples
            values.append(p)
            errors.append(math.sqrt(p * (1.0 - p) / mc_samples))
    return mc_values, mc_stderr


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    recorded master seed; mc_samples = 0 skips the cross-check, < 0 raises.

    Each rescaled density and each stream's normalized sums are computed
    once per n and read at every radius; one result per radius comes back
    in radii order, duplicates included.  Radii must be finite and > 0.
    """
    radii = tuple(radii)
    if not radii or not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError(f"ball radii must be finite and positive, got {list(radii)}")
    if list(n_list) != sorted(set(int(n) for n in n_list)):
        raise ValueError("n_list must be strictly increasing")
    if mc_samples < 0:
        raise ValueError(f"mc_samples must be nonnegative (0 skips), got {mc_samples}")
    if w_kind == "finite_variance":
        spec = FINITE_VARIANCE_GRID
        half = math.sqrt(3.0)

        def evaluator(x):
            return np.where(np.abs(x) <= half, 1.0 / (2.0 * half), 0.0)

        def sampler(rng, size):
            return rng.uniform(-half, half, size)

        targets = [math.erf(r / math.sqrt(2.0)) for r in radii]
    elif w_kind == "infinite_variance":
        spec = INFINITE_VARIANCE_GRID
        evaluator = heavy_tail_density()
        sampler = heavy_tail_sampler
        targets = [None] * len(radii)
    else:
        raise ValueError(f"unknown w_kind {w_kind!r}")
    raw = sample(spec, evaluator)
    density = GridFunction(spec=spec, values=raw.values / integrate(raw))
    del raw  # unnormalised samples; kept alive they would raise the peak memory

    p_values: list[list[float]] = [[] for _ in radii]
    phi_values = []
    stop = threading.Event()
    mc_args = (sampler, radii, n_list, mc_samples, seed, stop)
    outcome = {}

    def draw():
        try:
            outcome["result"] = _monte_carlo(*mc_args)
        except BaseException as exc:  # re-raised in the calling thread
            outcome["error"] = exc

    worker = None
    if mc_samples > 0 and _usable_cores() > 1:
        worker = threading.Thread(target=draw, name="clt-monte-carlo", daemon=True)
        worker.start()
    try:
        # The worker emits no warnings, so this context, process-wide
        # before Python 3.14, records the grid half's alone.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for n in n_list:
                dens = rescaled_density(density, n)
                for values, radius in zip(p_values, radii):
                    values.append(ball_mass(dens, radius))
                phi_values.append(phi_functional(dens))
    except BaseException:
        stop.set()
        raise
    finally:
        if worker is not None:
            worker.join()
    notes = tuple(str(w.message) for w in caught)

    if "error" in outcome:
        raise outcome["error"]
    if mc_samples == 0:
        mc_values, mc_stderr = [[] for _ in radii], [[] for _ in radii]
    else:
        mc_values, mc_stderr = outcome["result"] if worker else _monte_carlo(*mc_args)

    return tuple(
        CltResult(
            ball_radius=radius,
            n_list=tuple(int(n) for n in n_list),
            p_values=tuple(p),
            phi_values=tuple(phi_values),
            mc_values=tuple(mc),
            mc_stderr=tuple(se),
            variance_class="finite" if w_kind == "finite_variance" else "infinite",
            seed=seed,
            gaussian_target=target,
            notes=notes,
        )
        for radius, target, p, mc, se in zip(radii, targets, p_values, mc_values, mc_stderr)
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
