"""Escape of mass under rescaled n-fold self-convolution.

The experiment is one-dimensional.  For a probability density w on a
line grid, the density of n^{-1/2} (X_1 + ... + X_n) is computed by the
characteristic-function power method: evaluate the transform of w at its
own grid's frequencies scaled by 1/sqrt(n) (one chirp-z transform per n,
over the nodes from the first nonzero one to the last), raise to the n-th
power, invert on the same grid.  As w is real, only the half m >= 0 is
computed, powered and inverted (irfft).  The transform evaluates one chirp
table into its spectrum buffer, copies its kernel and twist out of it, and
holds two complex buffers of its FFT length and one of N/2 + 1 points, its
FFTs running in place as four-step transforms (grids.four_step_fft) at
every grid size, which allocate no scratch of the FFT length.  With finite
variance the mass in a fixed ball tends to the Gaussian ball mass; with
infinite variance it drains to zero, which a mandatory Monte Carlo
cross-check confirms independently of the grid (window truncation alone
would fake a finite variance).

run_experiments lists the Monte Carlo sums as chunks of _MC_CHUNK // n rows
of n draws, each drawn from its n's stream of the recorded seed advanced to
its first row.  On c > 1 usable cores, min(c, chunks) - 1 workers (a
grids.WorkShare) draw chunks beside the grid densities (numpy releases the
GIL), the calling thread the rest after them, or all of them on one core.
Hit counts are integers, so no result depends on who drew what.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .families import heavy_tail_density, heavy_tail_sampler
from .grids import GridFunction, GridSpec, check_count, check_number, check_real, integrate
from .grids import WorkShare, four_step_fft, sample_with_mass, warn

DENSITY_CLAMP = 1e-8
MASS_WARN = 0.02

# Scalar draws per Monte Carlo chunk, and per block of a longer row of n
# draws: 2 MB of float64, one core's L2 cache on the 2-core host where it was
# chosen (README has the timings).  Chunks are the unit that the threads
# share out; the draws do not depend on their size.
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

    The chirp is even in t, so one table of chirp_t, t = 0 up to the largest
    |m - j| or m, is evaluated with one np.exp, in the spectrum buffer; the
    kernel and the twist conj(chirp_m) are copied out of it.  Two complex
    buffers of the FFT length (the spectrum's as long as the table if that
    is longer) and the half-length twist are all it holds.  The signal is
    built in the zeroed spectrum buffer, and the three FFTs run in place as
    grids.four_step_fft, at any FFT length, with no scratch of the FFT
    length (one np.fft transform faults in fresh scratch of about twice its
    size on every call), the two spectra in one permuted order that their
    pointwise product does not see.
    """
    spec = w.spec
    points = spec.points_per_axis
    count = points // 2 + 1
    scale = np.pi * (spec.spacing / (2.0 * spec.extent * math.sqrt(n)))
    nonzero = w.values != 0  # a mask, freed below
    start, stop = int(nonzero.argmax()), points - int(nonzero[::-1].argmax())
    del nonzero
    support, offset = stop - start, start - points // 2
    size = _fft_length(support + count - 1)
    lo, hi = 1 - offset - support, count - offset  # every m - j lies in [lo, hi)
    negative = max(-lo, 0)  # the lags below 0, chirp_|m - j| at index m - j - lo
    # a support left of the origin reads lags up to hi > size; -lo < count always
    buffer = np.empty(max(size, hi), dtype=complex)
    chirp = buffer[: max(hi, count)]
    chirp.real = 0.0  # the argument's bits are those of 1j * scale * t**2
    chirp.imag = np.square(np.arange(chirp.size, dtype=float)) * scale
    np.exp(chirp, out=chirp)
    kernel = np.zeros(size, dtype=complex)
    kernel[:negative] = chirp[negative:0:-1]
    kernel[negative : hi - lo] = chirp[max(lo, 0) : hi]
    twist = np.conjugate(chirp[:count])
    # m = 0 puts chirp_|j| at index -j - lo, so the support reads the head reversed
    spectrum = buffer[:size]
    spectrum[support:] = 0.0
    signal = spectrum[:support]
    np.conjugate(kernel[support - 1 :: -1], out=signal)
    np.multiply(w.values[start:stop], signal, out=signal)
    four_step_fft(spectrum)
    spectrum *= four_step_fft(kernel)
    four_step_fft(spectrum, inverse=True)
    del kernel
    # twist first: a complex product rounds differently with its operands swapped
    np.multiply(twist, spectrum[support - 1 : support - 1 + count], out=twist)
    twist *= spec.spacing
    return twist


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
    density = np.fft.fftshift(np.fft.irfft(powered, points))
    del powered
    density /= h
    low = float(density.min())
    check_real(imag_peak, max(float(density.max()), -low))
    if low < -DENSITY_CLAMP:
        removed = -float(density[density < 0].sum()) * h
        warn(
            f"rescaled density has negative values down to {low:.3e}; clamping "
            f"them removes L1 mass {removed:.12e}"
        )
    np.maximum(density, 0.0, out=density)
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
    return _ball_reads(density, density.spec.radii(), (radius,))[0]


def phi_functional(density: GridFunction) -> float:
    """h^d sum min(1, |x_j|) density[j]; tends to 1 when mass escapes."""
    return _ball_reads(density, density.spec.radii(), ())[0]


def _ball_reads(density: GridFunction, nodes: np.ndarray, radii) -> list[float]:
    """ball_mass at each of radii, then phi_functional; nodes is density.spec.radii()."""
    h = density.spec.cell_volume
    reads = [float(density.values[nodes <= radius].sum() * h) for radius in radii]
    reads.append(float(np.sum(np.minimum(1.0, nodes) * density.values) * h))
    return reads


class _MonteCarlo:
    """The Monte Carlo chunks of one run, n by n, and the draw of each.

    Each n draws from its own stream spawned from seed, in chunks of
    max(1, _MC_CHUNK // n) rows of n scalars (one row in blocks of _MC_CHUNK
    beyond).  A chunk's generator is its stream advanced past the rows before
    it, so a sampler must draw one double per value, as Generator.random and
    uniform do.  Hit counts are integers, so chunk order cannot change them.
    """

    def __init__(self, sampler, radii, n_list, mc_samples, seed):
        self.sampler, self.radii, self.n_list, self.samples = sampler, radii, n_list, mc_samples
        self.streams = np.random.SeedSequence(seed).spawn(len(n_list))
        self.chunks = [  # (index of n, n, first row, rows)
            (i, n, first, min(step, mc_samples - first))
            for i, n in enumerate(n_list)
            for step in [max(1, _MC_CHUNK // n)]
            for first in range(0, mc_samples, step)
        ]

    def draw(self, chunk, stop: threading.Event):
        """Hit counts per radius of one chunk; None if stop is set before a block."""
        i, n, first, rows = chunk
        bits = np.random.PCG64(self.streams[i])
        bits.advance(first * n)
        rng = np.random.Generator(bits)
        sums = 0.0
        for block in range(0, n, _MC_CHUNK):  # more than one only when rows == 1
            if stop.is_set():
                return None
            sums += self.sampler(rng, (rows, min(_MC_CHUNK, n - block))).sum(axis=1)
        sums = np.abs(sums) * (1.0 / math.sqrt(n))  # a division rounds differently at |S| = R
        return [int(np.count_nonzero(sums <= r)) for r in self.radii]

    def result(self, counts):
        """Ball masses and standard errors, one list per radius, from every chunk's counts."""
        hits = [[0] * len(self.radii) for _ in self.n_list]
        for (i, *_), drawn in zip(self.chunks, counts):
            hits[i] = [h + c for h, c in zip(hits[i], drawn)]
        p = [[h / self.samples for h in row] for row in zip(*hits)]
        return p, [[math.sqrt(v * (1.0 - v) / self.samples) for v in row] for row in p]


def _monte_carlo(sampler, radii, n_list, mc_samples, seed, stop: threading.Event):
    """Monte Carlo ball masses and standard errors, or None if stopped.

    The sequential reference: every chunk drawn in order on the calling thread.
    """
    draws = _MonteCarlo(sampler, radii, n_list, mc_samples, seed)
    counts = [draws.draw(chunk, stop) for chunk in draws.chunks]
    return None if stop.is_set() else draws.result(counts)


def _summand(w_kind: str):
    """Grid, evaluator, sampler and radius -> limit ball mass (None: escapes)."""
    if w_kind == "finite_variance":
        half = math.sqrt(3.0)

        def evaluator(x):
            return np.where(np.abs(x) <= half, 1.0 / (2.0 * half), 0.0)

        def sampler(rng, size):
            # rng.uniform(-half, half, size) bit for bit, in two vectorized passes over random()
            v = rng.random(size)
            v *= 2.0 * half
            v -= half
            return v

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

    The Monte Carlo chunks are a grids.WorkShare entered before the summand
    is sampled: on c > 1 usable cores, min(c, chunks) - 1 worker threads draw
    them beside the densities, and the calling thread draws what is left
    after its last one.  On one core it draws every chunk after them: two
    halves taking turns on one core of a 2-core host ran 5 to 8 percent
    slower than one after the other.  A sampler draws one double per value
    (see _MonteCarlo).  An error in either half stops the other before its
    next block, and no thread outlives the call.
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

    p_values: list[list[float]] = [[] for _ in radii]
    phi_values = []
    draws = _MonteCarlo(sampler, radii, n_list, mc_samples, seed)
    share = WorkShare(lambda chunk: draws.draw(chunk, share.stop), draws.chunks)
    with share:  # workers draw chunks while this thread computes the densities
        density = sample_with_mass(spec, evaluator, 1.0)
        nodes = spec.radii()  # every rescaled density lives on the summand's grid
        for n in n_list:
            *masses, phi = _ball_reads(rescaled_density(density, n), nodes, radii)
            for values, mass in zip(p_values, masses):
                values.append(mass)
            phi_values.append(phi)
        counts = list(share)  # this thread draws what the workers have not reached
    mc_values = mc_stderr = [()] * len(radii)
    if mc_samples > 0:
        mc_values, mc_stderr = draws.result(counts)

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
