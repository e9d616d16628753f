"""Uniform centered grids, quadrature, transforms and linear convolution.

Functions live on the half-open box [-L, L)^d sampled at N nodes per axis
(N a power of two, so the node set contains the origin exactly).  The
discrete transform approximates the continuous one under the convention

    fhat(k) = integral f(x) exp(-i 2 pi k . x) dx

with frequencies k_m = m / (2L), m = -N/2 .. N/2 - 1 per axis.  Convolution
is linear on the window, never circular there: wrap-around would corrupt
every tail diagnostic downstream.  Both factors are zero padded to the
circular size M = 3N/2 per axis, the smallest that leaves the kept window
[N/2, 3N/2) of the linear product unaliased: a linear index r + M shares
slot r, and r + M <= 2N - 2 forces r <= N/2 - 2, below the window.  A
ConvolutionPlan caches the padded real transform of one fixed factor, so
each further convolution with it costs one forward and one inverse real
transform: rfftn/irfftn in d >= 2, and on a line of any length a four-step
split into two batched transforms of ~sqrt(M) points, which runs faster
than numpy's scalar transform of M points on long lines (1.2-1.35 times at
M = 12,288-98,304 on one Xeon core, numpy 2.4.6) and keeps one path on
short ones; four_step_fft runs the same split in place on a complex line,
for the CLT.  The plan owns its work arrays and runs every call's
transforms in them, so a call allocates no
array, and its window is a view into the plan's product until the next
call.  The inverse of a real-input product is real by construction, and a
mass identity on the full circular product guards it in place of an
imaginary-residue check.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import csvcells

# Relative ceiling, in units of sum|f| sum|g|, on the gap between the sum of
# a full padded circular convolution and sum(f) sum(g); anything larger
# signals an FFT defect.
CONV_MASS_RTOL = 1e-9
# Relative ceiling on the imaginary residue of an inverse transform whose
# result is contractually real.
IDFT_IMAG_TOL = 1e-10
# Rows per write_csv block, each formatted by one thread: 2x faster than 2^16 on floats.
CSV_CHUNK_ROWS = 1 << 14
# Frames from files in this directory are the package's own; warn skips them.
_PACKAGE_DIR = os.path.dirname(__file__)


def is_number(value) -> bool:
    """Whether value is a Python or numpy int or float: bools and strings never are."""
    return type(value) is not bool and isinstance(value, (float, int, np.floating, np.integer))


def check_number(name: str, value, sign: str = "positive") -> None:
    """Refuse (ValueError) all but a finite number > 0, or >= 0 if sign is "nonnegative"."""
    if not (is_number(value) and (0 < value < math.inf or value == 0 and sign == "nonnegative")):
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def check_count(name: str, value, minimum=1, rule="a positive integer", maximum=math.inf) -> None:
    """Refuse (ValueError) all but an int or numpy integer in [minimum, maximum], never a bool."""
    count = is_number(value) and isinstance(value, (int, np.integer))
    if not (count and minimum <= value <= maximum):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a centered uniform grid on [-extent, extent)^dim."""

    dim: int
    extent: float
    points_per_axis: int

    def __post_init__(self):
        check_count("dim", self.dim, 1, "1, 2 or 3", 3)
        check_number("extent", self.extent)
        n = self.points_per_axis
        check_count("points_per_axis", n, 8, "a power of two >= 8")
        if n & (n - 1):
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_nodes(self) -> np.ndarray:
        """Nodes -L + j h, j = 0..N-1; index N/2 is exactly 0."""
        return -self.extent + self.spacing * np.arange(self.points_per_axis)

    def axis_frequencies(self) -> np.ndarray:
        """Frequencies m/(2L), m = -N/2..N/2-1, in increasing order."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) / (2.0 * self.extent)

    def node_grids(self) -> tuple[np.ndarray, ...]:
        axes = (self.axis_nodes(),) * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def radii(self) -> np.ndarray:
        """Euclidean node distances |x_j| with the grid's shape."""
        axes = np.ix_(*(self.axis_nodes(),) * self.dim)
        return np.sqrt(functools.reduce(np.add, [x**2 for x in axes]))

    def node(self, flat_index: int) -> tuple[float, ...]:
        """Coordinates of the node at a row-major flat index."""
        nodes = self.axis_nodes()
        return tuple(float(nodes[i]) for i in np.unravel_index(flat_index, self.shape))


@dataclass(frozen=True)
class _GridValues:
    """Values on a GridSpec, cast to a contiguous DTYPE array and frozen."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=self.DTYPE)
        if values.shape != self.spec.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.spec.shape}"
            )
        self._check(values)
        # Frozen last, so a construction that raises leaves the caller's array writable.
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def _check(self, values: np.ndarray) -> None:
        """Raise ValueError if the cast values are not acceptable."""


@dataclass(frozen=True)
class GridFunction(_GridValues):
    """Real values sampled on a GridSpec; immutable after construction."""

    DTYPE = np.float64

    def _check(self, values):
        if not np.all(np.isfinite(values)):
            node = self.spec.node(int(np.argmin(np.isfinite(values))))
            raise ValueError(f"non-finite value at node {node}")


@dataclass(frozen=True)
class Spectrum(_GridValues):
    """Complex frequency samples paired with the originating GridSpec."""

    DTYPE = np.complex128


def sample(spec: GridSpec, evaluator: Callable) -> GridFunction:
    """Sample a pointwise evaluator at the grid nodes.

    The evaluator receives one coordinate array per axis (meshgrid layout
    for dim > 1) and must return finite values at every node.  No
    normalization is applied.
    """
    values = np.asarray(evaluator(*spec.node_grids()), dtype=np.float64)
    values = np.broadcast_to(values, spec.shape).copy()
    return GridFunction(spec=spec, values=values)


def sample_with_mass(spec: GridSpec, evaluator: Callable, mass: float) -> GridFunction:
    """Sample an evaluator and rescale it so its Riemann sum is exactly mass.

    mass must be finite and nonnegative, and the samples must carry
    positive mass on the grid.
    """
    check_number("mass", mass, "nonnegative")
    raw = sample(spec, evaluator)
    total = integrate(raw)
    if total <= 0:
        raise ValueError("profile has no mass on this grid; refine the spacing")
    return GridFunction(spec=spec, values=raw.values * (mass / total))


def integrate(g: GridFunction) -> float:
    """Riemann sum h^d sum values over the grid window."""
    return float(g.values.sum() * g.spec.cell_volume)


def moment(g: GridFunction, order: float) -> float:
    """Truncated absolute moment h^d sum |x_j|^order values[j].

    order = 0 reproduces integrate (0^0 evaluates to 1).
    """
    check_number("order", order, "nonnegative")
    return float(np.sum(g.spec.radii() ** order * g.values) * g.spec.cell_volume)


@functools.cache
def _four_step_factors(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four-step twiddle of length m as two factor tables, then their conjugates, read-only.

    The length-m circle, any m >= 1, is viewed as a (rows, m / rows) array,
    rows the smallest power of two >= sqrt(m) or, if smaller, the largest
    power of two dividing m (m & -m).  Its twiddle exp(-2 pi i k1 j2 / m) at
    k1 = B a + b, B = min(rows, 16), is coarse[a, j2] * fine[b, j2]: coarse
    holds k1 = 16 a < rows and fine k1 = b < B, rows / 16 + 16 rows of
    exponentials, not rows, when rows >= 16.
    """
    rows = min(1 << math.isqrt(m - 1).bit_length(), m & -m)
    coarse, fine = (
        np.exp(-2j * math.pi / m * np.outer(k1, np.arange(m // rows)))
        for k1 in (np.arange(0, rows, 16), np.arange(min(rows, 16)))
    )
    tables = (coarse, fine, coarse.conj(), fine.conj())
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _four_step_twiddles(m: int) -> tuple[np.ndarray, np.ndarray]:
    """ConvolutionPlan's four-step twiddle for padded length m and its conjugate, read-only.

    Its rows k1 = 0..rows/2 are the products of _four_step_factors(m).
    """
    coarse, fine = _four_step_factors(m)[:2]
    cols = coarse.shape[1]
    rows = m // cols
    twiddle = (coarse[: rows // 32 + 1, None, :] * fine).reshape(-1, cols)[: rows // 2 + 1]
    pair = (twiddle, twiddle.conj())
    for table in pair:
        table.flags.writeable = False
    return pair


def four_step_fft(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The DFT of a contiguous complex array of length m, in place, by the four-step split.

    a is viewed as a (rows, m / rows) array as in _four_step_factors, for
    any length m >= 1; a non-contiguous a raises ValueError, as its reshape
    would be a copy that the transform never reaches.  The forward runs fft
    down the columns, applies the twiddle as its two factor tables and runs
    fft along the rows (Bailey 1990), so X[k1 + rows * k2] lands at row k1,
    column k2: the permuted order.  The inverse takes that order back to
    natural order, with ifft's 1/m.  Each step transforms a batch of
    ~sqrt(m)-point lines in place, so no scratch of length m is allocated.
    Returns a.
    """
    if not a.flags.c_contiguous:
        raise ValueError("four_step_fft transforms in place: the array must be contiguous")
    coarse, fine, coarse_conj, fine_conj = _four_step_factors(a.size)
    grid = a.reshape(-1, coarse.shape[1])
    blocks = grid.reshape(coarse.shape[0], fine.shape[0], -1)  # k1 = B a + b at [a, b]
    if inverse:
        np.fft.ifft(grid, axis=1, out=grid)
        blocks *= coarse_conj[:, None]
        blocks *= fine_conj
        np.fft.ifft(grid, axis=0, out=grid)
    else:
        np.fft.fft(grid, axis=0, out=grid)
        blocks *= coarse[:, None]
        blocks *= fine
        np.fft.fft(grid, axis=1, out=grid)
    return a


class ConvolutionPlan:
    """Linear convolution with one fixed factor, its transform cached.

    The kernel is zero padded to M = 3N/2 per axis and its real transform
    is computed once.  Each call then costs one forward transform of the
    other factor and one inverse, followed by the window slice and the h^d
    scale; a call on the kernel itself reuses the cached transform, so f*f
    needs a single forward transform.  The circular product at 3N/2 equals
    the linear one on the kept window [N/2, 3N/2): only full indices
    r <= N/2 - 2 wrap, and they land below it.

    In d >= 2 the pair is the 1-D transforms of rfftn and irfftn, in their
    order; numpy batches each over the other axes.  The forward transforms
    only the N^(d-1) data rows along the last axis, then each earlier axis
    over the slabs that hold data.  Every line (d = 1) instead runs the
    four-step transform (Bailey 1990) on the length-M circle viewed as a
    (rows, M / rows) array, rows as in _four_step_factors: rfft down the
    columns, a twiddle exp(-2 pi i k1 j2 / M), then fft along the rows, and
    the reverse with the conjugate twiddle (built once per M and shared by
    every plan of that length).  On long lines (M = 6,144 and up, where
    timed) two batched transforms of ~sqrt(M) points run faster than one
    scalar transform of M; on short ones they cost microseconds more, the
    price of one path.  The spectrum comes out permuted, but only the
    pointwise product of two spectra in that same order is inverted.

    The plan allocates its work arrays once: the (M,) * dim product and a
    spectrum, plus the kernel's spectrum and, on a line, the zero-padded
    (rows, M / rows) input.  Every call transforms in place in
    them, so the window it returns is overwritten by the next call, and a
    plan serves one thread at a time.

    Before windowing, h^d times the sum of the full circular product must
    equal h^d sum(kernel) sum(g) within tolerance(sum|g|); a larger gap,
    or a non-finite one, raises RuntimeError.
    """

    def __init__(self, kernel: GridFunction):
        spec = kernel.spec
        n = spec.points_per_axis
        m = 3 * n // 2
        self.kernel = kernel
        self._padded = (m,) * spec.dim
        self._axes = tuple(range(spec.dim))
        self._keep = (slice(n // 2, None),) * spec.dim
        self._cell = spec.cell_volume
        self._twiddles = _four_step_twiddles(m) if spec.dim == 1 else None
        self._product = np.empty(self._padded)
        if self._twiddles is None:
            spectrum = self._padded[:-1] + (m // 2 + 1,)
        else:
            cols = self._twiddles[0].shape[1]
            rows = m // cols
            self._input = np.zeros((rows, cols))  # the tail past N stays zero
            spectrum = (rows // 2 + 1, cols)
        self._spectrum = np.empty(spectrum, dtype=np.complex128)
        self._kernel_hat = self._forward(kernel.values, np.empty_like(self._spectrum))
        self._kernel_sum = float(kernel.values.sum())
        self._kernel_abs = float(np.abs(kernel.values).sum())

    def _forward(self, values: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """Transform of values zero padded to M per axis, in the plan's order, into spectrum.

        In d >= 2 these are rfftn's 1-D transforms in rfftn's order, so the
        bits are its bits: rfft along the last axis over the data rows
        alone, then for each earlier axis, last first, the padded slab
        zeroed and fft in place over the slabs that hold data.
        """
        if self._twiddles is None:
            n = values.shape[0]
            np.fft.rfft(values, self._padded[-1], out=spectrum[(slice(n),) * (values.ndim - 1)])
            for axis in reversed(self._axes[:-1]):
                lead = (slice(n),) * axis  # the slabs that hold data
                spectrum[lead + (slice(n, None),)] = 0
                data = spectrum[lead]
                np.fft.fft(data, axis=axis, out=data)
            return spectrum
        self._input.reshape(-1)[: values.size] = values
        np.fft.rfft(self._input, axis=0, out=spectrum)
        spectrum *= self._twiddles[0]
        return np.fft.fft(spectrum, axis=1, out=spectrum)

    def _inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """The full circular product, shape (M,) * dim, from a spectrum in the plan's order.

        The result is the plan's product array; the spectrum may be overwritten.
        """
        if self._twiddles is None:
            for axis in self._axes[:-1]:
                np.fft.ifft(spectrum, axis=axis, out=spectrum)
            return np.fft.irfft(spectrum, self._padded[-1], axis=-1, out=self._product)
        columns = np.fft.ifft(spectrum, axis=1, out=spectrum)
        columns *= self._twiddles[1]
        # rows is even, so irfft's default length restores it
        np.fft.irfft(columns, axis=0, out=self._product.reshape(self._input.shape))
        return self._product

    def tolerance(self, g_abs: float) -> float:
        """The mass guard's ceiling, in window's units (h^d included), for sum|g| = g_abs."""
        return CONV_MASS_RTOL * self._kernel_abs * g_abs * self._cell

    def window(self, values: np.ndarray, g_sum: float, g_abs: float) -> np.ndarray:
        """The kernel convolved with values: convolve's values, h^d included.

        values holds one factor on the kernel's grid, with g_sum and g_abs
        its sum and absolute sum; the kernel's own values array reuses the
        cached transform.  The result is a writable view into the plan's
        product array, scaled by h^d after the mass guard, so callers may
        clamp it.  It stays valid until the next call, which overwrites it
        (values may be that view), so a plan serves one thread at a time.
        """
        if values.shape != self.kernel.spec.shape:
            raise ValueError("grid specs do not match")
        if values is self.kernel.values:
            product = np.multiply(self._kernel_hat, self._kernel_hat, out=self._spectrum)
        else:
            product = self._forward(values, self._spectrum)
            # Kernel first: swapped operands round the complex product differently.
            np.multiply(self._kernel_hat, product, out=product)
        full = self._inverse(product)
        gap = abs(float(full.sum()) - self._kernel_sum * g_sum) * self._cell
        bound = self.tolerance(g_abs)
        if not gap <= bound:
            raise RuntimeError(
                f"padded convolution sum misses h^d sum(f) sum(g) by {gap:.3e}, more than "
                f"{CONV_MASS_RTOL:.0e} of h^d sum|f| sum|g| = {bound / CONV_MASS_RTOL:.3e}; "
                f"this signals an FFT defect"
            )
        # The rows from N/2 on hold the window and are contiguous: scaling them
        # needs no ufunc buffer, which a strided window in d >= 2 would.
        full[self._keep[0]] *= self._cell
        return full[self._keep]

    def __call__(self, g: GridFunction) -> GridFunction:
        if g.spec != self.kernel.spec:
            raise ValueError("grid specs do not match")
        # A copy: the window is a view into the plan's padded product, 1.5^d times its size.
        window = self.window(g.values, g.values.sum(), np.abs(g.values).sum())
        return GridFunction(g.spec, window.copy())


def convolve(g1: GridFunction, g2: GridFunction) -> GridFunction:
    """Linear convolution approximating integral f(x-y) g(y) dy.

    A one-shot ConvolutionPlan: both inputs are zero padded to 3N/2 per
    axis (enough to keep the window unaliased), real-transformed (once
    when g1 is g2), multiplied, inverted, checked against the mass
    identity, restricted back to the original window and scaled by h^d.
    Callers that convolve many functions with one fixed factor should
    build the plan once instead.
    """
    return ConvolutionPlan(g1)(g2)


def dft(g: GridFunction) -> Spectrum:
    """Scaled transform h^d sum values[j] exp(-i 2 pi k_m . x_j), the complex reference.

    No library route calls it.  The shift sandwich moves the origin-centered
    samples into FFT order and back, which realizes the phase factor exactly.
    """
    spec = g.spec
    out = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(g.values))) * spec.cell_volume
    return Spectrum(spec=spec, values=out)


def idft(s: Spectrum) -> GridFunction:
    """Inverse of dft with frequency weight 1/(2L)^d; no library route calls it.

    The spectrum must be conjugate symmetric, so the result is real: an
    imaginary residue above IDFT_IMAG_TOL of the peak raises ValueError.
    """
    spec = s.spec
    out = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(s.values))) / spec.cell_volume
    check_real(float(np.abs(out.imag).max()), float(np.abs(out).max()))
    return GridFunction(spec=spec, values=out.real)


def check_real(imag_peak: float, peak: float) -> None:
    """Refuse an inverse whose imaginary residue exceeds IDFT_IMAG_TOL of its peak."""
    if imag_peak > IDFT_IMAG_TOL * peak:
        raise ValueError(
            f"spectrum is not conjugate symmetric (imaginary residue {imag_peak:.3e} "
            f"vs peak {peak:.3e})"
        )


def restrict(g: GridFunction, extent: float) -> GridFunction:
    """Central sub-window of a GridFunction at the same spacing.

    The new extent must be no wider than the grid's and leave a whole
    number of nodes per axis, a count GridSpec accepts (a power of two, at
    least 8).
    """
    check_number("extent", extent)
    old = g.spec
    if extent > old.extent:
        raise ValueError(
            f"extent {extent} is wider than the grid's {old.extent}; the window cannot grow"
        )
    per_axis = old.points_per_axis * extent / old.extent
    if not per_axis.is_integer():
        raise ValueError(f"extent {extent} leaves no whole number of nodes spaced {old.spacing}")
    n_new = int(per_axis)
    new_spec = GridSpec(dim=old.dim, extent=extent, points_per_axis=n_new)
    start = (old.points_per_axis - n_new) // 2
    window = (slice(start, start + n_new),) * old.dim
    return GridFunction(spec=new_spec, values=g.values[window].copy())


# ----------------------------------------------------------------------
# serialization: CSV (coordinates, value) and JSON (header + flat values)
# ----------------------------------------------------------------------


def usable_cores() -> int:
    """Cores this process may run on: its affinity set, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class WorkShare:
    """work(item) for every item, shared by min(usable_cores(), len(items)) threads.

    The calling thread is one of them, so one core or at most one item starts
    no worker.  Workers start on entering the with block and take the next
    item until none is left.  Iterating yields the values in item order, and
    while the next one is pending the calling thread takes items itself.  At
    most ahead items (default: all) are taken and not yet collected.  An
    item's error sets stop, so no thread takes another item, and is raised at
    that item's turn.  Leaving the block sets stop too and joins every
    worker, so no thread outlives it; work that runs long may check stop.
    """

    def __init__(self, work: Callable, items, ahead: int | None = None):
        self.work, self.items = work, list(items)
        self.stop = threading.Event()
        self._next = iter(range(len(self.items)))  # one next() per take: no item is taken twice
        self._slots = threading.Semaphore(ahead or len(self.items))  # taken, not yet collected
        self._done = [threading.Event() for _ in self.items]
        self._values, self._errors = {}, {}
        workers = range(1, min(usable_cores(), len(self.items)))
        self._workers = [threading.Thread(target=self._take, args=(self.stop,)) for _ in workers]

    def _take(self, until: threading.Event, wait: bool = True) -> None:
        """Run the next items until until or stop is set or none is left (or, unless wait, free)."""
        while not until.is_set() and self._slots.acquire(wait) and not self.stop.is_set():
            i = next(self._next, None)
            if i is None:
                return
            try:
                self._values[i] = self.work(self.items[i])
            except BaseException as exc:  # noqa: BLE001  (raised on the calling thread)
                self._errors[i] = exc
                self.stop.set()
            self._done[i].set()

    def __enter__(self) -> WorkShare:
        for worker in self._workers:
            worker.start()
        return self

    def __iter__(self):
        for i, done in enumerate(self._done):
            self._take(done, wait=False)  # this thread's share, while item i is pending
            done.wait()  # items are taken in order, so item i has been
            if i in self._errors:
                raise self._errors[i]
            yield self._values.pop(i)
            self._slots.release()

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self._slots.release(len(self._workers) + 1)  # wakes every waiting worker; n >= 1
        for worker in self._workers:
            worker.join()


def warn(message: str) -> None:
    """warnings.warn(message), attributed to the first caller outside autoconv.

    A warning raised several calls deep, as in build_series under
    build_exponential_example, then names the line that called into the
    package rather than one of its own.
    """
    level, frame = 1, sys._getframe()
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


def _format_block(cols: list, axes: list, bounds: tuple[int, int]) -> bytes:
    """CSV bytes of rows [start, stop) of one write_csv table; any thread may run it.

    axes holds (stride, node cells) per grid coordinate, picked by row index.  Each
    cell and separator owns fixed byte columns; the bytes no cell fills are dropped.
    """
    start, stop = bounds
    index = np.arange(start, stop)
    cells = [(t[i], keep[i]) for stride, (t, keep) in axes for i in [index // stride % len(t)]]
    cells += [csvcells.cells(c[start:stop]) for c in cols]
    comma = np.full((stop - start, 1), ord(","), np.uint8)
    text = np.hstack([part for t, _ in cells for part in (t, comma)])
    mask = np.hstack([part for _, keep in cells for part in (keep, comma > 0)])
    text[:, -1] = ord("\n")
    return text[mask].tobytes()


def write_csv(path, header, columns, spec: GridSpec | None = None) -> None:
    """Write a header line and one row per entry of equal-length columns.

    Each column takes one cell format from its dtype: %d for integers, %s
    for strings (and Python integers too large for int64), %.17g, which
    float64 reads back bit-identically, for everything else.  With spec,
    every row starts with the coordinates of one node of that grid in
    row-major order (as spec.node_grids()), so each column must hold one
    value per node; each axis node is formatted once and rows pick theirs
    by index.  numpy array operations give float and integer cells the
    bytes of %.17g and %d (autoconv.csvcells).  The file is UTF-8.  Blocks of
    CSV_CHUNK_ROWS rows are formatted by a WorkShare, at most twice as many
    blocks as usable cores waiting to be written.  The bytes do not depend
    on the thread count, and no thread outlives the call.
    """
    cols = [np.asarray(c).ravel() for c in columns]
    rows = cols[0].size if cols else 0
    axes = []
    if spec is not None:
        n = spec.points_per_axis
        rows = n**spec.dim
        nodes = csvcells.cells(spec.axis_nodes())
        axes = [(n ** (spec.dim - 1 - a), nodes) for a in range(spec.dim)]
    if any(c.size != rows for c in cols):
        raise ValueError(f"columns hold {[c.size for c in cols]} values, need {rows} each")
    width = len(axes) + len(cols)
    if len(header) != width:
        raise ValueError(f"header names {len(header)} columns, the rows hold {width}")
    bounds = [(s, min(s + CSV_CHUNK_ROWS, rows)) for s in range(0, rows, CSV_CHUNK_ROWS)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())  # before any worker starts
        blocks = WorkShare(lambda b: _format_block(cols, axes, b), bounds, 2 * usable_cores())
        with blocks:
            for block in blocks:
                fh.write(block)


def to_csv(g: GridFunction, path) -> None:
    """Write one row per node: coordinates then value, full precision."""
    header = [f"x{i + 1}" for i in range(g.spec.dim)] + ["value"]
    write_csv(path, header, [g.values], spec=g.spec)


def from_csv(path) -> GridFunction:
    """Rebuild a GridFunction from to_csv output (bit-identical values).

    A file without data rows or without coordinate columns raises
    ValueError saying so; a row whose coordinates miss the row-major
    centered grid by more than 1e-9 h raises ValueError naming that row.
    """
    with open(path) as fh:
        fh.readline()  # header
        start = fh.tell()
        # loadtxt warns on a file without data rows, so look for one first
        has_rows = any(line.split("#")[0].strip() for line in fh)
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", ndmin=2) if has_rows else np.empty((0, 0))
    dim = data.shape[1] - 1
    if dim < 1:
        problem = "no data rows" if data.size == 0 else "no coordinate column"
        raise ValueError(f"{path}: the file has {problem}; a grid row is coordinates, then a value")
    count = data.shape[0]
    n = round(count ** (1.0 / dim))
    if n**dim != count:
        raise ValueError(f"row count {count} is not a {dim}-dim grid")
    spec = GridSpec(dim=dim, extent=-float(data[:, :dim].min()), points_per_axis=n)
    expected = np.stack([grid.ravel() for grid in spec.node_grids()], axis=1)
    off = np.abs(data[:, :dim] - expected) > 1e-9 * spec.spacing
    if off.any():
        row = int(np.argmax(off.any(axis=1)))
        raise ValueError(
            f"{path}: data row {row + 1} has coordinates {data[row, :dim].tolist()}, "
            f"expected {expected[row].tolist()} on a centered uniform grid"
        )
    return GridFunction(spec=spec, values=data[:, dim].reshape(spec.shape))


def to_json(g: GridFunction, path) -> None:
    doc = {**asdict(g.spec), "values": g.values.ravel().tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def from_json(path) -> GridFunction:
    """Rebuild a GridFunction from to_json output.

    A document that is not an object or lacks a key raises ValueError
    naming the problem, as do values other than a flat list of numbers
    (naming the first bad index) and a value count that does not match the
    header's grid (naming both counts).
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the file holds a JSON {type(doc).__name__}, not a grid object")
    header = [field.name for field in fields(GridSpec)]
    missing = [key for key in [*header, "values"] if key not in doc]
    if missing:
        raise ValueError(f"{path}: the grid object lacks {', '.join(missing)}")
    spec = GridSpec(**{key: doc[key] for key in header})
    values = doc["values"]
    if not isinstance(values, list):
        raise ValueError(f"{path}: values must be a list of numbers, got {values!r:.40}")
    if not all(map(is_number, values)):
        bad = next(i for i, value in enumerate(values) if not is_number(value))
        raise ValueError(f"{path}: values[{bad}] must be a number, got {values[bad]!r:.40}")
    expected = spec.points_per_axis**spec.dim
    if len(values) != expected:
        raise ValueError(
            f"{path}: header {spec.shape} needs {expected} values, the file holds {len(values)}"
        )
    return GridFunction(spec=spec, values=np.reshape(values, spec.shape))
