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
ConvolutionPlan caches the padded real transform (rfftn) of one fixed
factor, so each further convolution with it costs one forward and one
inverse real transform; the inverse of a real-input product is real by
construction, and a mass identity on the full circular product guards it
in place of an imaginary-residue check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Relative ceiling, in units of sum|f| sum|g|, on the gap between the sum of
# a full padded circular convolution and sum(f) sum(g); anything larger
# signals an FFT defect.
CONV_MASS_RTOL = 1e-9
# Relative ceiling on the imaginary residue of an inverse transform whose
# result is contractually real.
IDFT_IMAG_TOL = 1e-10
# Rows formatted per block by write_csv; one block's text and cells take a
# few MB.
CSV_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a centered uniform grid on [-extent, extent)^dim."""

    dim: int
    extent: float
    points_per_axis: int

    def __post_init__(self):
        for name in ("dim", "points_per_axis"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if isinstance(self.extent, bool) or not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be finite and positive, got {self.extent}")
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
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
        grids = self.node_grids()
        r2 = grids[0] ** 2
        for g in grids[1:]:
            r2 = r2 + g**2
        return np.sqrt(r2)


@dataclass(frozen=True)
class GridFunction:
    """Real values sampled on a GridSpec; immutable after construction."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != self.spec.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.spec.shape}"
            )
        if not np.all(np.isfinite(values)):
            idx = np.unravel_index(int(np.argmin(np.isfinite(values))), values.shape)
            node = tuple(float(self.spec.axis_nodes()[i]) for i in idx)
            raise ValueError(f"non-finite value at node {node}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Spectrum:
    """Complex frequency samples paired with the originating GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if values.shape != self.spec.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.spec.shape}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def sample(spec: GridSpec, evaluator: Callable) -> GridFunction:
    """Sample a pointwise evaluator at the grid nodes.

    The evaluator receives one coordinate array per axis (meshgrid layout
    for dim > 1) and must return finite values at every node.  No
    normalization is applied.
    """
    values = np.asarray(evaluator(*spec.node_grids()), dtype=np.float64)
    values = np.broadcast_to(values, spec.shape).copy()
    return GridFunction(spec=spec, values=values)


def integrate(g: GridFunction) -> float:
    """Riemann sum h^d sum values over the grid window."""
    return float(g.values.sum() * g.spec.cell_volume)


def moment(g: GridFunction, order: float) -> float:
    """Truncated absolute moment h^d sum |x_j|^order values[j].

    order = 0 reproduces integrate (0^0 evaluates to 1).
    """
    if not 0 <= order < math.inf:
        raise ValueError(f"order must be finite and nonnegative, got {order}")
    return float(np.sum(g.spec.radii() ** order * g.values) * g.spec.cell_volume)


class ConvolutionPlan:
    """Linear convolution with one fixed factor, its transform cached.

    The kernel is zero padded to 3N/2 per axis and its real transform
    (rfftn) is computed once.  Each call then costs one rfftn of the other
    factor and one irfftn, followed by the window slice and the h^d scale;
    a call on the kernel itself reuses the cached transform, so f*f needs a
    single forward transform.  The circular product at 3N/2 equals the
    linear one on the kept window [N/2, 3N/2): only full indices
    r <= N/2 - 2 wrap, and they land below it.

    Before windowing, the sum of the full circular product must equal
    sum(kernel) sum(g) (raw values, no h^d) within tolerance(sum|g|); a
    larger gap, or a non-finite one, raises RuntimeError.
    """

    def __init__(self, kernel: GridFunction):
        spec = kernel.spec
        n = spec.points_per_axis
        self.kernel = kernel
        self._padded = (3 * n // 2,) * spec.dim
        self._axes = tuple(range(spec.dim))
        self._keep = (slice(n // 2, None),) * spec.dim
        self._kernel_hat = np.fft.rfftn(kernel.values, s=self._padded, axes=self._axes)
        self._kernel_sum = float(kernel.values.sum())
        self._kernel_abs = float(np.abs(kernel.values).sum())

    def tolerance(self, g_abs: float) -> float:
        """The mass guard's ceiling for a factor with raw sum|g| = g_abs."""
        return CONV_MASS_RTOL * self._kernel_abs * g_abs

    def window(self, values: np.ndarray, g_sum: float, g_abs: float) -> np.ndarray:
        """Raw window sums (no h^d) of the kernel convolved with values.

        values holds one factor on the kernel's grid, with g_sum and g_abs
        its sum and absolute sum; the kernel's own values array reuses the
        cached transform.  The result is a writable view into a fresh
        array, so callers may scale or clamp it in place.
        """
        if values.shape != self.kernel.spec.shape:
            raise ValueError("grid specs do not match")
        if values is self.kernel.values:
            g_hat = self._kernel_hat
        else:
            g_hat = np.fft.rfftn(values, s=self._padded, axes=self._axes)
        full = np.fft.irfftn(self._kernel_hat * g_hat, s=self._padded, axes=self._axes)
        gap = abs(float(full.sum()) - self._kernel_sum * g_sum)
        bound = self.tolerance(g_abs)
        if not gap <= bound:
            raise RuntimeError(
                f"padded convolution sum misses sum(f) sum(g) by {gap:.3e}, more than "
                f"{CONV_MASS_RTOL:.0e} of sum|f| sum|g| = {bound / CONV_MASS_RTOL:.3e}; "
                f"this signals an FFT defect"
            )
        return full[self._keep]

    def __call__(self, g: GridFunction) -> GridFunction:
        spec = self.kernel.spec
        if g.spec != spec:
            raise ValueError("grid specs do not match")
        if g is self.kernel:
            g_sum, g_abs = self._kernel_sum, self._kernel_abs
        else:
            g_sum, g_abs = float(g.values.sum()), float(np.abs(g.values).sum())
        raw = self.window(g.values, g_sum, g_abs)
        return GridFunction(spec=spec, values=raw * spec.cell_volume)


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
    """Scaled transform h^d sum values[j] exp(-i 2 pi k_m . x_j).

    The shift sandwich moves the origin-centered samples into standard
    FFT order and back, which realizes the phase factor exactly.
    """
    spec = g.spec
    out = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(g.values))) * spec.cell_volume
    return Spectrum(spec=spec, values=out)


def idft(s: Spectrum) -> GridFunction:
    """Inverse transform with frequency weight 1/(2L)^d.

    The spectrum must be conjugate symmetric, so the result is real: an
    imaginary residue above IDFT_IMAG_TOL of the peak raises ValueError.
    """
    spec = s.spec
    out = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(s.values))) / spec.cell_volume
    peak = float(np.abs(out).max())
    imag_peak = float(np.abs(out.imag).max())
    if imag_peak > IDFT_IMAG_TOL * peak:
        raise ValueError(
            f"spectrum is not conjugate symmetric (imaginary residue {imag_peak:.3e} "
            f"vs peak {peak:.3e})"
        )
    return GridFunction(spec=spec, values=out.real)


def restrict(g: GridFunction, extent: float) -> GridFunction:
    """Central sub-window of a GridFunction at the same spacing.

    The new extent must divide the old one by a power of two so the node
    set stays a valid centered grid (and keeps at least 8 points).
    """
    old = g.spec
    ratio = old.extent / extent
    per_axis = old.points_per_axis / ratio
    n_new = int(round(per_axis))
    if not (
        math.isclose(per_axis, n_new)
        and n_new >= 8
        and (n_new & (n_new - 1)) == 0
    ):
        raise ValueError(
            f"extent {extent} does not cut {old.extent} to a power-of-two grid "
            f"of at least 8 points per axis"
        )
    new_spec = GridSpec(dim=old.dim, extent=extent, points_per_axis=n_new)
    start = (old.points_per_axis - n_new) // 2
    window = (slice(start, start + n_new),) * old.dim
    return GridFunction(spec=new_spec, values=g.values[window].copy())


# ----------------------------------------------------------------------
# serialization: CSV (coordinates, value) and JSON (header + flat values)
# ----------------------------------------------------------------------


def write_csv(path, header, columns, spec: GridSpec | None = None) -> None:
    """Write a header line and one row per entry of equal-length columns.

    Each column takes one cell format from its dtype: %d for integers, %s
    for strings (and Python integers too large for int64), %.17g, which
    float64 reads back bit-identically, for everything else.  With spec,
    every row starts with the coordinates of one node of that grid in
    row-major order (as spec.node_grids()), so each column must hold one
    value per node; each axis node is formatted once and rows pick theirs
    by index.  Rows are formatted CSV_CHUNK_ROWS at a time by a single
    string % operation, which keeps memory bounded for any row count.
    """
    cols = [np.asarray(c).ravel() for c in columns]
    fmts = [
        "%d" if c.dtype.kind in "biu" else "%s" if c.dtype.kind in "OU" else "%.17g"
        for c in cols
    ]
    rows = cols[0].size if cols else 0
    strides = []
    if spec is not None:
        n = spec.points_per_axis
        rows = n**spec.dim
        strides = [n ** (spec.dim - 1 - a) for a in range(spec.dim)]
        nodes = np.array(["%.17g" % x for x in spec.axis_nodes().tolist()], dtype=object)
        fmts = ["%s"] * spec.dim + fmts
    if any(c.size != rows for c in cols):
        raise ValueError(f"columns hold {[c.size for c in cols]} values, need {rows} each")
    row_fmt = ",".join(fmts) + "\n"
    width = len(fmts)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, rows)
            cells = [None] * (width * (stop - start))
            index = np.arange(start, stop)
            for k, stride in enumerate(strides):
                cells[k::width] = nodes[index // stride % n].tolist()
            for k, c in enumerate(cols, start=len(strides)):
                cells[k::width] = c[start:stop].tolist()
            fh.write((row_fmt * (stop - start)) % tuple(cells))


def to_csv(g: GridFunction, path) -> None:
    """Write one row per node: coordinates then value, full precision."""
    header = [f"x{i + 1}" for i in range(g.spec.dim)] + ["value"]
    write_csv(path, header, [g.values], spec=g.spec)


def from_csv(path) -> GridFunction:
    """Rebuild a GridFunction from to_csv output (bit-identical values).

    A row whose coordinates miss the row-major centered grid by more than
    1e-9 h raises ValueError naming that row.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = data.shape[1] - 1
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
    doc = {
        "dim": g.spec.dim,
        "extent": g.spec.extent,
        "points_per_axis": g.spec.points_per_axis,
        "values": g.values.ravel().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def from_json(path) -> GridFunction:
    """Rebuild a GridFunction from to_json output.

    A value count that does not match the header's grid raises ValueError
    naming both counts.
    """
    with open(path) as fh:
        doc = json.load(fh)
    spec = GridSpec(
        dim=doc["dim"], extent=doc["extent"], points_per_axis=doc["points_per_axis"]
    )
    values = np.array(doc["values"])
    expected = spec.points_per_axis**spec.dim
    if values.size != expected:
        raise ValueError(
            f"{path}: header {spec.shape} needs {expected} values, the file holds {values.size}"
        )
    return GridFunction(spec=spec, values=values.reshape(spec.shape))
