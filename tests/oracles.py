"""Reference implementations that tests compare the library against."""

import math

import numpy as np

from autoconv import grids


def write_rows_per_cell(path, header, rows):
    """The per-cell CSV writer grids.write_csv replaced, kept as an oracle.

    Integers print in full, strings as they are and everything else as
    %.17g, one cell and one row at a time.
    """

    def cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        return f"{float(v):.17g}"

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def plan_window_with_rfftn(kernel, values):
    """grids.ConvolutionPlan.window with a fresh array per transform, kept as an oracle.

    The formulation the plan replaced: off the four-step line the forward is
    rfftn(s=(M,) * d), which allocates its padded intermediates and its
    spectrum; on it, the four-step transform of a fresh zero-padded copy.
    The cached kernel spectrum multiplies first, the inverse takes the steps
    of irfftn (or the four-step's, reversed), and the window is scaled by h^d.
    The plan runs the same 1-D transforms in its own buffers, so its windows
    must match these bit for bit.
    """
    spec = kernel.spec
    n, dim = spec.points_per_axis, spec.dim
    m = 3 * n // 2
    if dim == 1 and m >= grids.FOUR_STEP_MIN:
        twiddle, conjugate = grids._four_step_twiddles(m)
        rows = m // twiddle.shape[1]

        def forward(v):
            padded = np.zeros(m)
            padded[:n] = v
            return np.fft.fft(np.fft.rfft(padded.reshape(rows, -1), axis=0) * twiddle, axis=1)

        def inverse(s):
            return np.fft.irfft(np.fft.ifft(s, axis=1) * conjugate, axis=0).reshape(m)

    else:

        def forward(v):
            return np.fft.rfftn(v, s=(m,) * dim, axes=tuple(range(dim)))

        def inverse(s):
            for axis in range(dim - 1):
                s = np.fft.ifft(s, axis=axis)
            return np.fft.irfft(s, m, axis=-1)

    full = inverse(forward(kernel.values) * forward(values))
    return full[(slice(n // 2, None),) * dim] * spec.cell_volume


def _fft_length(target):
    """The smallest 2^k or 3 * 2^k that is at least target."""
    power = 1 << (target - 1).bit_length()
    return 3 * power // 4 if 3 * power // 4 >= target else power


def charfun_with_chirp_table(w, n):
    """clt._charfun_on_scaled_lattice with a fresh array per step, kept as an oracle.

    The same chirp table exp(i pi a t^2) at t = 0 up to the largest index
    read, lags, FFT lengths and products; what it does differently is to
    allocate a fresh array for every intermediate and every FFT, where the
    library evaluates the table into its spectrum buffer and transforms in
    place.  The CLI's clt.csv bytes were written by this formulation.  Its
    final product was written product * conj(chirp[:count]); from 256 KiB
    up (2^15 grid points, the CLI's 2^18 included) numpy elides the conj
    temporary and multiplies in place on it, twist first, and a complex
    product rounds differently with its operands swapped.  That order is
    written out here for every size.
    """
    spec = w.spec
    points = spec.points_per_axis
    count = points // 2 + 1
    a = spec.spacing / (2.0 * spec.extent * math.sqrt(n))
    nonzero = w.values != 0
    start, stop = int(nonzero.argmax()), points - int(nonzero[::-1].argmax())
    support, offset = stop - start, start - points // 2
    size = _fft_length(support + count - 1)
    lo, hi = 1 - offset - support, count - offset
    chirp = np.exp(1j * np.pi * a * np.arange(max(1 - lo, hi, count), dtype=float) ** 2)
    kernel = np.zeros(size, dtype=complex)
    negative = max(-lo, 0)
    kernel[:negative] = chirp[negative:0:-1]
    kernel[negative : hi - lo] = chirp[max(lo, 0) : hi]
    spectrum = np.fft.fft(w.values[start:stop] * kernel[support - 1 :: -1].conj(), size)
    spectrum *= np.fft.fft(kernel)
    product = np.fft.ifft(spectrum)
    window = chirp[:count].conj()
    np.multiply(window, product[support - 1 : support - 1 + count], out=window)
    window *= spec.spacing
    return window
