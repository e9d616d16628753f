import itertools
import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from autoconv import csvcells, families, grids
from autoconv.grids import (
    ConvolutionPlan,
    GridFunction,
    GridSpec,
    Spectrum,
    convolve,
    dft,
    from_csv,
    from_json,
    idft,
    integrate,
    moment,
    restrict,
    sample,
    to_csv,
    to_json,
    write_csv,
)
from oracles import plan_window_with_rfftn, write_rows_per_cell


def spec1(L=16.0, N=2**12):
    return GridSpec(dim=1, extent=L, points_per_axis=N)


@pytest.fixture(scope="module")
def gauss():
    return sample(spec1(), families.gaussian_density())


class TestGridSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=4, extent=1.0, points_per_axis=16),
            dict(dim=1, extent=0.0, points_per_axis=16),
            dict(dim=1, extent=1.0, points_per_axis=24),
            dict(dim=1, extent=1.0, points_per_axis=4),
            dict(dim=1, extent=math.inf, points_per_axis=16),
            dict(dim=1, extent=math.nan, points_per_axis=16),
            dict(dim=1, extent=1.0, points_per_axis=16.0),
            dict(dim=True, extent=1.0, points_per_axis=16),
            dict(dim=1.0, extent=1.0, points_per_axis=16),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match="dim|extent|points_per_axis"):
            GridSpec(**kwargs)

    def test_numpy_integers_accepted(self):
        spec = GridSpec(dim=np.int64(2), extent=1.0, points_per_axis=np.int32(16))
        assert spec.shape == (16, 16)

    def test_nodes_contain_origin(self):
        spec = spec1(N=64)
        nodes = spec.axis_nodes()
        assert nodes[32] == 0.0
        assert nodes[0] == -spec.extent
        assert spec.spacing * spec.points_per_axis == 2.0 * spec.extent

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_radii_match_node_grids(self, dim):
        # the open-grid sum adds the squares in the meshgrid formula's order
        spec = GridSpec(dim=dim, extent=5.0, points_per_axis=16)
        coords = spec.node_grids()
        r2 = coords[0] ** 2
        for c in coords[1:]:
            r2 = r2 + c**2
        assert np.array_equal(spec.radii(), np.sqrt(r2))

    def test_frequencies(self):
        spec = spec1(L=8.0, N=16)
        k = spec.axis_frequencies()
        assert k[8] == 0.0
        assert k[9] - k[8] == pytest.approx(1.0 / 16.0, rel=1e-15)


class TestSample:
    def test_zero(self):
        g = sample(spec1(), lambda x: np.zeros_like(x))
        assert not g.values.any()

    def test_poisson_value_at_origin(self):
        spec = GridSpec(dim=1, extent=64.0, points_per_axis=2**12)
        g = sample(spec, families.poisson(families.PoissonParams(a=0.5, t=1.0)))
        assert g.values[spec.points_per_axis // 2] == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-12
        )

    def test_gaussian_mass(self, gauss):
        mass = integrate(gauss)
        assert 1.0 - 1e-6 <= mass <= 1.0 + 1e-12

    def test_nonfinite_rejected(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="node"):
                sample(spec1(), lambda x: 1.0 / x)

    def test_values_immutable(self, gauss):
        with pytest.raises(ValueError):
            gauss.values[0] = 1.0

    @pytest.mark.parametrize("kind", [GridFunction, Spectrum])
    def test_values_must_have_the_grid_shape(self, kind):
        with pytest.raises(ValueError, match=r"values shape \(8, 8\) does not match grid shape"):
            kind(spec=spec1(N=8), values=np.zeros((8, 8)))

    def test_sample_with_mass_needs_a_profile_with_mass(self):
        with pytest.raises(ValueError, match="profile has no mass"):
            grids.sample_with_mass(spec1(), lambda x: np.zeros_like(x), 0.1)


class TestIntegrateAndMoment:
    def test_zero(self):
        assert integrate(sample(spec1(), lambda x: np.zeros_like(x))) == 0.0

    def test_poisson_windowed_mass(self):
        spec = GridSpec(dim=1, extent=100.0, points_per_axis=2**14)
        g = sample(spec, families.poisson(families.PoissonParams(a=0.5, t=1.0)))
        # Exact windowed integral of the kernel: (a/pi) 2 arctan(L/t).
        oracle = (0.5 / math.pi) * 2.0 * math.atan(100.0)
        assert integrate(g) == pytest.approx(oracle, abs=1e-6)
        assert integrate(g) == pytest.approx(0.5, rel=0.01)

    def test_indicator_mass(self):
        spec = spec1()
        g = sample(spec, lambda x: np.where(np.abs(x) <= 1.0, 0.125, 0.0))
        assert integrate(g) == pytest.approx(0.25, abs=spec.spacing)

    def test_moment_order_zero_is_integrate(self, gauss):
        assert moment(gauss, 0.0) == pytest.approx(integrate(gauss), rel=1e-14)

    def test_indicator_first_moment(self):
        spec = spec1()
        g = sample(spec, lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0))
        # integral of |x|/2 over [-1, 1] is 1/2
        assert moment(g, 1.0) == pytest.approx(0.5, abs=spec.spacing)

    def test_poisson_moment_increment_log_law(self):
        kernel = families.poisson(families.PoissonParams(a=0.5, t=1.0))
        inner = sample(GridSpec(dim=1, extent=200.0, points_per_axis=2**14), kernel)
        outer = sample(GridSpec(dim=1, extent=400.0, points_per_axis=2**15), kernel)
        increment = moment(outer, 1.0) - moment(inner, 1.0)
        assert increment == pytest.approx(math.log(2.0) / math.pi, rel=0.01)

    def test_negative_order_rejected(self, gauss):
        for order in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                moment(gauss, order)

    def test_two_dimensional_gaussian_second_moment(self):
        # E|X|^2 = d for the standard Gaussian
        spec = GridSpec(dim=2, extent=8.0, points_per_axis=512)
        g = sample(spec, families.gaussian_density())
        assert moment(g, 2.0) == pytest.approx(2.0, abs=1e-10)


def direct_convolution(g1, g2):
    """Brute-force linear convolution sum, restricted to the window."""
    spec = g1.spec
    n = spec.points_per_axis
    full = np.zeros((2 * n - 1,) * spec.dim)
    for idx in np.ndindex(*spec.shape):
        full[tuple(slice(i, i + n) for i in idx)] += g1.values[idx] * g2.values
    window = (slice(n // 2, n // 2 + n),) * spec.dim
    return full[window] * spec.cell_volume


class TestConvolve:
    # d = 1 runs the four-step transform at every N, its rows x cols (4, 3) at
    # N = 8, (16, 6) at N = 64, (128, 48) at N = 2**12, (128, 96) at N = 2**13
    # and (256, 96) at N = 2**14.
    @pytest.mark.parametrize(
        "dim, n", [(1, 64), (2, 16), (3, 8), (1, 8), (2, 8), (1, 2**12), (1, 2**13), (1, 2**14)]
    )
    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_direct_sum(self, dim, n, signed):
        spec = GridSpec(dim=dim, extent=3.0, points_per_axis=n)
        rng = np.random.default_rng(10 * dim + signed)
        draw = rng.standard_normal if signed else rng.random
        g1 = GridFunction(spec=spec, values=draw(spec.shape))
        g2 = GridFunction(spec=spec, values=draw(spec.shape))
        want = direct_convolution(g1, g2)
        got = convolve(g1, g2).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dim, n", [(1, 2**12), (2, 64), (3, 16)])
    def test_self_convolution_matches_two_inputs(self, dim, n):
        spec = GridSpec(dim=dim, extent=6.0, points_per_axis=n)
        f = sample(spec, families.gaussian_density())
        twin = GridFunction(spec=spec, values=f.values.copy())
        same = convolve(f, f).values
        pair = convolve(f, twin).values
        assert np.abs(same - pair).max() <= 1e-13 * np.abs(pair).max()

    def test_plan_reuse_matches_one_shot(self, gauss):
        plan = ConvolutionPlan(gauss)
        other = sample(gauss.spec, lambda x: np.where(np.abs(x - 1.0) <= 0.5, 1.0, 0.0))
        for g in (other, gauss, other):
            np.testing.assert_array_equal(plan(g).values, convolve(gauss, g).values)

    # a long line, a short line, d = 2 and d = 3
    @pytest.mark.parametrize("dim, n", [(1, 2**14), (1, 64), (2, 32), (3, 16)])
    def test_plan_window_is_the_convolution(self, dim, n):
        spec = GridSpec(dim=dim, extent=6.0, points_per_axis=n)
        f = sample(spec, families.gaussian_density())
        rng = np.random.default_rng(dim)
        g, h = (GridFunction(spec=spec, values=rng.standard_normal(spec.shape)) for _ in range(2))
        plan = ConvolutionPlan(f)
        window = plan.window(g.values, g.values.sum(), np.abs(g.values).sum())
        np.testing.assert_array_equal(window, convolve(f, g).values)
        # a view into the plan's product, which the next call overwrites
        second = plan.window(h.values, h.values.sum(), np.abs(h.values).sum())
        assert np.shares_memory(window, second)
        np.testing.assert_array_equal(window, convolve(f, h).values)
        # the series loop feeds each window back in as the next factor
        fed = GridFunction(spec=spec, values=second.copy())
        third = plan.window(second, second.sum(), np.abs(second).sum())
        np.testing.assert_array_equal(third, convolve(f, fed).values)
        mass = f.values.sum()
        np.testing.assert_array_equal(plan.window(f.values, mass, mass), convolve(f, f).values)

    # lines from the shortest grid up (N = 8: 4 four-step rows, fewer than
    # one block of 16), d = 2 and d = 3
    @pytest.mark.parametrize(
        "dim, n",
        [(1, 8), (1, 64), (1, 1024), (1, 2**12), (1, 2**14), (2, 16), (2, 64), (3, 8), (3, 16)],
    )
    def test_plan_window_matches_the_rfftn_oracle_bit_for_bit(self, dim, n):
        spec = GridSpec(dim=dim, extent=6.0, points_per_axis=n)
        f = sample(spec, families.gaussian_density())
        g = np.random.default_rng(n + dim).standard_normal(spec.shape)
        plan = ConvolutionPlan(f)
        window = None
        # a fresh factor, its window fed back in, the kernel itself, its window fed back in
        for values in (g, None, f.values, None):
            values = window if values is None else values
            want = plan_window_with_rfftn(f, values)  # before the call overwrites a fed-back window
            window = plan.window(values, values.sum(), np.abs(values).sum())
            assert np.array_equal(window.view(np.uint64), want.view(np.uint64))

    # a long line, a shorter one, d = 2 and d = 3; each window
    # is 32 KiB or more, so the bound clears the call's own Python objects
    @pytest.mark.parametrize("dim, n", [(1, 2**14), (1, 2**12), (2, 64), (3, 16)])
    def test_plan_window_allocates_no_array(self, dim, n):
        spec = GridSpec(dim=dim, extent=6.0, points_per_axis=n)
        f = sample(spec, families.gaussian_density())
        g = np.random.default_rng(0).standard_normal(spec.shape)
        plan = ConvolutionPlan(f)
        for values in (g, f.values, None):
            if values is None:  # the window fed back in, as the series loop does
                values = plan.window(g, g.sum(), np.abs(g).sum())
            sums = values.sum(), np.abs(values).sum()
            if values.base is None:  # a fed-back window follows warm calls already
                plan.window(values, *sums)  # warm numpy's plan cache
            tracemalloc.start()
            try:
                window = plan.window(values, *sums)
                grown = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # numpy traces its array buffers; a spectrum is 1.5 windows or more
            assert grown < window.nbytes // 8

    def test_four_step_twiddles_shared_per_length(self):
        spec = GridSpec(dim=1, extent=6.0, points_per_axis=2**14)
        f = sample(spec, families.gaussian_density())
        g = GridFunction(spec=spec, values=np.random.default_rng(0).standard_normal(spec.shape))
        grids._four_step_twiddles.cache_clear()
        grids._four_step_factors.cache_clear()
        built = convolve(f, g).values
        first, second = ConvolutionPlan(f), ConvolutionPlan(g)
        assert all(a is b for a, b in zip(first._twiddles, second._twiddles))
        assert not any(table.flags.writeable for table in first._twiddles)
        assert np.array_equal(convolve(f, g).values.view(np.uint64), built.view(np.uint64))
        # the plan's twiddle multiplies out the factors that four_step_fft applies in turn
        assert grids._four_step_factors.cache_info().currsize == 1
        coarse, fine = grids._four_step_factors(24576)[:2]
        assert coarse.shape == (256 // 16, 96) and fine.shape == (16, 96)
        twiddle = first._twiddles[0]
        assert twiddle.shape == (256 // 2 + 1, 96)
        for k1 in range(twiddle.shape[0]):
            product = coarse[k1 // 16] * fine[k1 % 16]
            assert np.array_equal(twiddle[k1].view(np.uint64), product.view(np.uint64))

    # rows x cols: 128 x 96, 256 x 128, the CLI's CLT lengths 512 x 384 and 1024 x 384,
    # and short lengths with fewer than 16 rows: 1 x 3, 2 x 3, 4 x 3, 8 x 6 and 8 x 125,
    # the rows at 3, 6 and 1000 set by m & -m
    @pytest.mark.parametrize("m", [12_288, 2**15, 196_608, 393_216, 3, 6, 12, 48, 1000])
    def test_four_step_fft_matches_numpy(self, m):
        rng = np.random.default_rng(m)
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        a = x.copy()
        out = grids.four_step_fft(a)
        assert out is a
        rows = min(1 << math.isqrt(m - 1).bit_length(), m & -m)
        want = np.fft.fft(x)
        # X[k1 + rows * k2] sits at row k1, column k2
        got = out.reshape(rows, -1).T.ravel()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        back = grids.four_step_fft(out, inverse=True)
        assert back is a
        assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()

    def test_four_step_fft_refuses_a_strided_array(self):
        # its reshape would be a copy: the transform would land there and leave a as it was
        x = np.arange(24, dtype=complex)
        with pytest.raises(ValueError, match="contiguous"):
            grids.four_step_fft(x[::2])
        np.testing.assert_array_equal(x, np.arange(24))

    def test_four_step_factors_cached_small_and_read_only(self):
        grids._four_step_factors.cache_clear()
        tables = grids._four_step_factors(393_216)
        assert grids._four_step_factors(393_216) is tables
        assert grids._four_step_factors(196_608) is not tables
        assert not any(table.flags.writeable for table in tables)
        # two factors and their conjugates, against 6.3 MB for one full-length table
        assert sum(table.nbytes for table in tables) < 1e6

    @pytest.mark.parametrize("dim, n", [(1, 2**14), (2, 32), (3, 16)])
    def test_result_owns_its_values(self, dim, n):
        # not a view that keeps the whole (3N/2)^d padded product alive
        f = sample(GridSpec(dim=dim, extent=6.0, points_per_axis=n), families.gaussian_density())
        assert convolve(f, f).values.base is None

    def test_mass_guard_catches_corrupt_inverse(self, gauss, monkeypatch):
        real_inverse = ConvolutionPlan._inverse

        def corrupt(plan, spectrum):
            return real_inverse(plan, spectrum) * (1.0 + 1e-6)

        monkeypatch.setattr(ConvolutionPlan, "_inverse", corrupt)
        with pytest.raises(RuntimeError, match="FFT defect"):
            convolve(gauss, gauss)

    def test_mass_guard_catches_nan_inverse(self, gauss, monkeypatch):
        real_inverse = ConvolutionPlan._inverse

        def corrupt(plan, spectrum):
            full = real_inverse(plan, spectrum)
            full.flat[0] = np.nan
            return full

        monkeypatch.setattr(ConvolutionPlan, "_inverse", corrupt)
        with pytest.raises(RuntimeError, match="FFT defect"):
            convolve(gauss, gauss)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_point_masses_at_window_corners(self, dim):
        # Corner pairs reach the extreme linear indices 0 and 2N - 2; at the
        # circular size 3N/2 the latter wraps to N/2 - 2, just below the
        # window, so a smaller transform would alias it in.
        spec = GridSpec(dim=dim, extent=3.0, points_per_axis=8)
        corners = list(itertools.product((0, 7), repeat=dim))
        for i, j in itertools.product(corners, corners):
            g1 = np.zeros(spec.shape)
            g2 = np.zeros(spec.shape)
            g1[i] = 1.0
            g2[j] = 2.0
            g1, g2 = GridFunction(spec=spec, values=g1), GridFunction(spec=spec, values=g2)
            want = direct_convolution(g1, g2)
            got = convolve(g1, g2).values
            assert np.abs(got - want).max() <= 1e-12 * 2.0 * spec.cell_volume

    def test_spec_mismatch(self, gauss):
        other = sample(spec1(N=2**11), families.gaussian_density())
        with pytest.raises(ValueError):
            convolve(gauss, other)

    def test_plan_window_checks_the_factor_shape(self, gauss):
        with pytest.raises(ValueError, match="grid specs do not match"):
            ConvolutionPlan(gauss).window(np.zeros(2**11), 0.0, 0.0)

    def test_gaussian_semigroup(self, gauss):
        got = convolve(gauss, gauss)
        target = sample(gauss.spec, families.gaussian_density(sigma=math.sqrt(2.0)))
        assert np.abs(got.values - target.values).max() <= 1e-6

    def test_delta_identity(self, gauss):
        spec = gauss.spec
        column = np.zeros(spec.shape)
        column[spec.points_per_axis // 2] = 1.0 / spec.spacing
        delta = GridFunction(spec=spec, values=column)
        got = convolve(delta, gauss)
        assert np.abs(got.values - gauss.values).max() <= 1e-6

    def test_poisson_semigroup(self):
        spec = GridSpec(dim=1, extent=100.0, points_per_axis=2**14)
        f = sample(spec, families.poisson(families.PoissonParams(a=0.5, t=1.0)))
        target = sample(spec, families.poisson(families.PoissonParams(a=0.25, t=2.0)))
        got = convolve(f, f)
        sel = np.abs(spec.axis_nodes()) <= 50.0
        rel = np.abs(got.values[sel] - target.values[sel]) / target.values[sel]
        assert rel.max() <= 0.02

    def test_commutativity(self):
        spec = spec1(N=2**10)
        g1 = sample(spec, families.gaussian_density())
        g2 = sample(spec, lambda x: np.where(np.abs(x - 1.0) <= 0.5, 1.0, 0.0))
        a = convolve(g1, g2)
        b = convolve(g2, g1)
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_mass_multiplicativity(self):
        spec = spec1()
        g1 = sample(spec, families.gaussian_density())
        g2 = sample(spec, lambda x: 0.3 * np.exp(-((x - 2.0) ** 2)))
        product = integrate(g1) * integrate(g2)
        assert integrate(convolve(g1, g2)) == pytest.approx(product, rel=1e-6)

    def test_first_moments_add(self):
        spec = spec1(N=2**11)
        w = sample(spec, lambda x: np.exp(-((x - 1.0) ** 2) / 2.0))
        w = GridFunction(spec=spec, values=w.values / integrate(w))
        nodes = spec.axis_nodes()
        mean = float(np.sum(nodes * w.values)) * spec.spacing
        conv = convolve(w, w)
        mean2 = float(np.sum(nodes * conv.values)) * spec.spacing
        assert mean2 == pytest.approx(2.0 * mean, abs=1e-9)

    def test_two_dimensional_mass(self):
        spec = GridSpec(dim=2, extent=8.0, points_per_axis=64)
        g = sample(spec, families.gaussian_density())
        conv = convolve(g, g)
        assert integrate(conv) == pytest.approx(integrate(g) ** 2, rel=1e-6)

    def test_three_dimensional_gaussian_semigroup(self):
        spec = GridSpec(dim=3, extent=8.0, points_per_axis=32)
        g = sample(spec, families.gaussian_density())
        got = convolve(g, g)
        target = sample(spec, families.gaussian_density(sigma=math.sqrt(2.0)))
        assert integrate(g) == pytest.approx(1.0, abs=1e-6)
        assert np.abs(got.values - target.values).max() <= 1e-6


class TestTransforms:
    def test_gaussian_transform(self, gauss):
        spectrum = dft(gauss)
        k = gauss.spec.axis_frequencies()
        sel = np.abs(k) <= 2.0
        target = np.exp(-2.0 * math.pi**2 * k[sel] ** 2)
        assert np.abs(spectrum.values[sel] - target).max() <= 1e-8

    def test_zero_transform(self):
        g = sample(spec1(), lambda x: np.zeros_like(x))
        assert not dft(g).values.any()

    def test_poisson_transform(self):
        spec = GridSpec(dim=1, extent=100.0, points_per_axis=2**14)
        g = sample(spec, families.poisson(families.PoissonParams(a=0.5, t=1.0)))
        spectrum = dft(g)
        k = spec.axis_frequencies()
        sel = (np.abs(k) >= 0.25) & (np.abs(k) <= 2.0)
        target = 0.5 * np.exp(-2.0 * math.pi * np.abs(k[sel]))
        assert np.abs(spectrum.values[sel] - target).max() <= 1e-3

    def test_conjugate_symmetry(self, gauss):
        vals = dft(gauss).values
        n = gauss.spec.points_per_axis
        m = np.arange(1, n // 2)
        mirrored = vals[n // 2 - m]
        direct = vals[n // 2 + m]
        scale = np.abs(vals).max()
        assert np.abs(mirrored - np.conj(direct)).max() <= 1e-10 * scale

    def test_round_trip(self, gauss):
        back = idft(dft(gauss))
        scale = np.abs(gauss.values).max()
        assert np.abs(back.values - gauss.values).max() <= 1e-10 * scale

    def test_parseval(self, gauss):
        spec = gauss.spec
        lhs = spec.cell_volume * float(np.sum(gauss.values**2))
        rhs = float(np.sum(np.abs(dft(gauss).values) ** 2)) / (2.0 * spec.extent)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_idft_rejects_asymmetric_spectrum(self):
        spec = spec1(N=16)
        values = np.zeros(16, dtype=complex)
        values[9] = 1.0  # lone positive-frequency spike
        with pytest.raises(ValueError, match="conjugate symmetric"):
            idft(Spectrum(spec=spec, values=values))


class TestRestrict:
    def test_central_window(self):
        spec = spec1(L=32.0, N=2**10)
        g = sample(spec, families.gaussian_density())
        small = restrict(g, 8.0)
        assert small.spec.extent == 8.0
        assert small.spec.points_per_axis == 2**8
        inner = sample(small.spec, families.gaussian_density())
        np.testing.assert_array_equal(small.values, inner.values)

    def test_bad_extent(self):
        g = sample(spec1(), families.gaussian_density())
        with pytest.raises(ValueError):
            restrict(g, 5.0)
        # a hair off 8 would keep 256 nodes at a spacing a hair off the grid's
        g = sample(spec1(L=32.0, N=2**10), families.gaussian_density())
        with pytest.raises(ValueError, match="whole number of nodes"):
            restrict(g, 8.000000001)

    def test_window_cannot_grow(self):
        # 32 leaves a whole number of nodes (2048), but the grid holds 1024
        g = sample(spec1(L=16.0, N=2**10), families.gaussian_density())
        with pytest.raises(ValueError, match="cannot grow"):
            restrict(g, 32.0)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path, gauss):
        path = tmp_path / "g.csv"
        to_csv(gauss, path)
        back = from_csv(path)
        assert back.spec == gauss.spec
        np.testing.assert_array_equal(back.values, gauss.values)

    def test_json_round_trip(self, tmp_path, gauss):
        path = tmp_path / "g.json"
        to_json(gauss, path)
        back = from_json(path)
        assert back.spec == gauss.spec
        np.testing.assert_array_equal(back.values, gauss.values)

    def test_json_value_count_checked_against_header(self, tmp_path):
        path = tmp_path / "g.json"
        header = {"dim": 1, "extent": 4.0, "points_per_axis": 8}
        path.write_text(json.dumps({**header, "values": [0.1, 0.2, 0.3]}))
        with pytest.raises(ValueError, match="needs 8 values, the file holds 3"):
            from_json(path)

    def test_csv_round_trip_2d(self, tmp_path):
        spec = GridSpec(dim=2, extent=4.0, points_per_axis=16)
        g = sample(spec, families.gaussian_density())
        path = tmp_path / "g2.csv"
        to_csv(g, path)
        back = from_csv(path)
        assert back.spec == spec
        np.testing.assert_array_equal(back.values, g.values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["x1,value\n", "x1,value", "x1,value\n\n# none\n"])
    def test_csv_without_rows_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no data rows"):
            from_csv(path)

    def test_csv_scrambled_rows_rejected(self, tmp_path):
        g = sample(GridSpec(dim=1, extent=4.0, points_per_axis=8), families.gaussian_density())
        path = tmp_path / "g.csv"
        to_csv(g, path)
        header, *rows = path.read_text().splitlines()
        order = [0, 1, 2, 3, 4, 5, 7, 6]
        path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        with pytest.raises(ValueError, match="data row 7 "):
            from_csv(path)

    def test_csv_non_uniform_spacing_rejected(self, tmp_path):
        spec = GridSpec(dim=2, extent=4.0, points_per_axis=8)
        g = sample(spec, families.gaussian_density())
        path = tmp_path / "g2.csv"
        to_csv(g, path)
        header, *rows = path.read_text().splitlines()
        # the second coordinate of data row 11 moves by a tenth of a cell
        x1, x2, value = rows[10].split(",")
        rows[10] = ",".join([x1, repr(float(x2) + 0.1 * spec.spacing), value])
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(ValueError, match="data row 11 "):
            from_csv(path)

    def test_csv_round_trip_3d(self, tmp_path):
        spec = GridSpec(dim=3, extent=2.0, points_per_axis=8)
        g = sample(spec, families.gaussian_density())
        path = tmp_path / "g3.csv"
        to_csv(g, path)
        back = from_csv(path)
        assert back.spec == spec
        np.testing.assert_array_equal(back.values, g.values)


def reference_to_csv(g, path):
    cols = [grid.ravel() for grid in g.spec.node_grids()] + [g.values.ravel()]
    header = [f"x{i + 1}" for i in range(g.spec.dim)] + ["value"]
    write_rows_per_cell(path, header, zip(*cols))


# Values where %.17g is easy to get wrong: signed zero, the smallest
# subnormal, huge and tiny magnitudes, both sides of the switches between
# fixed and exponent form (exponent -5 and 17), a 17-digit half-even tie
# (2^-25), the largest and smallest normal doubles, inf and NaN.
AWKWARD = [-0.0, 5e-324, 1e300, -1e300, 1e-5, 1e-4, 9.999999999999999e-5, 1e16, 1e17,
           0.1, -2.5, 123456789.123456789, 1.0, 0.0, 2**-25, float(np.nextafter(1e17, 0)),
           1.7976931348623157e308, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]


def awkward_function(dim, n):
    # nodes -0.7 + 1.4 j / n need all 17 significant digits
    spec = GridSpec(dim=dim, extent=0.7, points_per_axis=n)
    size = n**dim
    finite = [v for v in AWKWARD if math.isfinite(v)]  # a GridFunction holds no other
    values = np.resize(np.array(finite), size) * np.where(np.arange(size) % 3 == 1, -1.0, 1.0)
    values[::5] = np.random.default_rng(dim).standard_normal(values[::5].size)
    return GridFunction(spec=spec, values=values.reshape(spec.shape))


class TestWriteCsv:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_to_csv_matches_per_cell_writer(self, tmp_path, dim, n):
        g = awkward_function(dim, n)
        to_csv(g, tmp_path / "new.csv")
        reference_to_csv(g, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_to_csv_round_trip_is_bit_identical(self, tmp_path, dim, n):
        g = awkward_function(dim, n)
        to_csv(g, tmp_path / "g.csv")
        back = from_csv(tmp_path / "g.csv")
        assert back.spec == g.spec
        assert back.values.tobytes() == g.values.tobytes()

    def test_to_csv_in_partial_chunks(self, tmp_path, monkeypatch):
        # 64 rows in blocks of 7: nine full blocks and one of a single row
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        g = awkward_function(2, 8)
        to_csv(g, tmp_path / "new.csv")
        reference_to_csv(g, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_3d_coordinates_follow_node_grids_row_major(self, tmp_path):
        g = awkward_function(3, 8)
        to_csv(g, tmp_path / "g.csv")
        data = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1)
        expected = np.stack([grid.ravel() for grid in g.spec.node_grids()], axis=1)
        assert data[:, :3].tobytes() == expected.tobytes()

    def test_no_rows_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ["a", "b"], [[], []])
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"

    def test_column_lengths_checked(self, tmp_path):
        with pytest.raises(ValueError, match="need 3 each"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2, 3], [1.0, 2.0]])
        spec = GridSpec(dim=2, extent=1.0, points_per_axis=8)
        with pytest.raises(ValueError, match="need 64 each"):
            write_csv(tmp_path / "bad.csv", ["x1", "x2", "v"], [np.zeros(8)], spec=spec)

    def test_header_counts_checked(self, tmp_path):
        with pytest.raises(ValueError, match="header names 1 columns, the rows hold 2"):
            write_csv(tmp_path / "bad.csv", ["a"], [np.arange(3), np.ones(3)])
        spec = GridSpec(dim=2, extent=1.0, points_per_axis=8)
        with pytest.raises(ValueError, match="header names 2 columns, the rows hold 3"):
            write_csv(tmp_path / "bad.csv", ["x1", "v"], [np.zeros(64)], spec=spec)
        assert not (tmp_path / "bad.csv").exists()


def float_sweeps():
    """Every power of two, every power of ten with its neighbours, AWKWARD and their negatives."""
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    neighbours = [np.nextafter(tens, 0), np.nextafter(tens, math.inf)]
    values = np.concatenate([powers, tens, *neighbours, AWKWARD])
    return np.concatenate([values, -values])


class TestFloatCells:
    """write_csv's float cells against Python's own '%.17g', value by value."""

    @pytest.mark.parametrize("case", ["bit_patterns", "scaled_normals", "sweeps"])
    def test_cells_match_percent_format(self, tmp_path, case):
        rng, size = np.random.default_rng(17), 2**18
        values = {
            # every exponent, subnormals, infinities and NaN payloads included
            "bit_patterns": lambda: rng.integers(0, 2**64, 2**20, dtype=np.uint64).view(float),
            # every fixed-form layout, from 1e-5 to 1e17, and the exponent form around it
            "scaled_normals": lambda: rng.standard_normal(size) * 1e30 ** rng.uniform(-1, 1, size),
            "sweeps": float_sweeps,
        }[case]()
        for at in range(0, values.size, size):
            chunk = values[at : at + size]
            write_csv(tmp_path / "x.csv", ["x"], [chunk])
            cells = (tmp_path / "x.csv").read_bytes().decode().split("\n")[1:-1]
            expected = ["%.17g" % v for v in chunk.tolist()]
            if cells != expected:
                bad = next(i for i, (a, b) in enumerate(zip(cells, expected)) if a != b)
                pytest.fail(f"{chunk[bad]!r}: wrote {cells[bad]!r}, %.17g gives {expected[bad]!r}")


def set_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def mixed_columns(rows):
    """%d, %s, big-integer (%s), %.17g, extreme %d and bool columns of the given length."""
    ints = np.arange(rows, dtype=np.int64) * -7919
    words = np.array([f"w{i}" for i in range(rows)], dtype=str)
    big = np.array([2**70 + i for i in range(rows)], dtype=object)
    floats = np.resize(np.array(AWKWARD), rows)
    extremes = np.resize(np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64), rows)
    unsigned = np.resize(np.array([2**64 - 1, 0, 10**19], dtype=np.uint64), rows)
    flags = np.arange(rows) % 3 == 1
    return [ints, words, big, floats, extremes, unsigned, flags]


def index_table(rows):
    """write_csv's text of one int column "i" holding 0 .. rows - 1."""
    return "i\n" + "".join(f"{i}\n" for i in range(rows))


class TestParallelWriteCsv:
    """The bytes do not depend on the usable core count or the block size."""

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 16), (2, 8), (3, 8)])
    @pytest.mark.parametrize("chunk", [7, 8])
    def test_grid_tables_match_per_cell_writer(self, tmp_path, monkeypatch, cores, dim, n, chunk):
        # blocks of 8 hold d=1 N=8 in exactly one block and tile every other
        # grid; blocks of 7 leave a partial last block everywhere
        set_cores(monkeypatch, cores)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", chunk)
        g = awkward_function(dim, n)
        to_csv(g, tmp_path / "new.csv")
        reference_to_csv(g, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("rows", [0, 7, 30])
    def test_mixed_columns_match_per_cell_writer(self, tmp_path, monkeypatch, cores, rows):
        # no rows, exactly one block, and four full blocks plus two rows
        set_cores(monkeypatch, cores)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        header = ["i", "word", "big", "x", "extreme", "unsigned", "flag"]
        cols = mixed_columns(rows)
        write_csv(tmp_path / "new.csv", header, cols)
        write_rows_per_cell(tmp_path / "old.csv", header, zip(*(c.tolist() for c in cols)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_block_error_reaches_the_caller(self, tmp_path, monkeypatch, cores):
        set_cores(monkeypatch, cores)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        real = grids._format_block

        def failing(*args):
            if args[-1] == (14, 21):
                raise ArithmeticError("block 3 failed")
            return real(*args)

        monkeypatch.setattr(grids, "_format_block", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="block 3 failed"):
            write_csv(tmp_path / "t.csv", ["i", "x"], [np.arange(30), np.ones(30)])
        assert threading.active_count() == before
        # the next call, on the real formatter, still writes the whole table
        monkeypatch.setattr(grids, "_format_block", real)
        write_csv(tmp_path / "t.csv", ["i"], [np.arange(30)])
        assert (tmp_path / "t.csv").read_text() == index_table(30)

    def test_an_error_stops_the_other_thread_before_its_next_block(self, tmp_path, monkeypatch):
        # block 0 outlasts the failure of block 1 by 0.1 s, time enough to take block 2
        set_cores(monkeypatch, 2)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        real, failed, seen = grids._format_block, threading.Event(), []

        def failing(*args):
            seen.append(args[-1])
            if args[-1] == (7, 14):
                failed.set()
                raise ArithmeticError("block 1 failed")
            if args[-1] == (0, 7):
                failed.wait(timeout=10)
                time.sleep(0.1)
            return real(*args)

        monkeypatch.setattr(grids, "_format_block", failing)
        with pytest.raises(ArithmeticError, match="block 1 failed"):
            write_csv(tmp_path / "t.csv", ["i"], [np.arange(70)])
        assert sorted(seen) == [(0, 7), (7, 14)]

    def test_the_call_waits_for_a_block_still_formatting_when_another_fails(
        self, tmp_path, monkeypatch
    ):
        # block 3 fails while another thread is inside block 4; the error is raised
        # only once that thread has finished and ended
        set_cores(monkeypatch, 4)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        real, entered, failed = grids._format_block, threading.Event(), threading.Event()

        def failing(*args):
            if args[-1] == (14, 21):
                entered.wait(timeout=10)
                failed.set()
                raise ArithmeticError("block 3 failed")
            if args[-1] == (21, 28):
                entered.set()
                failed.wait(timeout=10)
                time.sleep(0.2)
            return real(*args)

        monkeypatch.setattr(grids, "_format_block", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="block 3 failed"):
            write_csv(tmp_path / "t.csv", ["i"], [np.arange(30)])
        assert entered.is_set() and failed.is_set()
        assert threading.active_count() == before

    def test_two_cores_format_on_two_threads(self, tmp_path, monkeypatch):
        # the first block waits, up to 10 s, until a second thread has entered one
        set_cores(monkeypatch, 2)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        real, lock, both, seen = grids._format_block, threading.Lock(), threading.Event(), []

        def recording(*args):
            with lock:
                seen.append(threading.current_thread())
                if len(set(seen)) == 2:
                    both.set()
            if not both.wait(timeout=10):
                both.set()  # a second thread never came: the rest need not wait
            return real(*args)

        monkeypatch.setattr(grids, "_format_block", recording)
        write_csv(tmp_path / "t.csv", ["i"], [np.arange(30)])
        assert len(set(seen)) == 2 and threading.main_thread() in seen
        assert (tmp_path / "t.csv").read_text() == index_table(30)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_blocks_waiting_to_be_written_stay_within_twice_the_threads(
        self, tmp_path, monkeypatch, cores
    ):
        # block 0 holds the file back until 2 x threads blocks are taken; then the
        # threads must wait for the file, never formatting a block further ahead
        set_cores(monkeypatch, cores)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        real, lock, full = grids._format_block, threading.Lock(), threading.Event()
        writes, taken, ahead = [0], [], []

        class Counted:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                with lock:
                    writes[0] += 1  # the header line, then one block each
                return self.fh.write(data)

        def recording(*args):
            with lock:
                taken.append(args[-1])
                ahead.append(len(taken) - (writes[0] - 1))
                if len(taken) == 2 * cores:
                    full.set()
            if args[-1][0] == 0:
                full.wait(timeout=10)
            return real(*args)

        monkeypatch.setattr(grids, "open", lambda *args: Counted(open(*args)), raising=False)
        monkeypatch.setattr(grids, "_format_block", recording)
        write_csv(tmp_path / "t.csv", ["i"], [np.arange(100)])
        assert max(ahead) == 2 * cores
        assert sorted(taken) == [(s, min(s + 7, 100)) for s in range(0, 100, 7)]
        assert (tmp_path / "t.csv").read_text() == index_table(100)

    @pytest.mark.parametrize("cores,rows", [(1, 30), (4, 7), (4, 0)])
    def test_one_core_or_one_block_starts_no_thread(self, tmp_path, monkeypatch, cores, rows):
        set_cores(monkeypatch, cores)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        write_csv(tmp_path / "t.csv", ["i"], [np.arange(rows)])
        assert started == []
        assert (tmp_path / "t.csv").read_text() == index_table(rows)

    def test_many_threads_switching_often(self, tmp_path, monkeypatch):
        # 8 threads on at most a few cores, 180 blocks of 3 rows: a block taken twice,
        # lost or written out of turn changes the bytes
        set_cores(monkeypatch, 8)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 3)
        header = ["i", "word", "big", "x", "extreme", "unsigned", "flag"]
        cols = mixed_columns(540)
        write_rows_per_cell(tmp_path / "old.csv", header, zip(*(c.tolist() for c in cols)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                write_csv(tmp_path / "new.csv", header, cols)
                assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        finally:
            sys.setswitchinterval(interval)

    def test_cold_tables_on_concurrent_first_use(self, tmp_path, monkeypatch):
        # every thread may build the lookup tables and powers of ten at once
        set_cores(monkeypatch, 4)
        monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", 7)
        csvcells._tables.cache_clear()
        csvcells._pow10.cache_clear()
        header = ["i", "word", "big", "x", "extreme", "unsigned", "flag"]
        cols = mixed_columns(60)
        write_csv(tmp_path / "new.csv", header, cols)
        write_rows_per_cell(tmp_path / "old.csv", header, zip(*(c.tolist() for c in cols)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestWorkShare:
    """work(item) on min(usable_cores(), len(items)) threads, the calling one included."""

    def test_values_come_in_item_order(self, monkeypatch):
        # later items finish sooner, so threads finish out of item order
        set_cores(monkeypatch, 4)

        def work(item):
            time.sleep(0.001 * (20 - item))
            return item * item

        with grids.WorkShare(work, range(20)) as share:
            assert list(share) == [i * i for i in range(20)]

    def test_no_item_is_taken_twice(self, monkeypatch):
        # 8 threads on at most a few cores, switching often; the calling thread
        # takes items only once a worker has
        set_cores(monkeypatch, 8)
        taken, threads, worker_took = [], set(), threading.Event()

        def work(item):
            if threading.current_thread() is threading.main_thread():
                assert worker_took.wait(timeout=60)
            else:
                worker_took.set()
            taken.append(item)
            threads.add(threading.current_thread())
            return -item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                taken.clear()
                worker_took.clear()
                with grids.WorkShare(work, range(2000)) as share:
                    assert list(share) == [-i for i in range(2000)]
                assert sorted(taken) == list(range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) > 1

    @pytest.mark.parametrize("ahead", [1, 3, 8])
    def test_ahead_bounds_the_items_taken_and_not_collected(self, monkeypatch, ahead):
        # item 0 holds back until ahead items are taken; then no thread may take another
        # until the caller has collected one
        set_cores(monkeypatch, 4)
        lock, full = threading.Lock(), threading.Event()
        taken, collected, most = [0], [0], [0]

        def work(item):
            with lock:
                taken[0] += 1
                most[0] = max(most[0], taken[0] - collected[0])
                if taken[0] == ahead:
                    full.set()
            if item == 0:
                full.wait(timeout=10)
            return item

        with grids.WorkShare(work, range(30), ahead) as share:
            for item in share:
                with lock:
                    collected[0] += 1
        assert collected == [30] and most == [ahead]

    def test_an_items_error_is_raised_at_its_turn_after_every_worker_ends(self, monkeypatch):
        # item 5 fails while another thread is inside item 6, which ends 0.1 s later
        set_cores(monkeypatch, 4)
        entered, failed, finished = threading.Event(), threading.Event(), []

        def work(item):
            if item == 5:
                entered.wait(timeout=10)
                failed.set()
                raise ArithmeticError("item 5 failed")
            if item == 6:
                entered.set()
                failed.wait(timeout=10)
                time.sleep(0.1)
                finished.append(item)
            return item

        before, collected = threading.active_count(), []
        with pytest.raises(ArithmeticError, match="item 5 failed"):
            with grids.WorkShare(work, range(100)) as share:
                for item in share:
                    collected.append(item)
        assert collected == [0, 1, 2, 3, 4]
        assert finished == [6] and threading.active_count() == before

    @pytest.mark.parametrize("ahead", [None, 2])
    def test_an_error_in_the_block_stops_and_joins_the_workers(self, monkeypatch, ahead):
        # with ahead = 2 the worker waits for a slot when the caller fails
        set_cores(monkeypatch, 2)
        started, taken = threading.Event(), []

        def work(item):
            taken.append(item)
            started.set()
            time.sleep(0.01)
            return item

        before = threading.active_count()
        with pytest.raises(KeyError, match="caller failed"):
            with grids.WorkShare(work, range(1000), ahead):
                assert started.wait(timeout=10)
                raise KeyError("caller failed")
        assert threading.active_count() == before
        assert 1 <= len(taken) < 1000

    @pytest.mark.parametrize("cores,items,workers", [(4, 0, 0), (4, 1, 0), (1, 30, 0), (3, 30, 2)])
    def test_workers_are_one_fewer_than_the_cores_or_the_items(
        self, monkeypatch, cores, items, workers
    ):
        set_cores(monkeypatch, cores)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        with grids.WorkShare(lambda item: -item, range(items)) as share:
            assert list(share) == [-i for i in range(items)]
        assert len(started) == workers

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert grids.usable_cores() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert grids.usable_cores() == 4
