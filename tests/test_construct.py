import math
import warnings

import numpy as np
import pytest

from autoconv import construct
from autoconv.analyze import critical_moment_theorem_demo, exp_tail_fit
from autoconv.coeffs import build_coeffs, tail_bound, terms_for_tail
from autoconv.construct import (
    TERM_CAP,
    build_exponential_example,
    build_series,
    build_spectral,
    bump_residual,
    crosscheck,
    default_epsilon,
)
from autoconv.families import PoissonParams, gaussian_density, poisson
from autoconv.grids import (
    ConvolutionPlan,
    GridFunction,
    GridSpec,
    Spectrum,
    dft,
    idft,
    integrate,
    sample,
    sample_with_mass,
)


def gaussian_residual(mass, L=40.0, N=2**12):
    spec = GridSpec(dim=1, extent=L, points_per_axis=N)
    return sample_with_mass(spec, gaussian_density(), mass)


def zero_residual(L=16.0, N=2**10):
    spec = GridSpec(dim=1, extent=L, points_per_axis=N)
    return GridFunction(spec=spec, values=np.zeros(spec.shape))


def complex_convolve(a, b, spec):
    """Reference linear convolution: three complex FFTs on the 2N-padded grid."""
    n = spec.points_per_axis
    axes = tuple(range(spec.dim))
    padded = (2 * n,) * spec.dim
    product = np.fft.fftn(a, s=padded, axes=axes) * np.fft.fftn(b, s=padded, axes=axes)
    window = (slice(n // 2, n // 2 + n),) * spec.dim
    return np.fft.ifftn(product, axes=axes).real[window] * spec.cell_volume


def complex_spectral(u):
    """Reference spectral route: the root on the complex full-box dft, then idft."""
    z = 1.0 - 4.0 * dft(u).values
    np.maximum(z.real, 0.0, out=z.real)
    return idft(Spectrum(spec=u.spec, values=0.5 - 0.5 * np.sqrt(z))).values


def reference_series(u):
    """The series loop with the complex-FFT convolution, term by term."""
    ratio = min(4.0 * integrate(u), 1.0)
    table = build_coeffs(65536)
    n_terms = terms_for_tail(table, ratio, 2.0 * default_epsilon(ratio))
    scaled = 4.0 * u.values
    power = scaled
    acc = 0.5 * table.values[0] * power
    for n in range(2, n_terms + 1):
        power = np.maximum(complex_convolve(power, scaled, u.spec), 0.0)
        acc += 0.5 * table.values[n - 1] * power
    tail = tail_bound(table, n_terms, ratio)
    return n_terms, 0.5 * tail, 2.0 * float(u.values.max()) * tail / ratio, acc


class TestBuildSeries:
    @pytest.mark.parametrize("dim, n", [(1, 2**10), (2, 16), (1, 2**14)])
    def test_critical_matches_complex_reference(self, dim, n):
        spec = GridSpec(dim=dim, extent=40.0, points_per_axis=n)
        u = sample_with_mass(spec, gaussian_density(sigma=2.0), 0.25)
        build = build_series(u)
        n_terms, tail_l1, tail_sup, solution = reference_series(u)
        assert build.n_terms == n_terms
        assert build.tail_l1 == tail_l1
        assert build.tail_sup == tail_sup
        peak = np.abs(solution).max()
        assert np.abs(build.solution.values - solution).max() <= 1e-12 * peak

    def test_zero_residual(self):
        build = build_series(zero_residual())
        assert build.n_terms == 1
        assert build.tail_l1 == 0.0
        assert build.escaped_l1 == 0.0
        assert not build.solution.values.any()

    def test_subcritical_gaussian_mass(self):
        # mass relation at zero frequency: solution mass is
        # (1 - sqrt(1 - ratio)) / 2 = 1/4 for residual mass 3/16
        build = build_series(gaussian_residual(3.0 / 16.0))
        assert integrate(build.solution) == pytest.approx(0.25, abs=1e-3)
        assert float(build.solution.values.min()) >= 0.0
        assert build.tail_l1 <= 1e-4
        assert build.escaped_l1 <= 1e-12

    def test_critical_gaussian(self):
        build = build_series(gaussian_residual(0.25, L=100.0, N=2**13), epsilon=0.01)
        mass = integrate(build.solution)
        assert 0.48 <= mass <= 0.5
        # the tail law 1/sqrt(pi N) <= 2 epsilon predicts the term count
        predicted = 1.0 / (math.pi * (2.0 * 0.01) ** 2)
        assert 0.75 * predicted <= build.n_terms <= 1.35 * predicted

    @pytest.mark.parametrize(
        "dim, L, n, warns", [(1, 40.0, 2**10, False), (2, 40.0, 64, False), (2, 20.0, 32, True)]
    )
    def test_tail_and_escaped_mass_cover_the_critical_gap(self, dim, L, n, warns):
        spec = GridSpec(dim=dim, extent=L, points_per_axis=n)
        u = sample_with_mass(spec, gaussian_density(sigma=1.5), 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if warns:
                with pytest.warns(UserWarning, match="widen the window"):
                    build = build_series(u)
            else:
                build = build_series(u)
        # Every term is nonnegative, so truncation and window account for
        # the whole gap to a* = 1/2.
        gap = 0.5 - integrate(build.solution)
        assert build.escaped_l1 > 0.0
        assert gap - 1e-12 <= build.tail_l1 + build.escaped_l1 <= gap + 1e-12
        assert (build.escaped_l1 > 0.01) == warns

    def test_ratio_one_ulp_below_critical(self):
        # a residual mass rounding to just under 1/4 must not blow up the
        # geometric tail bound through its 1/(1 - ratio) factor
        u = gaussian_residual(0.25, L=100.0, N=2**13)
        shaved = GridFunction(spec=u.spec, values=u.values * (1.0 - 2.0**-52))
        build = build_series(shaved, epsilon=0.01)
        assert build.ratio < 1.0
        assert 500 <= build.n_terms <= 1100

    def test_tail_bound_matches_table(self):
        build = build_series(gaussian_residual(0.1), epsilon=1e-5)
        table = build_coeffs(build.n_terms + 8)
        expected = 0.5 * tail_bound(table, build.n_terms, min(build.ratio, 1.0))
        assert build.tail_l1 == pytest.approx(expected, rel=1e-12)
        assert build.tail_l1 <= 1e-5

    def test_tiny_negative_values_clamped_with_warning(self):
        u = gaussian_residual(0.1)
        dipped = u.values.copy()
        dipped[5] = -1e-13
        with pytest.warns(UserWarning, match="clamping"):
            build = build_series(GridFunction(spec=u.spec, values=dipped))
        assert float(build.residual.values.min()) >= 0.0

    def test_negative_beyond_floor_rejected(self):
        u = gaussian_residual(0.1)
        dipped = u.values.copy()
        dipped[5] = -1e-9
        with pytest.raises(ValueError, match="nonnegative"):
            build_series(GridFunction(spec=u.spec, values=dipped))

    def test_supercritical_mass_rejected(self):
        for mass in (0.26, 0.25 * (1.0 + 2e-6)):
            with pytest.raises(ValueError, match="1/4"):
                build_series(gaussian_residual(mass))

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1e-3])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            build_series(gaussian_residual(0.1), epsilon=epsilon)

    def test_critical_build_records_clamped_mass(self):
        build = build_series(gaussian_residual(0.25, N=2**10))
        assert build.n_terms == 796
        assert 0.0 <= build.clamped_l1 < 1e-12

    def test_short_coefficient_table_is_the_long_ones_prefix(self):
        short, long = construct._coeff_table(), construct._coeff_table(long=True)
        assert (short.n_max, long.n_max) == (1025, TERM_CAP + 1)
        for a, b in [(short.values, long.values), (short.partial_sums, long.partial_sums)]:
            assert np.array_equal(a.view(np.uint64), b[: short.n_max].view(np.uint64))
        # every default target, read off either table, to the same N and the same bits
        for ratio, n in [(1.0, 796), (0.99, 177), (0.9, 38), (0.75, 15)]:
            target = 2.0 * default_epsilon(ratio)
            assert terms_for_tail(short, ratio, target) == terms_for_tail(long, ratio, target) == n
            assert tail_bound(short, n, ratio) == tail_bound(long, n, ratio)
        assert terms_for_tail(short, 1.0, 2e-3) is None
        assert terms_for_tail(long, 1.0, 2e-3) > 1024

    def test_target_past_the_short_table_takes_the_long_one(self):
        # at critical mass the tail past 1024 terms is about 1 / sqrt(1024 pi) = 0.0176
        build = build_series(gaussian_residual(0.25), epsilon=0.0085)
        long, ratio = construct._coeff_table(long=True), min(build.ratio, 1.0)
        assert build.n_terms == terms_for_tail(long, ratio, 0.017) > 1024
        assert build.tail_l1 == 0.5 * tail_bound(long, build.n_terms, ratio) <= 0.0085

    def test_clamp_beyond_mass_tolerance_raises(self, monkeypatch):
        # Move mass from the last window node to slot 0, below the window:
        # the sum over the full product, and so the mass guard, is
        # unchanged, but the window gains a negative value to clamp.
        real_inverse = ConvolutionPlan._inverse

        def corrupt(plan, spectrum):
            full = real_inverse(plan, spectrum)
            shift = 1e-6 * float(np.abs(full).sum())
            full.flat[0] += shift
            full.flat[-1] -= shift
            return full

        monkeypatch.setattr(ConvolutionPlan, "_inverse", corrupt)
        with pytest.raises(RuntimeError, match="clamps"):
            build_series(gaussian_residual(0.1))

    def test_mass_guard_catches_nan_inverse(self, monkeypatch):
        real_inverse = ConvolutionPlan._inverse

        def corrupt(plan, spectrum):
            full = real_inverse(plan, spectrum)
            full.flat[-1] = np.nan
            return full

        monkeypatch.setattr(ConvolutionPlan, "_inverse", corrupt)
        with pytest.raises(RuntimeError, match="FFT defect"):
            build_series(gaussian_residual(0.1))

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 16), (3, 8), (1, 2**13)])
    def test_every_inverse_transform_has_three_halves_n_per_axis(self, dim, n, monkeypatch):
        spec = GridSpec(dim=dim, extent=6.0, points_per_axis=n)
        u = sample_with_mass(spec, gaussian_density(), 0.1)
        shapes = []
        real_inverse = ConvolutionPlan._inverse

        def recording(plan, spectrum):
            full = real_inverse(plan, spectrum)
            shapes.append(full.shape)
            return full

        monkeypatch.setattr(ConvolutionPlan, "_inverse", recording)
        build = build_series(u, epsilon=1e-4)
        assert build.n_terms > 2
        assert shapes == [(3 * n // 2,) * dim] * (build.n_terms - 1)

    def test_term_cap_reports_achievable_tail(self):
        with pytest.raises(ValueError, match="achievable tail"):
            build_series(gaussian_residual(0.25), epsilon=1e-4)

    def test_monotone_in_residual(self):
        small = build_series(gaussian_residual(0.12), epsilon=1e-5)
        big = build_series(gaussian_residual(0.15), epsilon=1e-5)
        assert np.all(big.solution.values >= small.solution.values - 1e-12)

    def test_two_dimensional_build(self):
        spec = GridSpec(dim=2, extent=12.0, points_per_axis=64)
        u = sample_with_mass(spec, gaussian_density(), 0.1)
        build = build_series(u, epsilon=1e-5)
        predicted = 0.5 - 0.5 * math.sqrt(1.0 - 0.4)
        assert integrate(build.solution) == pytest.approx(predicted, abs=1e-3)
        assert float(build.solution.values.min()) >= 0.0
        assert crosscheck(build, build_spectral(u)) <= 1e-3

    def test_support_growth(self):
        spec = GridSpec(dim=1, extent=24.0, points_per_axis=2**11)
        build = build_series(bump_residual(spec, 0.125), epsilon=1e-7)
        f = build.solution
        radius = float(build.n_terms)
        nodes = spec.axis_nodes()
        # n-fold convolutions of a bump on [-1, 1] fill [-n, n]
        assert np.all(f.values[np.abs(nodes) <= radius - 2.0] > 0.0)
        assert np.abs(f.values[np.abs(nodes) > radius + 0.1]).max() <= 1e-12


class TestBuildSpectral:
    def test_zero_residual(self):
        f = build_spectral(zero_residual())
        assert np.abs(f.values).max() <= 1e-15

    def test_root_argument_stays_in_right_half_plane(self, monkeypatch):
        # A point mass one node off the origin, inside the mass tolerance:
        # Re(1 - 4 uhat) = 1 - 4 b cos(2 pi m / N) is negative at m = 0
        # and at m = +-1 too, and every sample must be clamped before the
        # square root.
        spec = GridSpec(dim=1, extent=100.0, points_per_axis=2**14)
        values = np.zeros(spec.shape)
        values[spec.points_per_axis // 2 + 1] = 0.25 * (1.0 + 5e-7) / spec.spacing
        arguments = []
        real_sqrt = np.sqrt

        def spy(x, *args, **kwargs):
            if np.iscomplexobj(x):
                arguments.append(np.array(x, copy=True))
            return real_sqrt(x, *args, **kwargs)

        monkeypatch.setattr(np, "sqrt", spy)
        build_spectral(GridFunction(spec=spec, values=values))
        assert arguments
        assert all(float(z.real.min()) >= 0.0 for z in arguments)

    @pytest.mark.parametrize("dim,n", [(1, 4096), (2, 128), (3, 32)])
    @pytest.mark.parametrize("mass", [3.0 / 16.0, 0.25, 0.25 * (1.0 + 1e-7)])
    def test_matches_complex_reference(self, monkeypatch, dim, n, mass):
        spec = GridSpec(dim=dim, extent=20.0, points_per_axis=n)
        u = sample_with_mass(spec, gaussian_density(1.5), mass)
        reference = complex_spectral(u)
        calls = []
        for name in ("fftn", "ifftn"):
            transform = getattr(np.fft, name)

            def spy(*args, _name=name, _transform=transform, **kwargs):
                calls.append(_name)
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 2 deprecates s without axes
            f = build_spectral(u)
        assert calls == []  # only the real half-spectrum pair runs
        assert np.abs(f.values - reference).max() <= 1e-14 * reference.max()

    def test_subcritical_gaussian_mass(self):
        f = build_spectral(gaussian_residual(3.0 / 16.0))
        assert integrate(f) == pytest.approx(0.25, abs=1e-6)
        assert float(f.values.min()) >= -1e-8

    def test_poisson_residual_round_trip(self):
        # families oracle: the slack of f_{1/2,1} is exactly
        # f_{1/2,1} - f_{1/4,2}, so the builder must return f_{1/2,1}
        spec = GridSpec(dim=1, extent=100.0, points_per_axis=2**14)
        lhs = sample(spec, poisson(PoissonParams(a=0.5, t=1.0)))
        rhs = sample(spec, poisson(PoissonParams(a=0.25, t=2.0)))
        u = GridFunction(spec=spec, values=lhs.values - rhs.values)
        f = build_spectral(u)
        err = float(np.abs(f.values - lhs.values).sum() * spec.spacing)
        assert err <= 0.02

    def test_supercritical_mass_rejected(self):
        for mass in (0.26, 0.25 * (1.0 + 2e-6)):
            with pytest.raises(ValueError, match="1/4"):
                build_spectral(gaussian_residual(mass))

    def test_mass_inside_tolerance_built_as_critical(self):
        # Both routes share one residual contract: a mass above 1/4 by
        # less than MASS_RTOL is built as the critical solution.
        u = gaussian_residual(0.25 * (1.0 + 1e-7))
        series, spectral = build_series(u), build_spectral(u)
        assert integrate(spectral) == pytest.approx(0.5, abs=1e-8)
        assert crosscheck(series, spectral) <= series.tail_l1 + 1e-3


class TestCrosscheck:
    def test_zero(self):
        build = build_series(zero_residual())
        assert crosscheck(build, build_spectral(zero_residual())) == 0.0

    def test_subcritical(self):
        u = gaussian_residual(3.0 / 16.0)
        build = build_series(u, epsilon=1e-6)
        assert crosscheck(build, build_spectral(u)) <= 1e-4

    def test_critical(self):
        u = gaussian_residual(0.25, L=100.0, N=2**13)
        build = build_series(u, epsilon=0.01)
        assert crosscheck(build, build_spectral(u)) <= 0.02

    def test_spec_mismatch(self):
        build = build_series(zero_residual())
        with pytest.raises(ValueError):
            crosscheck(build, build_spectral(zero_residual(N=2**11)))


class TestExponentialExample:
    def spec(self):
        return GridSpec(dim=1, extent=12.0, points_per_axis=2**11)

    def test_mass_prediction(self):
        build = build_exponential_example(self.spec(), mass=0.125)
        target = 0.5 - 0.5 * math.sqrt(1.0 - 4.0 * 0.125)
        assert integrate(build.solution) == pytest.approx(target, abs=1e-3)

    def test_small_mass_first_order(self):
        # f = u + O(mass^2): the leading series term is (1/2) c_1 4 u = u
        build = build_exponential_example(self.spec(), mass=0.01)
        diff = np.abs(build.solution.values - build.residual.values)
        assert float(diff.sum() * self.spec().spacing) <= 3.0 * 0.01**2

    def test_mass_range_enforced(self):
        with pytest.raises(ValueError, match="subcriticality"):
            build_exponential_example(self.spec(), mass=0.25)
        with pytest.raises(ValueError):
            build_exponential_example(self.spec(), mass=0.0)

    def test_near_critical_tail_still_decays(self):
        # L = 12 drops about 2e-5 of the series' mass, above this epsilon
        with pytest.warns(UserWarning, match="widen the window"):
            build = build_exponential_example(self.spec(), mass=0.24, epsilon=1e-6)
        fit = exp_tail_fit(build.solution, inner=2.0)
        assert fit.rate < 0.0

    def test_cosine_profile(self):
        build = build_exponential_example(self.spec(), mass=0.125, profile="cosine")
        assert integrate(build.residual) == pytest.approx(0.125, rel=1e-12)

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            bump_residual(self.spec(), 0.1, profile="triangle")


def dipped_residual():
    """Gaussian residual of mass 0.1 with two mirrored -1e-13 values, which get clamped."""
    u = gaussian_residual(0.1)
    dipped = u.values.copy()
    dipped[[5, u.spec.points_per_axis - 5]] = -1e-13
    return GridFunction(spec=u.spec, values=dipped)


class TestWarningsNameTheCaller:
    """A warning names the first line outside autoconv, however deep it is raised."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: build_series(bump_residual(spec, 0.24), epsilon=1e-6),
            lambda spec: build_exponential_example(spec, mass=0.24, epsilon=1e-6),
        ],
        ids=["direct", "through_build_exponential_example"],
    )
    def test_window_warning(self, build):
        spec = GridSpec(dim=1, extent=12.0, points_per_axis=2**11)
        with pytest.warns(UserWarning, match="widen the window") as record:
            build(spec)
        assert len(record) == 1
        assert record[0].filename == __file__

    @pytest.mark.parametrize(
        "build",
        [build_series, build_spectral, critical_moment_theorem_demo],
        ids=["direct", "build_spectral", "through_critical_moment_theorem_demo"],
    )
    def test_clamp_warning(self, build):
        with pytest.warns(UserWarning, match="clamping") as record:
            build(dipped_residual())
        assert len(record) == 1
        assert record[0].filename == __file__
