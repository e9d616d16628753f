import math

import numpy as np
import pytest

from autoconv.families import (
    PoissonParams,
    SincParams,
    gaussian_density,
    heavy_tail_cdf,
    heavy_tail_density,
    heavy_tail_sampler,
    poisson,
    poisson_inequality_margin,
    reverse_example,
    sinc_counterexample,
)
from autoconv.grids import GridFunction, GridSpec, convolve, integrate, moment, sample


class TestPoisson:
    def test_value_at_origin(self):
        ev = poisson(PoissonParams(a=0.5, t=1.0))
        assert float(ev(np.array(0.0))) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_value_at_one(self):
        ev = poisson(PoissonParams(a=0.5, t=1.0))
        assert float(ev(np.array(1.0))) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)

    def test_radially_decreasing(self):
        ev = poisson(PoissonParams(a=1.0, t=0.7))
        x = np.linspace(0.0, 50.0, 2000)
        assert np.all(np.diff(ev(x)) < 0)

    def test_mass_one_dimension(self):
        spec = GridSpec(dim=1, extent=400.0, points_per_axis=2**15)
        g = sample(spec, poisson(PoissonParams(a=0.3, t=2.0)))
        # exact windowed oracle: (a/pi) 2 arctan(L/t)
        oracle = (0.3 / math.pi) * 2.0 * math.atan(400.0 / 2.0)
        assert integrate(g) == pytest.approx(oracle, abs=1e-6)

    def test_origin_value_d2(self):
        ev = poisson(PoissonParams(a=0.4, t=1.5))
        got = float(ev(np.array(0.0), np.array(0.0)))
        assert got == pytest.approx(0.4 / (2.0 * math.pi * 1.5**2), rel=1e-12)

    def test_mass_d2(self):
        spec = GridSpec(dim=2, extent=64.0, points_per_axis=2**9)
        g = sample(spec, poisson(PoissonParams(a=0.5, t=1.0)))
        assert integrate(g) == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("a,t", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_params(self, a, t):
        with pytest.raises(ValueError):
            PoissonParams(a=a, t=t)


def poisson_mass_outside_ball(a, t, d, radius):
    """Exact mass of the kernel f_{a,t} on R^d outside the ball |x| <= radius."""
    s = radius / t
    inside = {
        1: 2.0 / math.pi * math.atan(s),
        2: 1.0 - 1.0 / math.hypot(1.0, s),
        3: 2.0 / math.pi * (math.atan(s) - s / (1.0 + s * s)),
    }[d]
    return a * (1.0 - inside)


@pytest.mark.parametrize("d,L,N", [(1, 400.0, 2**14), (2, 64.0, 2**9), (3, 16.0, 64)])
def test_kernel_and_margin_take_their_dimension_from_the_grid(d, L, N):
    # The window holds the ball of radius L, so each kernel's grid mass
    # lies between a minus its exact mass outside that ball and a, up to
    # the spectrally small quadrature error (t/h >= 2).
    a, t, quad = 0.4, 1.0, 1e-6
    spec = GridSpec(dim=d, extent=L, points_per_axis=N)
    kernel = integrate(sample(spec, poisson(PoissonParams(a=a, t=t))))
    assert a - poisson_mass_outside_ball(a, t, d, L) - quad <= kernel <= a + quad
    margin = integrate(sample(spec, poisson_inequality_margin(a, t)))
    low = a - a * a - poisson_mass_outside_ball(a, t, d, L) - quad
    high = a - a * a + poisson_mass_outside_ball(a * a, 2 * t, d, L) + quad
    assert low <= margin <= high


class TestPoissonMargin:
    def test_half_mass_value_at_origin(self):
        ev = poisson_inequality_margin(0.5, 1.0)
        assert float(ev(np.array(0.0))) == pytest.approx(3.0 / (8.0 * math.pi), rel=1e-12)

    def test_half_mass_nonnegative_everywhere(self):
        spec = GridSpec(dim=1, extent=200.0, points_per_axis=2**14)
        g = sample(spec, poisson_inequality_margin(0.5, 1.0))
        assert float(g.values.min()) >= 0.0

    def test_supercritical_positive_at_origin_negative_in_tail(self):
        # For a = 0.6 both kernels are finite at 0 and the margin is still
        # positive there; the violation lives in the tail, where the slack
        # scales like a(1 - 2a)/x^2 < 0.
        ev = poisson_inequality_margin(0.6, 1.0)
        assert float(ev(np.array(0.0))) > 0.0
        assert float(ev(np.array(30.0))) < 0.0
        spec = GridSpec(dim=1, extent=200.0, points_per_axis=2**14)
        g = sample(spec, ev)
        assert float(g.values.min()) < 0.0


class TestSinc:
    def test_value_at_origin(self):
        ev = sinc_counterexample(SincParams(a=1.0))
        assert float(ev(np.array(0.0))) == 2.0

    def test_quarter(self):
        ev = sinc_counterexample(SincParams(a=1.0))
        assert float(ev(np.array(0.25))) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_three_quarters_negative(self):
        ev = sinc_counterexample(SincParams(a=1.0))
        got = float(ev(np.array(0.75)))
        assert got == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-14)
        assert got < 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            SincParams(a=0.0)


class TestGaussianDensity:
    def test_mass(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        g = sample(spec, gaussian_density(sigma=1.3))
        assert integrate(g) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_sigma(self):
        for sigma in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive"):
                gaussian_density(sigma=sigma)


class TestReverseExample:
    def spec(self):
        return GridSpec(dim=1, extent=8.0, points_per_axis=2**10)

    def test_no_dip_strict_inequality(self):
        # Gaussian ratio oracle: for f = 2 gamma_1, f*f - f = 4 gamma_2 -
        # 2 gamma_1 > 0 since gamma_1/gamma_2 = sqrt(2) exp(-x^2/4) <= sqrt(2) < 2.
        f = reverse_example(self.spec(), a=2.0, delta=0.0)
        margin = convolve(f, f).values - f.values
        assert float(margin.min()) > 0.0

    @pytest.mark.parametrize("delta", [0.01, 0.02])
    def test_small_dip_keeps_strict_inequality(self, delta):
        f = reverse_example(self.spec(), a=2.0, delta=delta)
        assert float(f.values.min()) == -1.0
        margin = convolve(f, f).values - f.values
        assert float(margin.min()) > 0.0

    def test_unit_mass_fails_at_origin(self):
        f = reverse_example(self.spec(), a=1.0, delta=0.0)
        margin = convolve(f, f).values - f.values
        center = self.spec().points_per_axis // 2
        assert margin[center] < 0.0

    def test_dimension_and_delta_validation(self):
        with pytest.raises(ValueError):
            reverse_example(GridSpec(dim=2, extent=8.0, points_per_axis=64), 2.0, 0.0)
        for delta in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                reverse_example(self.spec(), 2.0, delta)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "build",
    [
        lambda spec: reverse_example(spec, 2.0, 0.0),
        lambda spec: sample(spec, sinc_counterexample(SincParams(a=0.4))),
        lambda spec: sample(spec, heavy_tail_density()),
    ],
    ids=["reverse", "sinc", "heavy_tail"],
)
def test_one_dimensional_families_refuse_higher_dimensions(build, dim):
    with pytest.raises(ValueError, match="is one-dimensional"):
        build(GridSpec(dim=dim, extent=4.0, points_per_axis=16))


class TestHeavyTail:
    def test_exact_unit_mass(self):
        # closed form: 2 * integral_0^inf (1+x)^-3 dx = 1
        spec = GridSpec(dim=1, extent=512.0, points_per_axis=2**16)
        g = sample(spec, heavy_tail_density())
        tail = (1.0 + 512.0) ** -2  # mass outside the window
        assert integrate(g) == pytest.approx(1.0 - tail, abs=1e-3)

    def test_truncated_variance_log_growth(self):
        def variance_oracle(r):
            # 2 * integral_0^r x^2 (1+x)^-3 dx in closed form
            return 2.0 * (
                math.log(1.0 + r) + 2.0 / (1.0 + r) - 0.5 / (1.0 + r) ** 2 - 1.5
            )

        for r in (32.0, 64.0, 128.0):
            spec = GridSpec(dim=1, extent=r, points_per_axis=2**14)
            g = sample(spec, heavy_tail_density())
            assert moment(g, 2.0) == pytest.approx(variance_oracle(r), rel=0.01)
        # doubling the window adds 2 log 2 in the limit
        grow = variance_oracle(256.0) - variance_oracle(128.0)
        assert grow == pytest.approx(2.0 * math.log(2.0), rel=0.02)

    def test_cdf_anchors(self):
        assert heavy_tail_cdf(0.0) == 0.5
        assert heavy_tail_cdf(np.array(1.0)) == pytest.approx(1.0 - 0.5 / 4.0)
        x = np.linspace(-50.0, 50.0, 1001)
        assert np.all(np.diff(heavy_tail_cdf(x)) > 0)

    def test_sampler_matches_cdf(self):
        rng = np.random.default_rng(7)
        n = 200_000
        draws = np.sort(heavy_tail_sampler(rng, n))
        target = heavy_tail_cdf(draws)
        hi = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        ks = max(np.abs(hi - target).max(), np.abs(lo - target).max())
        assert math.sqrt(n) * ks <= 1.63  # 1% critical value
        assert abs(np.median(draws)) <= 0.01
        assert abs(float(np.mean(np.sign(draws)))) <= 0.01

    def test_sampler_is_the_closed_form(self):
        v = np.random.default_rng(21).random((300, 7))
        expected = np.sign(v - 0.5) * ((1.0 - 2.0 * np.abs(v - 0.5)) ** -0.5 - 1.0)
        draws = heavy_tail_sampler(np.random.default_rng(21), (300, 7))
        assert draws.shape == (300, 7)
        assert draws.tobytes() == expected.tobytes()
