import math

import numpy as np
import pytest

from autoconv.analyze import (
    critical_moment_theorem_demo,
    exp_tail_fit,
    moment_scan,
    positivity_check,
    recovered_residual,
    scan_residual,
    verify,
)
from autoconv.construct import build_series, bump_residual
from autoconv.families import (
    PoissonParams,
    SincParams,
    gaussian_density,
    poisson,
    sinc_counterexample,
)
from autoconv.grids import GridFunction, GridSpec, sample, sample_with_mass


def poisson_sample(a, L=100.0, N=2**14):
    spec = GridSpec(dim=1, extent=L, points_per_axis=N)
    return sample(spec, poisson(PoissonParams(a=a, t=1.0)))


def gaussian_residual(mass, L=40.0, N=2**12):
    spec = GridSpec(dim=1, extent=L, points_per_axis=N)
    return sample_with_mass(spec, gaussian_density(), mass)


class TestVerify:
    def test_zero_function(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        report = verify(GridFunction(spec=spec, values=np.zeros(spec.shape)))
        assert report.verdict == "solution"
        assert report.solution_mass == 0.0
        assert report.residual_mass == 0.0
        assert report.mass_relation_gap == 0.0

    def test_poisson_half_is_solution(self):
        report = verify(poisson_sample(0.5))
        assert report.verdict == "solution"
        assert report.solution_mass == pytest.approx(0.5, rel=0.02)
        assert report.mass_relation_gap <= 2e-2

    def test_poisson_supercritical_is_violation(self):
        report = verify(poisson_sample(0.6))
        assert report.verdict == "violation"
        # the tails carry the violation for this family, never the core
        assert abs(report.worst_location[0]) > 5.0

    def test_round_trip_mass(self):
        u = gaussian_residual(0.1)
        build = build_series(u, epsilon=1e-5)
        # A truncated build misses its series tail, so its residual dips
        # negative by up to the certified sup bound; verify against it.
        report = verify(build.solution, tolerance=build.tail_sup + 1e-9)
        assert report.verdict == "solution"
        assert report.residual_mass == pytest.approx(0.1, abs=1e-3)
        recovered = recovered_residual(build.solution)
        err = float(np.abs(recovered.values - u.values).sum() * u.spec.spacing)
        assert err <= build.tail_l1 + 1e-3

    def test_tolerance_validation(self):
        f = poisson_sample(0.5, L=50.0, N=2**10)
        for tolerance in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive"):
                verify(f, tolerance=tolerance)

    def test_scan_of_given_residual_is_verify(self):
        f = poisson_sample(0.6, L=50.0, N=2**10)
        assert scan_residual(f, recovered_residual(f)) == verify(f)
        with pytest.raises(ValueError, match="specs"):
            scan_residual(f, recovered_residual(poisson_sample(0.6, L=50.0, N=2**11)))


class TestPositivityCheck:
    def test_zero(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        report = positivity_check(GridFunction(spec=spec, values=np.zeros(spec.shape)))
        assert report.nonnegative

    def test_series_build_nonnegative(self):
        build = build_series(gaussian_residual(0.2), epsilon=1e-4)
        assert positivity_check(build.solution).nonnegative

    def test_sinc_sign_changing(self):
        spec = GridSpec(dim=1, extent=64.0, points_per_axis=2**13)
        g = sample(spec, sinc_counterexample(SincParams(a=1.0)))
        report = positivity_check(g)
        assert not report.nonnegative
        # deepest negative lobe of sin(2 pi x)/(pi x) sits in (1/2, 1)
        assert 0.5 < abs(report.location[0]) < 1.0


class TestMomentScan:
    def test_poisson_first_moment_growing(self):
        f = poisson_sample(0.5, L=640.0, N=2**16)
        report = moment_scan(f, 1.0, levels=4)
        assert report.classification == "growing"
        law = math.log(2.0) / math.pi
        for inc in report.growth_increments[-2:]:
            assert inc == pytest.approx(law, rel=0.15)

    def test_poisson_half_moment_saturating(self):
        f = poisson_sample(0.5, L=640.0, N=2**16)
        report = moment_scan(f, 0.5, levels=5)
        assert report.classification == "saturating"

    def test_subcritical_poisson_still_slow_decay(self):
        # the kernel family has |x|^-2 tails at every mass, so its first
        # moment grows even below the critical mass; fast decay below the
        # critical mass is a property of compact-bump builds instead
        f = poisson_sample(0.3, L=640.0, N=2**16)
        assert moment_scan(f, 1.0, levels=4).classification == "growing"

    def test_gaussian_first_moment_saturating(self):
        spec = GridSpec(dim=1, extent=32.0, points_per_axis=2**12)
        g = sample(spec, gaussian_density())
        report = moment_scan(g, 1.0, levels=5)
        assert report.classification == "saturating"
        assert report.values[-1] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-3)

    def test_zero_function_saturating(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        report = moment_scan(GridFunction(spec=spec, values=np.zeros(spec.shape)), 1.0)
        assert report.classification == "saturating"
        assert all(v == 0.0 for v in report.values)

    def test_values_nondecreasing(self):
        report = moment_scan(poisson_sample(0.5), 1.0, levels=5)
        assert np.all(np.diff(report.values) >= 0.0)

    def test_validation(self):
        f = poisson_sample(0.5, L=50.0, N=2**10)
        for order in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                moment_scan(f, order)
        with pytest.raises(ValueError):
            moment_scan(f, 1.0, levels=2)
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        signed = GridFunction(spec=spec, values=np.full(spec.shape, -1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            moment_scan(signed, 1.0)


class TestExpTailFit:
    def test_exact_exponential(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**12)
        g = sample(spec, lambda x: np.exp(-np.abs(x)))
        fit = exp_tail_fit(g, inner=2.0)
        assert fit.rate == pytest.approx(-1.0, abs=1e-3)
        assert fit.residual <= 1e-6

    def test_power_law_not_exponential(self):
        fit = exp_tail_fit(poisson_sample(0.5), inner=2.0)
        # a |x|^-2 profile fits badly: rate drifts to zero, residual blows up
        assert fit.rate > -0.1
        assert fit.residual > 0.4

    def test_compact_bump_build_decays(self):
        spec = GridSpec(dim=1, extent=12.0, points_per_axis=2**11)
        build = build_series(bump_residual(spec, 0.125), epsilon=1e-7)
        fit = exp_tail_fit(build.solution, inner=2.0)
        assert fit.rate <= -0.1
        assert fit.residual <= 0.5

    def test_nonpositive_region_rejected(self):
        spec = GridSpec(dim=1, extent=64.0, points_per_axis=2**13)
        g = sample(spec, sinc_counterexample(SincParams(a=1.0)))
        with pytest.raises(ValueError, match="onpositive"):
            exp_tail_fit(g, inner=2.0)

    def test_region_validation(self):
        g = poisson_sample(0.5, L=50.0, N=2**10)
        with pytest.raises(ValueError):
            exp_tail_fit(g, inner=0.0)
        with pytest.raises(ValueError):
            exp_tail_fit(g, inner=60.0)

    def test_region_with_fewer_than_four_nodes_rejected(self):
        # on [-4, 4) with h = 1 the annulus 3 <= |x| <= 3.6 holds x = -3 and 3 only
        g = poisson_sample(0.5, L=4.0, N=8)
        with pytest.raises(ValueError, match="fewer than 4 nodes"):
            exp_tail_fit(g, inner=3.0)


class TestCriticalMomentDemo:
    def test_critical_bump(self):
        spec = GridSpec(dim=1, extent=64.0, points_per_axis=2**12)
        u = bump_residual(spec, 0.25)
        demo = critical_moment_theorem_demo(u, levels=4, epsilon=0.01)
        assert demo.regime == "critical"
        assert demo.reports[1.0].classification == "growing"
        assert demo.reports[0.5].classification == "saturating"

    def test_subcritical_gaussian(self):
        u = gaussian_residual(3.0 / 16.0)
        demo = critical_moment_theorem_demo(u, levels=4)
        assert demo.regime == "subcritical"
        assert demo.reports[0.5].classification == "saturating"
        assert demo.reports[2.0].classification == "saturating"

    def test_zero_residual(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        demo = critical_moment_theorem_demo(
            GridFunction(spec=spec, values=np.zeros(spec.shape))
        )
        for report in demo.reports.values():
            assert all(v == 0.0 for v in report.values)

    def test_asymmetric_rejected(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        u = sample_with_mass(spec, lambda x: np.exp(-((x - 1.0) ** 2)), 0.1)
        with pytest.raises(ValueError, match="symmetric"):
            critical_moment_theorem_demo(u)

    def test_negative_rejected(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        with pytest.raises(ValueError, match="nonnegative"):
            critical_moment_theorem_demo(
                GridFunction(spec=spec, values=np.full(spec.shape, -0.1))
            )
