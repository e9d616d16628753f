import math
import os
import threading

import numpy as np
import pytest

from autoconv import clt
from autoconv.clt import (
    _charfun_on_scaled_lattice,
    ball_mass,
    phi_functional,
    rescaled_density,
    run_experiment,
    run_experiments,
)
from autoconv.families import gaussian_density, heavy_tail_density, heavy_tail_sampler
from autoconv.grids import GridFunction, GridSpec, integrate, sample


def normalized(spec, evaluator):
    raw = sample(spec, evaluator)
    return GridFunction(spec=spec, values=raw.values / integrate(raw))


def direct_charfun(w, out_spec, n):
    """Oracle: the quadrature sum h^d sum_j w_j exp(-i 2 pi (k/sqrt(n)) . x_j),
    one dense N x M kernel per axis."""
    freqs = out_spec.axis_frequencies() / math.sqrt(n)
    kernel = np.exp(-2j * np.pi * np.outer(freqs, w.spec.axis_nodes()))
    values = w.values.astype(np.complex128)
    for axis in range(w.spec.dim):
        values = np.moveaxis(np.tensordot(kernel, values, axes=([1], [axis])), 0, axis)
    return values * w.spec.cell_volume


def uniform_density(spec):
    half = math.sqrt(3.0)
    return normalized(
        spec, lambda x: np.where(np.abs(x) <= half, 1.0 / (2.0 * half), 0.0)
    )


@pytest.fixture(scope="module")
def uniform_fine():
    return uniform_density(GridSpec(dim=1, extent=16.0, points_per_axis=2**19))


@pytest.fixture(scope="module")
def heavy():
    return normalized(
        GridSpec(dim=1, extent=512.0, points_per_axis=2**18), heavy_tail_density()
    )


class TestRescaledDensity:
    def test_identity_at_n_one(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**12)
        w = normalized(spec, gaussian_density())
        out = rescaled_density(w, 1)
        assert np.abs(out.values - w.values).max() <= 1e-8

    def test_unresolved_density_rejected(self):
        # A point mass one node off the origin moves to sqrt(2) nodes at
        # n = 2, between nodes: its powered transform is not conjugate
        # symmetric, and the checked inverse refuses it.
        spec = GridSpec(dim=1, extent=8.0, points_per_axis=64)
        values = np.zeros(spec.shape)
        values[spec.points_per_axis // 2 + 1] = 1.0 / spec.spacing
        with pytest.raises(ValueError, match="conjugate symmetric"):
            rescaled_density(GridFunction(spec=spec, values=values), 2)

    def test_uniform_converges_to_gaussian(self, uniform_fine):
        out = rescaled_density(uniform_fine, 64)
        target = sample(uniform_fine.spec, gaussian_density())
        assert np.abs(out.values - target.values).max() <= 1e-3

    def test_heavy_tail_flattens(self, heavy):
        center = heavy.spec.points_per_axis // 2
        peaks = []
        for n in (4, 16, 64, 256):
            out = rescaled_density(heavy, n)
            peaks.append(out.values[center])
            assert 0.98 <= integrate(out) <= 1.02
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_square_n_matches_direct_quadrature(self):
        spec = GridSpec(dim=1, extent=8.0, points_per_axis=256)
        w = normalized(spec, gaussian_density())
        fast = _charfun_on_scaled_lattice(w, 4)
        nodes = spec.axis_nodes()
        freqs = spec.axis_frequencies() / 2.0
        direct = (
            np.exp(-2j * np.pi * np.outer(freqs, nodes)) @ w.values
        ) * spec.spacing
        assert np.abs(fast - direct).max() <= 1e-12

    def test_non_square_n_gaussian_fixed_point(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        w = normalized(spec, gaussian_density())
        out = rescaled_density(w, 10)
        assert integrate(out) == pytest.approx(1.0, abs=1e-6)
        # n i.i.d. copies rescale a Gaussian back to itself
        target = sample(spec, gaussian_density())
        assert np.abs(out.values - target.values).max() <= 1e-6

    @pytest.mark.parametrize("n", [4, 5])
    def test_two_dimensional_gaussian_fixed_point(self, n):
        # the standard Gaussian is invariant under the rescaled n-fold sum,
        # for square and non-square n alike
        spec = GridSpec(dim=2, extent=12.0, points_per_axis=128)
        w = normalized(spec, gaussian_density())
        out = rescaled_density(w, n)
        target = sample(spec, gaussian_density())
        assert np.abs(out.values - target.values).max() <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize(
        "dim, points, out_extent, out_points", [(1, 512, 8.0, 512), (2, 32, 8.0, 32)]
    )
    def test_chirp_z_matches_direct_sum(self, dim, points, out_extent, out_points, n):
        spec = GridSpec(dim=dim, extent=8.0, points_per_axis=points)
        # off-center along x1, so the transform has an imaginary part too
        w = normalized(spec, lambda *x: np.exp(-((x[0] - 1.0) ** 2) - sum(c * c for c in x[1:])))
        out_spec = GridSpec(dim=dim, extent=out_extent, points_per_axis=out_points)
        got = _charfun_on_scaled_lattice(w, n)
        want = direct_charfun(w, out_spec, n)
        assert got.shape == out_spec.shape
        assert np.abs(want.imag).max() > 1e-3
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 16])
    def test_one_axis_matches_scipy_czt(self, n):
        signal = pytest.importorskip("scipy.signal")
        spec = GridSpec(dim=1, extent=4.0, points_per_axis=64)
        w = normalized(spec, lambda x: np.exp(-((x - 1.0) ** 2)))
        freqs = spec.axis_frequencies() / math.sqrt(n)
        x0, h = spec.axis_nodes()[0], spec.spacing
        # X_m = sum_j w_j A^-j W^(j m) at nu_m = nu_0 + m dnu, x_j = x_0 + j h
        czt = signal.czt(
            w.values,
            m=spec.points_per_axis,
            w=np.exp(-2j * np.pi * (freqs[1] - freqs[0]) * h),
            a=np.exp(2j * np.pi * freqs[0] * h),
        )
        want = h * np.exp(-2j * np.pi * freqs * x0) * czt
        got = _charfun_on_scaled_lattice(w, n)
        assert np.abs(got - want).max() <= 1e-12

    def test_mass_precondition(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        w = sample(spec, gaussian_density())
        bad = GridFunction(spec=spec, values=0.9 * w.values)
        with pytest.raises(ValueError, match="probability density"):
            rescaled_density(bad, 4)

    def test_n_validation(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        w = normalized(spec, gaussian_density())
        with pytest.raises(ValueError):
            rescaled_density(w, 0)

    def test_mass_drift_warns(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        w = normalized(spec, gaussian_density())
        # mass 1 - 9e-5 passes the input gate but decays to (1-9e-5)^256
        off = GridFunction(spec=spec, values=(1.0 - 9e-5) * w.values)
        with pytest.warns(UserWarning, match="deviates"):
            rescaled_density(off, 256)


class TestBallMassAndPhi:
    def test_gaussian_ball_mass(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**17)
        g = sample(spec, gaussian_density())
        assert ball_mass(g, 1.0) == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-4)

    def test_two_dimensional_gaussian_ball_mass(self):
        # P(|X| <= 1) = 1 - exp(-1/2) in the plane; the lattice disc is off by O(h)
        spec = GridSpec(dim=2, extent=8.0, points_per_axis=512)
        g = sample(spec, gaussian_density())
        assert ball_mass(g, 1.0) == pytest.approx(1.0 - math.exp(-0.5), abs=2e-3)

    def test_radius_beyond_window_returns_total_mass(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**12)
        g = sample(spec, gaussian_density())
        assert ball_mass(g, 100.0) == pytest.approx(integrate(g), rel=1e-14)

    def test_phi_of_gaussian(self):
        # independent quadrature oracle for integral min(1,|x|) gamma(x) dx
        x = np.linspace(-12.0, 12.0, 2_000_001)
        gauss = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        y = np.minimum(1.0, np.abs(x)) * gauss
        oracle = float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)  # trapezoid rule
        assert oracle == pytest.approx(0.6312541, abs=1e-6)
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**14)
        g = sample(spec, gaussian_density())
        assert phi_functional(g) == pytest.approx(oracle, abs=2e-3)

    def test_phi_of_point_mass(self):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**12)
        column = np.zeros(spec.shape)
        column[spec.points_per_axis // 2] = 1.0 / spec.spacing
        assert phi_functional(GridFunction(spec=spec, values=column)) == 0.0

    def test_phi_increases_toward_one_for_heavy_tail(self, heavy):
        values = [
            phi_functional(rescaled_density(heavy, n)) for n in (4, 64, 256)
        ]
        assert values[0] < values[1] < values[2] < 1.0
        assert values[2] > 0.75


class TestRunExperiment:
    def test_finite_variance_limit(self):
        result = run_experiment("finite_variance", mc_samples=50_000, seed=11)
        target = math.erf(1.0 / math.sqrt(2.0))
        assert result.gaussian_target == pytest.approx(target, rel=1e-15)
        assert abs(result.p_values[-1] - target) <= 0.01
        # approach is monotone for n >= 16
        errs = [abs(p - target) for p in result.p_values[1:]]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        for p, mc, se in zip(result.p_values, result.mc_values, result.mc_stderr):
            assert abs(p - mc) <= 3.0 * se + 1e-2

    def test_infinite_variance_escape(self):
        result = run_experiment("infinite_variance", mc_samples=50_000, seed=13)
        ps = result.p_values
        assert all(0.0 <= p <= 1.0 + 1e-6 for p in ps)
        assert all(a > b for a, b in zip(ps, ps[1:]))
        for p, mc, se in zip(ps, result.mc_values, result.mc_stderr):
            assert abs(p - mc) <= 3.0 * se + 1e-2
        assert result.variance_class == "infinite"

    def test_no_monte_carlo(self):
        result = run_experiment("finite_variance", n_list=(4, 16), mc_samples=0)
        assert result.mc_values == ()
        assert result.mc_stderr == ()
        assert len(result.p_values) == 2

    def test_determinism(self):
        a = run_experiment("infinite_variance", n_list=(4, 16), mc_samples=20_000, seed=5)
        b = run_experiment("infinite_variance", n_list=(4, 16), mc_samples=20_000, seed=5)
        assert a.mc_values == b.mc_values
        assert a.p_values == b.p_values

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="w_kind"):
            run_experiment("bimodal")

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="mc_samples"):
            run_experiment("finite_variance", n_list=(4,), mc_samples=-3)

    def test_n_list_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            run_experiment("finite_variance", n_list=(16, 4))


class TestRunExperiments:
    @pytest.mark.parametrize("kind", ["finite_variance", "infinite_variance"])
    def test_matches_one_run_per_radius(self, kind):
        radii = (2.0, 0.5, 2.0, 1.0)
        args = dict(n_list=(4, 7), mc_samples=5_000, seed=9)
        results = run_experiments(kind, radii, **args)
        assert [r.ball_radius for r in results] == list(radii)
        for radius, result in zip(radii, results):
            assert result == run_experiment(kind, ball_radius=radius, **args)

    def test_chunking_leaves_monte_carlo_unchanged(self, monkeypatch):
        args = dict(n_list=(4, 16), mc_samples=1_001, seed=4)
        whole = run_experiments("infinite_variance", (0.5, 2.0), **args)
        # 9 and 2 replicates per chunk; neither divides 1001
        monkeypatch.setattr(clt, "_MC_CHUNK", 37)
        chunked = run_experiments("infinite_variance", (0.5, 2.0), **args)
        assert [r.mc_values for r in chunked] == [r.mc_values for r in whole]
        assert [r.mc_stderr for r in chunked] == [r.mc_stderr for r in whole]

    @pytest.mark.parametrize("radii", [(), (-1.0,), (0.0,), (1.0, math.nan), (math.inf,)])
    def test_radii_must_be_finite_and_positive(self, radii):
        with pytest.raises(ValueError, match="radii"):
            run_experiments("finite_variance", radii, n_list=(4,), mc_samples=0)


def set_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestOverlap:
    """The Monte Carlo half runs on a worker thread when cores allow."""

    @pytest.mark.parametrize("mc_samples", [0, 3_000])
    @pytest.mark.parametrize("kind", ["finite_variance", "infinite_variance"])
    def test_results_do_not_depend_on_overlap(self, monkeypatch, kind, mc_samples):
        threads = []
        real = clt._monte_carlo

        def spy(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(clt, "_monte_carlo", spy)
        args = dict(n_list=(4, 9), mc_samples=mc_samples, seed=21)
        radii = (1.0, 0.5, 1.0)
        set_cores(monkeypatch, 2)
        overlapped = run_experiments(kind, radii, **args)
        on_worker = list(threads)
        set_cores(monkeypatch, 1)
        threads.clear()
        serial = run_experiments(kind, radii, **args)
        assert overlapped == serial
        if mc_samples:
            assert on_worker[0] is not threading.main_thread()
            assert threads == [threading.main_thread()]
        else:
            assert on_worker == threads == []
            assert serial[0].mc_values == ()

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert clt._usable_cores() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert clt._usable_cores() == 4

    def test_grid_error_stops_and_joins_the_worker(self, monkeypatch, heavy):
        set_cores(monkeypatch, 2)
        started = threading.Event()
        chunks = []

        def sampler(rng, size):
            chunks.append(size)
            started.set()
            return heavy_tail_sampler(rng, size)

        def density(w, n):
            if n > 4:
                assert started.wait(timeout=60)
                raise ArithmeticError("grid half failed")
            return heavy

        monkeypatch.setattr(clt, "heavy_tail_sampler", sampler)
        monkeypatch.setattr(clt, "rescaled_density", density)
        mc_samples = 100_000
        n_list = (4, 16, 64, 256)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="grid half failed"):
            run_experiments("infinite_variance", (1.0,), n_list, mc_samples, seed=3)
        assert threading.active_count() == before
        full = sum(-(-mc_samples // (clt._MC_CHUNK // n)) for n in n_list)
        assert 1 <= len(chunks) < full

    @pytest.mark.parametrize("cores", [1, 2])
    def test_sampler_error_reaches_the_caller(self, monkeypatch, cores):
        set_cores(monkeypatch, cores)

        def sampler(rng, size):
            raise FloatingPointError("sampler failed")

        monkeypatch.setattr(clt, "heavy_tail_sampler", sampler)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="sampler failed"):
            run_experiments("infinite_variance", (1.0,), (4,), mc_samples=10, seed=3)
        assert threading.active_count() == before

    def test_chunks_hold_at_most_mc_chunk_draws(self, monkeypatch):
        sizes = []

        def sampler(rng, size):
            sizes.append(size)
            return heavy_tail_sampler(rng, size)

        monkeypatch.setattr(clt, "heavy_tail_sampler", sampler)
        n_list, mc_samples = (4, 16), 300_001
        run_experiments("infinite_variance", (1.0,), n_list, mc_samples, seed=3)
        assert max(rows * n for rows, n in sizes) <= clt._MC_CHUNK
        assert sum(rows * n for rows, n in sizes) == mc_samples * sum(n_list)
