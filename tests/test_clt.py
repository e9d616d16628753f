import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from autoconv import clt, grids
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
from oracles import charfun_with_chirp_table


def normalized(spec, evaluator):
    raw = sample(spec, evaluator)
    return GridFunction(spec=spec, values=raw.values / integrate(raw))


def half_frequencies(spec):
    """m/(2L) for m = 0..N/2: the half layout."""
    return np.arange(spec.points_per_axis // 2 + 1) / (2.0 * spec.extent)


def direct_charfun(w, out_spec, n):
    """Oracle: the quadrature sum h sum_j w_j exp(-i 2 pi (k/sqrt(n)) x_j)
    in the half layout m = 0..N/2, one dense M x N kernel."""
    freqs = half_frequencies(out_spec) / math.sqrt(n)
    kernel = np.exp(-2j * np.pi * np.outer(freqs, w.spec.axis_nodes()))
    return (kernel @ w.values) * w.spec.spacing


def one_sided(x):
    """exp(-x) for x >= 0."""
    return np.where(x >= 0.0, np.exp(-x), 0.0)


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

    def test_clamp_warning_names_the_mass_it_removed(self):
        # The unit-variance box rings: its n = 2 density dips to about
        # -5.6e-5, while at n = 1 and n = 5 no value falls below -1e-8.
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**12)
        half = math.sqrt(3.0)
        w = grids.sample_with_mass(spec, lambda x: np.where(np.abs(x) <= half, 1.0, 0.0), 1.0)
        for n in (1, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rescaled_density(w, n)
        with pytest.warns(UserWarning, match="negative values down to") as record:
            out = rescaled_density(w, 2)
        assert out.values.min() == 0.0
        assert record[0].filename == __file__
        named = float(re.search(r"removes L1 mass (\S+)$", str(record[0].message)).group(1))
        # the full spectrum from the half layout, m = -N/2..N/2-1, through idft
        squared = _charfun_on_scaled_lattice(w, 2) ** 2
        full = np.concatenate((squared[:0:-1].conj(), squared[:-1]))
        raw = grids.idft(grids.Spectrum(spec=spec, values=full)).values
        assert raw.min() < -1e-5
        assert named == pytest.approx(np.maximum(-raw, 0.0).sum() * spec.cell_volume, rel=1e-9)

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
        freqs = half_frequencies(spec) / 2.0
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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    # ids kept stable for test history: dim-points-output extent-output points
    @pytest.mark.parametrize("points", [512, 8], ids=["1-512-8.0-512", "1-8-8.0-8"])
    def test_chirp_z_matches_direct_sum(self, points, n):
        spec = GridSpec(dim=1, extent=8.0, points_per_axis=points)
        # off center, so the transform has an imaginary part too
        w = normalized(spec, lambda x: np.exp(-((x - 1.0) ** 2)))
        got = _charfun_on_scaled_lattice(w, n)
        want = direct_charfun(w, spec, n)
        assert got.shape == (points // 2 + 1,)
        assert np.abs(want.imag).max() > 1e-3
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 16])
    # ids kept stable for test history: dim-points
    @pytest.mark.parametrize("points", [8, 512], ids=["1-8", "1-512"])
    def test_lowest_frequency_slot(self, points, n):
        # m = -N/2 has no partner -m on the grid: the half layout holds
        # X(N/2), past the grid's top frequency, in its last slot
        spec = GridSpec(dim=1, extent=8.0, points_per_axis=points)
        # one-sided: its transform 1/(1 + i 2 pi k) is still large there
        w = normalized(spec, one_sided)
        got = _charfun_on_scaled_lattice(w, n)[-1]
        want = direct_charfun(w, spec, n)[-1]
        assert abs(want.imag) > 1e-3
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 3, 16])
    @pytest.mark.parametrize(
        "rows",
        [
            # one-sided: x >= 0 only
            np.r_[32:50],
            # off center, with zero nodes between two blocks
            np.r_[5:17, 40:45],
            # a single node, off the origin
            np.r_[37],
            # touching j = -N/2
            np.r_[0:9],
        ],
        # ids kept stable for test history: dim-rows-cols, cols now unused
        ids=[f"1-rows{i}-cols{i}" for i in range(4)],
    )
    def test_support_slab_matches_direct_sum(self, rows, n):
        # the transform covers only the nodes from the first nonzero one to
        # the last; what it leaves out are exact zeros
        spec = GridSpec(dim=1, extent=8.0, points_per_axis=64)
        mask = np.zeros(spec.shape, dtype=bool)
        mask[rows] = True
        rng = np.random.default_rng(rows.size + 10 * n)
        values = np.where(mask, rng.uniform(0.5, 1.5, spec.shape), 0.0)
        w = GridFunction(spec=spec, values=values / (values.sum() * spec.cell_volume))
        got = _charfun_on_scaled_lattice(w, n)
        want = direct_charfun(w, spec, n)
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize(
        "kind, length", [("finite_variance", 196_608), ("infinite_variance", 393_216)]
    )
    def test_fft_lengths_at_the_cli_grid(self, monkeypatch, kind, length):
        # the uniform summand is nonzero on 28,377 of 2^18 nodes: its first-axis
        # FFTs need 28,377 + 131,073 - 1 points, the heavy tail's 2^18 + 131,073 - 1
        spec, evaluator = clt._summand(kind)[:2]
        w = normalized(spec, evaluator)
        assert np.count_nonzero(w.values) == (28_377 if kind == "finite_variance" else 2**18)
        lengths = []
        for name in ("fft", "ifft"):
            real = getattr(np.fft, name)

            def spy(a, n=None, *args, _real=real, **kwargs):
                out = _real(a, n, *args, **kwargs)
                lengths.append(out.shape[-1])
                return out

            monkeypatch.setattr(np.fft, name, spy)
        _charfun_on_scaled_lattice(w, 4)
        assert lengths == [length] * 3

    @pytest.mark.parametrize(
        "kind, points",
        [
            # the uniform summand spans j = -14,188..14,188: |m - j| < 145,261 for m <= 2^17
            ("finite_variance", 145_261),
            # the heavy tail's kernel spans 393,216 lags; the negative ones are copied
            ("infinite_variance", 262_145),
        ],
        ids=["finite_variance", "infinite_variance"],
    )
    def test_chirp_covers_only_the_indices_read(self, monkeypatch, kind, points):
        lengths = []
        real = np.exp

        def spy(x, *args, **kwargs):
            lengths.append(np.size(x))
            return real(x, *args, **kwargs)

        spec, evaluator = clt._summand(kind)[:2]
        w = normalized(spec, evaluator)
        monkeypatch.setattr(np, "exp", spy)
        _charfun_on_scaled_lattice(w, 4)
        assert lengths == [points]

    @pytest.mark.parametrize("n", [4, 64, 5, 256])
    @pytest.mark.parametrize("kind", ["finite_variance", "infinite_variance"])
    def test_cli_grid_bits_match_the_chirp_table(self, kind, n):
        # the CLI's clt.csv bytes are pinned to the formulation with one chirp table;
        # uint64 views tell -0.0 from 0.0
        spec, evaluator = clt._summand(kind)[:2]
        w = grids.sample_with_mass(spec, evaluator, 1.0)
        got = _charfun_on_scaled_lattice(w, n)
        assert np.array_equal(got.view(np.uint64), charfun_with_chirp_table(w, n).view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize(
        "rows",
        [
            np.r_[3:20],  # left of the origin
            np.r_[10:32],  # left of it, the last node at j = -1
            np.r_[32:60],  # from the origin rightwards
            np.r_[45:64],  # right of it: the twist and the lags below 0 reach past the lags >= 0
            np.r_[20:50],  # across it
            np.r_[0:64],  # the whole grid
            np.r_[37],  # a single node right of the origin
            np.r_[12],  # a single node left of it
            np.r_[32],  # a single node at it
            np.r_[0],  # the first node: the 65-point chirp table outgrows the 48-point FFT
            np.r_[63],  # the last node
        ],
    )
    def test_every_support_matches_the_chirp_table_bits(self, rows, n):
        spec = GridSpec(dim=1, extent=8.0, points_per_axis=64)
        values = np.zeros(spec.shape)
        values[rows] = np.random.default_rng(rows[0] + 100 * n).uniform(0.5, 1.5, rows.size)
        values[rows[1:-1:3]] = 0.0  # zeros inside the support too
        w = GridFunction(spec=spec, values=values / (values.sum() * spec.cell_volume))
        got = _charfun_on_scaled_lattice(w, n)
        assert np.array_equal(got.view(np.uint64), charfun_with_chirp_table(w, n).view(np.uint64))

    @pytest.mark.parametrize(
        "kind, bound",
        [
            # two complex buffers of 196,608 points and the 131,073-point twist are 8.4 MB
            ("finite_variance", 9.5e6),
            # two of 393,216 points and the twist are 14.7 MB; a separate chirp
            # table and an array per FFT took 23 MB
            ("infinite_variance", 16e6),
        ],
        ids=["finite_variance", "infinite_variance"],
    )
    def test_heavy_tail_density_allocates_two_fft_buffers(self, kind, bound):
        spec, evaluator = clt._summand(kind)[:2]
        w = grids.sample_with_mass(spec, evaluator, 1.0)
        tracemalloc.start()
        try:
            rescaled_density(w, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("n", [3, 16])
    def test_one_axis_matches_scipy_czt(self, n):
        signal = pytest.importorskip("scipy.signal")
        spec = GridSpec(dim=1, extent=4.0, points_per_axis=64)
        w = normalized(spec, lambda x: np.exp(-((x - 1.0) ** 2)))
        freqs = half_frequencies(spec) / math.sqrt(n)
        x0, h = spec.axis_nodes()[0], spec.spacing
        # X_m = sum_j w_j A^-j W^(j m) at nu_m = nu_0 + m dnu, x_j = x_0 + j h
        czt = signal.czt(
            w.values,
            m=freqs.size,
            w=np.exp(-2j * np.pi * (freqs[1] - freqs[0]) * h),
            a=np.exp(2j * np.pi * freqs[0] * h),
        )
        want = h * np.exp(-2j * np.pi * freqs * x0) * czt
        got = _charfun_on_scaled_lattice(w, n)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grids_beyond_one_dimension_refused(self, monkeypatch, dim):
        def never(*args):
            raise AssertionError("a grid with dim != 1 must be refused before any transform")

        monkeypatch.setattr(clt, "_charfun_on_scaled_lattice", never)
        spec = GridSpec(dim=dim, extent=8.0, points_per_axis=16)
        w = normalized(spec, gaussian_density())
        with pytest.raises(ValueError, match=f"one-dimensional, got a grid with dim={dim}"):
            rescaled_density(w, 4)

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

    @pytest.mark.parametrize("n", [-2, 4.5, 4.0, True])
    def test_n_must_be_a_positive_integer(self, n):
        spec = GridSpec(dim=1, extent=16.0, points_per_axis=2**10)
        w = normalized(spec, gaussian_density())
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {n!r}"):
            rescaled_density(w, n)

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

    @pytest.mark.parametrize("mc_samples", [0, 10])
    @pytest.mark.parametrize("seed", [-1, -5, 2.5, 3.0, True, False, "7", np.int64(-2)])
    def test_seed_must_be_none_or_a_nonnegative_integer(self, monkeypatch, seed, mc_samples):
        def never(*args):
            raise AssertionError("a bad seed must be refused before any work")

        monkeypatch.setattr(clt, "sample_with_mass", never)
        message = f"seed must be None or a nonnegative integer, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiments("finite_variance", (1.0,), mc_samples=mc_samples, seed=seed)

    @pytest.mark.parametrize("mc_samples", [-1, 2.5, 3.0, True, False, "7", None, np.int64(-2)])
    def test_mc_samples_must_be_a_nonnegative_integer(self, monkeypatch, mc_samples):
        def never(*args):
            raise AssertionError("a bad mc_samples must be refused before any work")

        monkeypatch.setattr(clt, "sample_with_mass", never)
        message = f"mc_samples must be a nonnegative integer (0 skips), got {mc_samples!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiments("finite_variance", (1.0,), mc_samples=mc_samples, seed=0)

    def test_numpy_integer_mc_samples_accepted(self):
        result = run_experiment("infinite_variance", n_list=(4,), mc_samples=np.int64(200), seed=1)
        assert result == run_experiment("infinite_variance", n_list=(4,), mc_samples=200, seed=1)

    @pytest.mark.parametrize("seed", [None, 0, np.int64(5)])
    def test_good_seeds_accepted(self, seed):
        result = run_experiment("infinite_variance", n_list=(4,), mc_samples=200, seed=seed)
        assert result.seed is seed and len(result.mc_values) == 1

    def test_n_list_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            run_experiment("finite_variance", n_list=(16, 4))

    @pytest.mark.parametrize("n", [4.5, math.nan, True, 0])
    def test_n_list_entries_must_be_positive_integers(self, n):
        with pytest.raises(ValueError, match=f"positive integers, got {n!r}"):
            run_experiment("finite_variance", n_list=(n, 16), mc_samples=0)


class TestRunExperiments:
    @pytest.mark.parametrize("kind", ["finite_variance", "infinite_variance"])
    def test_matches_one_run_per_radius(self, kind):
        radii = (2.0, 0.5, 2.0, 1.0)
        args = dict(n_list=(4, 7), mc_samples=5_000, seed=9)
        results = run_experiments(kind, radii, **args)
        assert [r.ball_radius for r in results] == list(radii)
        for radius, result in zip(radii, results):
            assert result == run_experiment(kind, ball_radius=radius, **args)

    def test_builds_the_node_radii_once(self, monkeypatch):
        # one radii array serves every ball mass and phi of the run
        calls = []
        real = GridSpec.radii

        def counted(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(GridSpec, "radii", counted)
        results = run_experiments("finite_variance", (0.5, 1.0, 2.0), n_list=(1, 4), mc_samples=0)
        assert len(calls) == 1
        summand = grids.sample_with_mass(calls[0], clt._summand("finite_variance")[1], 1.0)
        dens = rescaled_density(summand, 4)
        monkeypatch.undo()
        assert [r.p_values[1] for r in results] == [ball_mass(dens, r) for r in (0.5, 1.0, 2.0)]
        assert results[0].phi_values[1] == phi_functional(dens)

    def test_chunking_leaves_monte_carlo_unchanged(self, monkeypatch):
        args = dict(n_list=(4, 16), mc_samples=1_001, seed=4)
        whole = run_experiments("infinite_variance", (0.5, 2.0), **args)
        # 9 and 2 replicates per chunk; neither divides 1001
        monkeypatch.setattr(clt, "_MC_CHUNK", 37)
        chunked = run_experiments("infinite_variance", (0.5, 2.0), **args)
        assert [r.mc_values for r in chunked] == [r.mc_values for r in whole]
        assert [r.mc_stderr for r in chunked] == [r.mc_stderr for r in whole]
        # one row per chunk, a row of n = 16 drawn in blocks of 5, 5, 5 and 1
        monkeypatch.setattr(clt, "_MC_CHUNK", 5)
        blocked = run_experiments("infinite_variance", (0.5, 2.0), **args)
        assert [r.mc_values for r in blocked] == [r.mc_values for r in whole]
        # 70,001 replicates of n = 4 take two default chunks, one of the
        # former 1,000,000 draws
        assert 4 * 70_001 > clt._MC_CHUNK
        draws = (heavy_tail_sampler, (0.5, 2.0), (4, 16), 70_001, 4, threading.Event())
        monkeypatch.undo()
        default = clt._monte_carlo(*draws)
        monkeypatch.setattr(clt, "_MC_CHUNK", 1_000_000)
        assert clt._monte_carlo(*draws) == default

    # a chunk of rows, a single row, a short block and the (1, _MC_CHUNK) block
    # that draw takes from a row longer than _MC_CHUNK
    @pytest.mark.parametrize("shape", [(1024, 256), (3, 7), (1, 5), (1, 2**18)])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_uniform_sampler_is_rng_uniform_bit_for_bit(self, seed, shape):
        sampler = clt._summand("finite_variance")[2]
        half = math.sqrt(3.0)
        got = sampler(np.random.default_rng(seed), shape)
        want = np.random.default_rng(seed).uniform(-half, half, shape)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # 9 and 2 rows per chunk; one row per chunk, a row of n = 16 in blocks of 5, 5, 5 and 1
    @pytest.mark.parametrize("mc_chunk", [37, 5])
    def test_chunk_order_leaves_monte_carlo_unchanged(self, monkeypatch, mc_chunk):
        monkeypatch.setattr(clt, "_MC_CHUNK", mc_chunk)
        draws, stop = (heavy_tail_sampler, (0.5, 2.0), (4, 16), 1_001, 4), threading.Event()
        chunks = clt._MonteCarlo(*draws)
        assert chunks.chunks[-1] == (1, 16, 1_000, 1)  # the last row of n = 16, drawn first
        backwards = [chunks.draw(chunk, stop) for chunk in reversed(chunks.chunks)]
        assert chunks.result(backwards[::-1]) == clt._monte_carlo(*draws, stop)

    @pytest.mark.parametrize("radii", [(), (-1.0,), (0.0,), (1.0, math.nan), (math.inf,)])
    def test_radii_must_be_finite_and_positive(self, radii):
        with pytest.raises(ValueError, match="radii"):
            run_experiments("finite_variance", radii, n_list=(4,), mc_samples=0)

    def test_n_list_must_not_be_empty(self, monkeypatch):
        def never(*args):
            raise AssertionError("an empty n_list must be refused before any work")

        monkeypatch.setattr(clt, "sample_with_mass", never)
        with pytest.raises(ValueError, match="n_list must be non-empty and strictly increasing"):
            run_experiments("finite_variance", (1.0,), n_list=(), mc_samples=0)

    def test_grid_half_warnings_reach_the_caller(self):
        # the unit-variance box rings below the clamp threshold at n = 2
        with pytest.warns(UserWarning, match="negative values down to"):
            run_experiments("finite_variance", (1.0,), n_list=(1, 2, 3), mc_samples=0)


def set_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestOverlap:
    """The Monte Carlo half runs on a worker thread, beside the grid half when cores allow."""

    @pytest.mark.parametrize("mc_samples", [0, 3_000])
    @pytest.mark.parametrize("kind", ["finite_variance", "infinite_variance"])
    def test_results_do_not_depend_on_overlap(self, monkeypatch, kind, mc_samples):
        drawn = []  # (chunk, thread)
        worker_drew = threading.Event()
        real = clt._MonteCarlo.draw

        def spy(self, chunk, stop):
            drawn.append((chunk[1:], threading.current_thread()))
            if threading.current_thread() is not threading.main_thread():
                worker_drew.set()
            return real(self, chunk, stop)

        density = clt.rescaled_density

        def after_a_worker_draw(w, n):
            # with two cores, the worker starts drawing before the first density
            assert cores == 1 or not mc_samples or worker_drew.wait(timeout=60)
            return density(w, n)

        n_list, radii, seed = (4, 9), (1.0, 0.5, 1.0), 21
        grid_only = run_experiments(kind, radii, n_list, mc_samples=0, seed=seed)
        sampler = clt._summand(kind)[2]
        monkeypatch.setattr(clt._MonteCarlo, "draw", spy)
        monkeypatch.setattr(clt, "rescaled_density", after_a_worker_draw)
        for cores in (2, 1):
            set_cores(monkeypatch, cores)
            drawn.clear()
            worker_drew.clear()
            results = run_experiments(kind, radii, n_list, mc_samples, seed)
            assert [r.p_values for r in results] == [r.p_values for r in grid_only]
            assert [r.phi_values for r in results] == [r.phi_values for r in grid_only]
            if not mc_samples:
                assert drawn == [] and results[0].mc_values == ()
                continue
            # each n fits one chunk of 3,000 rows
            assert [chunk for chunk, _ in drawn] == [(4, 0, 3_000), (9, 0, 3_000)]
            if cores == 1:
                assert all(thread is threading.main_thread() for _, thread in drawn)
            else:
                assert drawn[0][1] is not threading.main_thread()
            values, errors = clt._monte_carlo(
                sampler, radii, n_list, mc_samples, seed, threading.Event()
            )
            assert [r.mc_values for r in results] == [tuple(v) for v in values]
            assert [r.mc_stderr for r in results] == [tuple(e) for e in errors]

    def test_both_threads_draw(self, monkeypatch):
        set_cores(monkeypatch, 2)
        monkeypatch.setattr(clt, "_MC_CHUNK", 37)
        monkeypatch.setattr(clt, "rescaled_density", lambda w, n: w)
        worker_waits, main_drew = threading.Event(), threading.Event()
        threads = []

        def sampler(rng, size):
            # the worker takes a chunk, then holds back until the caller has drawn one
            thread = threading.current_thread()
            if thread is threading.main_thread():
                assert worker_waits.wait(timeout=60)
            else:
                worker_waits.set()
                assert main_drew.wait(timeout=60)
            values = heavy_tail_sampler(rng, size)
            threads.append(thread)
            if thread is threading.main_thread():
                main_drew.set()
            return values

        monkeypatch.setattr(clt, "heavy_tail_sampler", sampler)
        n_list, radii, mc_samples, seed = (4, 16), (0.5, 2.0), 1_001, 6
        before = threading.active_count()
        results = run_experiments("infinite_variance", radii, n_list, mc_samples, seed)
        assert threading.active_count() == before
        assert len(threads) == 112 + 501  # 1,001 rows in chunks of 9, then of 2
        assert threading.main_thread() in threads and len(set(threads)) == 2
        values, errors = clt._monte_carlo(
            heavy_tail_sampler, radii, n_list, mc_samples, seed, threading.Event()
        )
        assert [r.mc_values for r in results] == [tuple(v) for v in values]
        assert [r.mc_stderr for r in results] == [tuple(e) for e in errors]

    def test_concurrent_drains_lose_no_count(self, monkeypatch):
        # 8 threads share 602 one-row chunks, n = 16 in 4 blocks: a chunk lost or
        # drawn twice changes a count
        set_cores(monkeypatch, 8)
        monkeypatch.setattr(clt, "_MC_CHUNK", 5)
        monkeypatch.setattr(clt, "rescaled_density", lambda w, n: w)
        threads, worker_drew, real = set(), threading.Event(), clt._MonteCarlo.draw

        def spy(self, chunk, stop):
            # the calling thread draws only once a worker has
            if threading.current_thread() is threading.main_thread():
                assert worker_drew.wait(timeout=60)
            else:
                worker_drew.set()
            threads.add(threading.current_thread())
            return real(self, chunk, stop)

        monkeypatch.setattr(clt._MonteCarlo, "draw", spy)
        n_list, radii, mc_samples, seed = (4, 16), (0.5, 2.0), 301, 8
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_experiments("infinite_variance", radii, n_list, mc_samples, seed)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(threads) > 1
        values, errors = clt._monte_carlo(
            heavy_tail_sampler, radii, n_list, mc_samples, seed, threading.Event()
        )
        assert [r.mc_values for r in results] == [tuple(v) for v in values]
        assert [r.mc_stderr for r in results] == [tuple(e) for e in errors]

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

    def test_stop_ends_a_long_row_before_its_next_block(self, monkeypatch):
        monkeypatch.setattr(clt, "_MC_CHUNK", 4)
        stop = threading.Event()
        sizes = []

        def sampler(rng, size):
            sizes.append(size)
            stop.set()
            return heavy_tail_sampler(rng, size)

        assert clt._monte_carlo(sampler, (1.0,), (16,), 3, 5, stop) is None
        assert sizes == [(1, 4)]

    def test_chunks_hold_at_most_mc_chunk_draws(self, monkeypatch):
        set_cores(monkeypatch, 1)  # one thread draws the chunks in list order
        sizes = []

        def sampler(rng, size):
            sizes.append(size)
            return heavy_tail_sampler(rng, size)

        monkeypatch.setattr(clt, "heavy_tail_sampler", sampler)
        n_list, mc_samples = (4, 16), 300_001
        run_experiments("infinite_variance", (1.0,), n_list, mc_samples, seed=3)
        assert max(rows * n for rows, n in sizes) <= clt._MC_CHUNK
        assert sum(rows * n for rows, n in sizes) == mc_samples * sum(n_list)
        # past _MC_CHUNK, a chunk is one row of n draws, drawn in blocks of _MC_CHUNK
        sizes.clear()
        monkeypatch.setattr(clt, "_MC_CHUNK", 64)
        run_experiments("infinite_variance", (1.0,), (16, 100), 50, seed=3)
        assert sizes == [(4, 16)] * 12 + [(2, 16)] + [(1, 64), (1, 36)] * 50
        assert max(rows * n for rows, n in sizes) <= clt._MC_CHUNK
