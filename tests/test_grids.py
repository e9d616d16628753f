import itertools
import json
import math

import numpy as np
import pytest

from autoconv import families, grids
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
from oracles import write_rows_per_cell


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
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8), (1, 8), (2, 8)])
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

    def test_mass_guard_catches_corrupt_inverse(self, gauss, monkeypatch):
        real_irfftn = np.fft.irfftn

        def corrupt(*args, **kwargs):
            return real_irfftn(*args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr("autoconv.grids.np.fft.irfftn", corrupt)
        with pytest.raises(RuntimeError, match="FFT defect"):
            convolve(gauss, gauss)

    def test_mass_guard_catches_nan_inverse(self, gauss, monkeypatch):
        real_irfftn = np.fft.irfftn

        def corrupt(*args, **kwargs):
            full = real_irfftn(*args, **kwargs)
            full.flat[0] = np.nan
            return full

        monkeypatch.setattr("autoconv.grids.np.fft.irfftn", corrupt)
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
# subnormal, huge and tiny magnitudes, and both sides of the switches
# between fixed and exponent form (exponent -5 and 17).
AWKWARD = [-0.0, 5e-324, 1e300, -1e300, 1e-5, 1e-4, 9.999999999999999e-5, 1e16, 1e17,
           0.1, -2.5, 123456789.123456789, 1.0, 0.0]


def awkward_function(dim, n):
    # nodes -0.7 + 1.4 j / n need all 17 significant digits
    spec = GridSpec(dim=dim, extent=0.7, points_per_axis=n)
    size = n**dim
    values = np.resize(np.array(AWKWARD), size) * np.where(np.arange(size) % 3 == 1, -1.0, 1.0)
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
