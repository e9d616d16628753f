import math
from fractions import Fraction

import numpy as np
import pytest

from autoconv import grids
from autoconv.coeffs import build_coeffs, dump_csv, tail_bound, terms_for_tail
from oracles import write_rows_per_cell


def double_factorial(k: int) -> int:
    """(k)!! with the convention (-1)!! = 1."""
    if k <= 0:
        return 1
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def exact_coefficient(n: int) -> Fraction:
    """Independent oracle: (2n-3)!! / (2^n n!) as an exact rational."""
    return Fraction(double_factorial(2 * n - 3), 2**n * math.factorial(n))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@pytest.fixture(scope="module")
def big_table():
    return build_coeffs(10**6)


def test_first_four_values():
    table = build_coeffs(4)
    np.testing.assert_array_equal(table.values, [0.5, 0.125, 0.0625, 5.0 / 128.0])


def test_base_case():
    table = build_coeffs(1)
    assert table.values[0] == 0.5
    assert table.partial_sums[0] == 0.5


@pytest.mark.parametrize("bad", [0, -3])
def test_invalid_n_max_rejected(bad):
    with pytest.raises(ValueError):
        build_coeffs(bad)


def test_prefix_matches_exact_rationals():
    table = build_coeffs(20)
    for n in range(1, 21):
        exact = float(exact_coefficient(n))
        got = table.values[n - 1]
        assert abs(got - exact) <= 2.0 * np.spacing(exact), n


def test_catalan_identity():
    table = build_coeffs(30)
    for n in range(1, 31):
        expected = catalan(n - 1)
        got = table.values[n - 1] * 2.0 ** (2 * n - 1)
        assert abs(got - expected) <= 1e-12 * expected


def test_recurrence_holds_in_working_rounding(big_table):
    idx = np.r_[0:200, 5000:5010, 999990:999999]
    for i in idx:
        n = i + 1
        step = big_table.values[i] * (2 * n - 1) / (2 * n + 2)
        got = big_table.values[i + 1]
        assert abs(got - step) <= 2.0 * np.spacing(step)


def test_partial_sums_strictly_increasing_below_one(big_table):
    assert np.all(big_table.values > 0)
    sums = big_table.partial_sums
    assert np.all(np.diff(sums) > 0)
    assert sums[-1] < 1.0


def test_tail_asymptotic_law(big_table):
    for n in (10**4, 10**5, 10**6):
        tail = 1.0 - big_table.partial_sums[n - 1]
        law = 1.0 / math.sqrt(math.pi * n)
        assert abs(tail - law) <= 0.05 * law


def test_generating_function_identity(big_table):
    n = np.arange(1, big_table.n_max + 1, dtype=np.float64)
    for q in (0.1, 0.5, 0.9):
        with np.errstate(under="ignore"):
            total = math.fsum(big_table.values * q**n)
        assert abs(total - (1.0 - math.sqrt(1.0 - q))) <= 1e-10


def test_divergence_witness(big_table):
    n = np.arange(1, big_table.n_max + 1, dtype=np.float64)
    assert float(np.dot(n, big_table.values)) > 100.0


def test_tail_bound_zero_ratio(big_table):
    assert tail_bound(big_table, 1, 0.0) == 0.0


def test_tail_bound_critical_equals_remainder(big_table):
    bound = tail_bound(big_table, 10, 1.0)
    assert bound == 1.0 - big_table.partial_sums[9]
    # Direct summation oracle: the table's own remainder plus the known
    # law for everything beyond it approaches the bound from below.
    partial_tail = math.fsum(big_table.values[10:])
    beyond = 1.0 / math.sqrt(math.pi * big_table.n_max)
    assert partial_tail <= bound <= partial_tail + 1.05 * beyond


def test_tail_bound_geometric_dominates_direct_sum(big_table):
    n = np.arange(11, big_table.n_max + 1, dtype=np.float64)
    with np.errstate(under="ignore"):
        direct = math.fsum(big_table.values[10:] * 0.5**n)
    bound = tail_bound(big_table, 10, 0.5)
    assert direct <= bound <= 2.0 * direct


@pytest.mark.parametrize("bad_q", [-0.1, 1.1])
def test_tail_bound_ratio_range(big_table, bad_q):
    with pytest.raises(ValueError):
        tail_bound(big_table, 10, bad_q)


@pytest.mark.parametrize("bad_n", [0, 10**6])
def test_tail_bound_n_range(big_table, bad_n):
    with pytest.raises(ValueError):
        tail_bound(big_table, bad_n, 0.5)


def test_terms_for_tail_minimal(big_table):
    for ratio in (0.0, 0.5, 0.75, 0.999, 1.0 - 2.0**-52, 1.0):
        for bound in (1e-3, 1e-6):
            n = terms_for_tail(big_table, ratio, bound)
            if n is None:
                assert tail_bound(big_table, big_table.n_max - 1, ratio) > bound
                continue
            assert tail_bound(big_table, n, ratio) <= bound
            assert n == 1 or tail_bound(big_table, n - 1, ratio) > bound
    assert terms_for_tail(big_table, 0.0, 1e-12) == 1
    # the critical tail 1 - S_N ~ 1/sqrt(pi N) reaches 1e-3 near N = 318,000
    assert 300_000 < terms_for_tail(big_table, 1.0, 1e-3) < 330_000


def test_terms_for_tail_table_too_short():
    small = build_coeffs(16)
    assert terms_for_tail(small, 1.0, 1e-6) is None


def test_values_are_immutable():
    table = build_coeffs(8)
    with pytest.raises(ValueError):
        table.values[0] = 0.0


def test_csv_dump(tmp_path):
    table = build_coeffs(4)
    path = tmp_path / "coeffs.csv"
    dump_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,c_n,partial_sum"
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert last[0] == "4"
    assert float(last[1]) == 5.0 / 128.0


@pytest.mark.parametrize("chunk", [7, grids.CSV_CHUNK_ROWS])
def test_csv_dump_matches_per_row_writer(tmp_path, monkeypatch, chunk):
    # 200 rows: 28 full blocks of 7 and one of 4 at the smaller chunk
    monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", chunk)
    table = build_coeffs(200)
    dump_csv(table, tmp_path / "new.csv")
    rows = zip(range(1, table.n_max + 1), table.values, table.partial_sums)
    write_rows_per_cell(tmp_path / "old.csv", ["n", "c_n", "partial_sum"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
