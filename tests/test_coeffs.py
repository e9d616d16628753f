import math
from fractions import Fraction

import numpy as np
import pytest

from autoconv import grids
from autoconv.coeffs import build_coeffs, dump_csv, remainder, tail_bound, terms_for_tail
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


# n <= 300 and 40 log-spaced n up to 2e4, where the exact remainder is
# still cheap, and n = 9,999, where a blockwise compensated sum erred by
# 39 ulp.
EXACT_NS = sorted({*range(1, 301), 9999, *np.geomspace(301, 20_000, 40).astype(int).tolist()})


def exact_remainder(n: int) -> Fraction:
    """1 - S_n = C(2n, n) / 4^n as an exact rational."""
    return Fraction(math.comb(2 * n, n), 4**n)


def test_partial_sums_within_two_ulp_of_exact(big_table):
    # One rounding of 1 - (2n+2) c_{n+1}, plus the recurrence's own error in
    # c_{n+1}: at most 1.1 ulp of S_n for n <= 10^6.
    for n in EXACT_NS:
        exact = 1 - exact_remainder(n)
        error = abs(Fraction(float(big_table.partial_sums[n - 1])) - exact)
        assert error <= 2 * Fraction(float(np.spacing(float(exact)))), n


def test_critical_tail_matches_exact_remainder(big_table):
    for n in EXACT_NS:
        exact = exact_remainder(n)
        bound = Fraction(tail_bound(big_table, n, 1.0))
        # the exact tail lifted by the 1e-12 safety factor, give or take 1e-13
        assert exact < bound <= exact * (1 + Fraction(11, 10**13)), n


def test_tail_bound_is_above_exact_rational_tails(big_table):
    # sum_n c_n r^n = 1 - sqrt(1 - r) is rational at these ratios, so each
    # tail is an exact rational: the bound must not round below it.
    checkpoints = (1, 2, 10, 100, 796, 2000)
    for ratio, root in ((Fraction(1), 0), (Fraction(3, 4), Fraction(1, 2)),
                        (Fraction(15, 16), Fraction(1, 4)), (Fraction(255, 256), Fraction(1, 16))):
        tail = 1 - root  # the sum minus the partial sums S_N(r) so far
        c, power = Fraction(1, 2), ratio
        for n in range(1, checkpoints[-1] + 1):
            tail -= c * power
            if n in checkpoints:
                bound = Fraction(tail_bound(big_table, n, float(ratio)))
                assert tail < bound, (ratio, n)
                assert ratio < 1 or bound <= tail * (1 + Fraction(11, 10**13)), n
            c, power = c * (2 * n - 1) / (2 * n + 2), power * ratio


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


def test_tail_bound_is_positive_where_the_geometric_bound_underflows():
    # c_1101 0.5^1101 / 0.5 is about 5e-337, below the smallest float
    table = build_coeffs(5000)
    assert tail_bound(table, 1100, 0.5) == math.ulp(0.0)
    assert tail_bound(table, 2000, 0.5) == math.ulp(0.0)
    assert tail_bound(table, 1100, 0.0) == 0.0
    assert terms_for_tail(table, 0.5, 0.0) is None


def test_tail_bound_critical_equals_remainder(big_table):
    bound = tail_bound(big_table, 10, 1.0)
    remainder_10 = 1.0 - big_table.partial_sums[9]
    assert remainder_10 < bound <= remainder_10 * (1.0 + 2e-12)
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


def test_remainder_is_the_exact_remainder_rounded():
    # both sides of EXACT_REMAINDER_N = 1024, where the asymptotic series
    # takes over, and the log-spaced n up to 2e4
    for n in sorted({*EXACT_NS, *range(1000, 1100)}):
        assert remainder(n) == float(exact_remainder(n)), n
    # C(2 * 10^6, 10^6) / 4^(10^6) rounded from the exact integers, which take
    # about a minute to compute, so the value is written out
    assert remainder(10**6) == 0.0005641895130240628


@pytest.mark.parametrize("bad", [0, -3, 2.0, None])
def test_remainder_rejects_invalid_n(bad):
    with pytest.raises(ValueError):
        remainder(bad)


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
