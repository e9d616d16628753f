"""Taylor coefficients of sqrt(1 - x) and certified tail bounds.

The expansion sqrt(1 - x) = 1 - sum_{n>=1} c_n x^n has positive
coefficients c_n = (2n-3)!!/(2^n n!), with (-1)!! = 1 so that c_1 = 1/2.
They satisfy the ratio recurrence c_{n+1} = c_n (2n-1)/(2n+2), sum to 1,
and decay like 1/(2 sqrt(pi) n^{3/2}).  The series constructor weights its
n-fold convolution terms by these coefficients, so both the values and
tight bounds on their tails matter.

The tails need no summation: 1 - S_n = (2n+2) c_{n+1} = C(2n, n)/4^n, as
the recurrence gives (2n+2) c_{n+1} - (2n+4) c_{n+2} = c_{n+1} and n c_n -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import check_count, check_number, write_csv

# The recurrence step c*(2n-1)/(2n+2) is exact in float64 while the odd
# numerator (a Catalan number) fits in 53 bits, which holds up to n ~ 30.
# A scalar loop over the first EXACT_PREFIX terms keeps that evaluation
# order; the remainder is vectorized with one extra rounding per term.
EXACT_PREFIX = 64

# remainder(n) divides the exact integers C(2n, n) and 4^n up to this n,
# where that costs about a millisecond, and sums an asymptotic series beyond.
EXACT_REMAINDER_N = 1024
# C(2n, n)/4^n = (pi n)^{-1/2} sum_k a_k n^{-k}: the first seven a_k.  At
# n > EXACT_REMAINDER_N the truncation is below 1e-24 relative.
_REMAINDER_SERIES = (
    (1, 1), (-1, 8), (1, 128), (5, 1024), (-21, 32768), (-399, 262144), (869, 4194304),
)
_PI = "3.14159265358979323846264338327950288419716939937510582097494459"


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients c_1..c_n_max with partial sums S_n = 1 - (2n+2) c_{n+1}."""

    n_max: int
    values: np.ndarray
    partial_sums: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False
        self.partial_sums.flags.writeable = False


def build_coeffs(n_max: int) -> CoeffTable:
    """Build the coefficient table by the ratio recurrence.

    Factorials overflow float64 near n = 85, so the table is always grown
    multiplicatively, one coefficient past n_max.  The partial sums read
    1 - S_n = (2n+2) c_{n+1} off it, as (2n+2) c_{n+1} - (2n+4) c_{n+2} =
    c_{n+1} telescopes: no cancellation, within about an ulp of exact.
    """
    check_count("n_max", n_max)
    n_max = int(n_max)

    values = np.empty(n_max + 1)
    c = 0.5
    values[0] = c
    prefix = min(n_max + 1, EXACT_PREFIX)
    for n in range(1, prefix):
        c = c * (2 * n - 1) / (2 * n + 2)
        values[n] = c
    n = np.arange(prefix, n_max + 1, dtype=np.float64)
    values[prefix:] = values[prefix - 1] * np.cumprod((2 * n - 1) / (2 * n + 2))

    n = np.arange(1, n_max + 1, dtype=np.float64)
    partial_sums = 1.0 - (2 * n + 2) * values[1:]
    return CoeffTable(n_max=n_max, values=values[:n_max], partial_sums=partial_sums)


def tail_bound(table: CoeffTable, n_terms: int, ratio: float) -> float:
    """Certified upper bound on sum_{n > n_terms} c_n ratio^n.

    Two valid majorants are combined: the geometric bound
    c_{n_terms+1} ratio^{n_terms+1} / (1 - ratio) (the coefficients
    decrease) and the full remainder 1 - S_{n_terms} = (2 n_terms + 2)
    c_{n_terms+1} (valid for every ratio <= 1 since the coefficients sum
    to 1).  The smaller one is returned times 1 + 1e-12, which lifts it
    above the exact tail however it and the table (within 3e-14 of exact,
    see remainder) were rounded; at ratio = 1 that is the remainder.  For
    ratio > 0 the result is at least the smallest positive float, since the
    exact tail is positive even where the geometric bound underflows.
    """
    check_number("ratio", ratio, "nonnegative")
    if ratio > 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    check_count("n_terms", n_terms, 1, f"an integer in [1, n_max = {table.n_max})", table.n_max - 1)
    if ratio == 0.0:
        return 0.0
    bound = float((2 * n_terms + 2) * table.values[n_terms])
    if ratio < 1.0:
        bound = min(bound, float(table.values[n_terms] * ratio ** (n_terms + 1) / (1.0 - ratio)))
    return max(bound * (1.0 + 1e-12), math.ulp(0.0))


def terms_for_tail(table: CoeffTable, ratio: float, bound: float) -> int | None:
    """Smallest N with tail_bound(table, N, ratio) <= bound, or None.

    Both majorants in tail_bound shrink as N grows, so a bisection over
    1 <= N < n_max finds it; None means that no N < n_max reaches the
    bound.
    """
    lo, hi = 1, table.n_max - 1
    if not tail_bound(table, hi, ratio) <= bound:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(table, mid, ratio) <= bound:
            hi = mid
        else:
            lo = mid + 1
    return lo


def remainder(n: int) -> float:
    """1 - S_n = C(2n, n)/4^n, rounded once to float64.

    (2n+2) c_{n+1} from a table carries the recurrence's accumulated
    rounding, up to 3e-14 relative at n = 10^6.  Here n <= EXACT_REMAINDER_N
    divides the exact integers; larger n sums the asymptotic series in
    40-digit decimal arithmetic, within 1e-24 relative of exact, so the
    float is the nearest one unless the value lies that close to a tie.
    """
    check_count("n", n)
    n = int(n)
    if n <= EXACT_REMAINDER_N:
        return math.comb(2 * n, n) / 4**n  # int division rounds once
    import decimal  # here, so that importing coeffs stays cheap

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        series = sum(
            decimal.Decimal(a) / b / decimal.Decimal(n) ** k
            for k, (a, b) in enumerate(_REMAINDER_SERIES)
        )
        return float(series / (decimal.Decimal(_PI) * n).sqrt())


def dump_csv(table: CoeffTable, path) -> None:
    """Write rows (n, c_n, S_n) in full float precision."""
    write_csv(
        path,
        ["n", "c_n", "partial_sum"],
        [np.arange(1, table.n_max + 1), table.values, table.partial_sums],
    )
