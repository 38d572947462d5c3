"""Growth of the spanning-tree counts in both directions.

a(n, m) = sigma(n, m+1) / sigma(n, m) is kept as an exact Fraction; decimal
strings are rendering only.  A ratio series reads its totals from one pass
of the recurrence in combinatorics.sigma_table; every other total is one
combinatorics.sigma_total.  ratio_rows gives a series' rows in ints, each
ratio reduced by one gcd, its decimal rounded in ints with one 10**places,
and ratio_series wraps them as Fractions; the CLI reads the ints.  The
m-direction ratios fall to a constant per n from above (estimated with a
bracket that lies above it); the n-direction ratios decrease toward 1.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .combinatorics import sigma_table, sigma_total
from .errors import require_int


def decimal_truncate(x: Fraction, places: int) -> str:
    """Decimal string of x cut after `places` digits, no rounding."""
    require_int(places, 0, "places")
    if x < 0:
        return "-" + decimal_truncate(-x, places)
    return _place_point(x.numerator * 10**places // x.denominator, places)


def decimal_round_half_even(x: Fraction, places: int) -> str:
    """Decimal string of x rounded to `places` digits, ties to even."""
    require_int(places, 0, "places")
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    return sign + _round_half_even(abs(num), den, 10**places, places)


def _round_half_even(num: int, den: int, scale: int, places: int) -> str:
    # num / den >= 0 at `places` digits, ties to even; scale is 10**places
    q, r = divmod(num * scale, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return _place_point(q, places)


def _place_point(scaled: int, places: int) -> str:
    if places == 0:
        return str(scaled)
    s = str(scaled).rjust(places + 1, "0")
    return s[:-places] + "." + s[-places:]


@dataclass(frozen=True)
class RatioEntry:
    m: int
    ratio: Fraction
    decimal: str


@dataclass(frozen=True)
class RatioSeries:
    """m-direction ratios a(n, m) for m = 3..m_max - 1, exact plus rendered."""

    n: int
    entries: tuple[RatioEntry, ...]


@dataclass(frozen=True)
class NDirectionRatios:
    """sigma(n, m) / sigma(n-1, m) for n = 3..n_max at fixed m."""

    m: int
    entries: tuple[tuple[int, Fraction], ...]
    strictly_decreasing: bool


@dataclass(frozen=True)
class DeltaEstimate:
    """Point estimate for the m-direction limit at fixed n, with a bracket
    from the two most recent ratios.  An upper bound, not a claimed limit: unrounded, it is
    delta(n) + (2(delta - 1) - (delta - 1/delta) delta^-m_used) / sigma(n, m_used).
    """

    n: int
    m_used: int
    value: str
    bracket: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ConjectureReport:
    """Prediction sigma(n, 3) * a^(m-3) against the exact count.

    The displayed relation treats the m-direction ratio as already constant,
    which the exact values contradict at small m; the report states the
    relative error and passes no judgment.
    """

    n: int
    m: int
    m_used: int
    predicted: Fraction
    actual: int
    relative_error: Fraction
    predicted_decimal: str
    relative_error_decimal: str


def ratio(n: int, m: int) -> Fraction:
    """a(n, m) = sigma(n, m+1) / sigma(n, m), exact."""
    before = sigma_total(n, m)  # refuses n, then m
    return Fraction(sigma_total(n, m + 1), before)


def ratio_rows(n: int, m_max: int, places: int = 9) -> Iterator[tuple[int, int, int, str]]:
    """(m, numerator, denominator, decimal) of each ratio_series entry: the
    ratio in lowest terms, in ints.  The arguments are checked at the first row."""
    require_int(n, 2, "n")
    require_int(m_max, 4, "m_max")
    require_int(places, 0, "places")
    rows = sigma_table(n, m_max)
    scale = 10**places
    for (m, before), (_, after) in zip(rows, rows[1:]):
        common = gcd(after, before)
        yield m, after // common, before // common, _round_half_even(after, before, scale, places)


def ratio_series(n: int, m_max: int, places: int = 9) -> RatioSeries:
    return RatioSeries(n, tuple(RatioEntry(m, Fraction(num, den), decimal)
                                for m, num, den, decimal in ratio_rows(n, m_max, places)))


def n_direction_ratios(m: int, n_max: int) -> NDirectionRatios:
    require_int(m, 3, "m")
    require_int(n_max, 3, "n_max")
    totals = [sigma_total(n, m) for n in range(2, n_max + 1)]
    entries = [(n, Fraction(cur, prev))
               for n, prev, cur in zip(range(3, n_max + 1), totals, totals[1:])]
    decreasing = all(entries[i][1] > entries[i + 1][1] for i in range(len(entries) - 1))
    return NDirectionRatios(m, tuple(entries), decreasing)


def delta_estimate(n: int, m_used: int = 20, places: int = 12) -> DeltaEstimate:
    """a(n, m_used) as the point estimate, bracketed by the previous ratio.

    a(n, m) falls to delta(n) = (n + 2 + sqrt(n^2 + 4n)) / 2 from above, so the
    bracket (a(n, m_used), a(n, m_used - 1)) lies above it: the point is an upper bound.
    With sigma(n, m) = delta^m + delta^-m - 2, its error is exactly
    a(n, m) - delta = (2(delta - 1) - (delta - 1/delta) delta^-m) / sigma(n, m),
    about 2(delta - 1) delta^-m: at m_used = 20, 1.99e-11 for n = 2, so the
    value "3.732050807589" differs from delta(2) = 3.732050807569 in its 11th
    decimal, and 1.9e-13 for n = 3.
    """
    require_int(n, 2, "n")
    require_int(m_used, 6, "m_used")
    point = ratio(n, m_used)
    lo, hi = sorted((ratio(n, m_used - 1), point))
    return DeltaEstimate(n, m_used, decimal_round_half_even(point, places), (lo, hi))


def conjecture_report(n: int, m: int, m_used: int = 20) -> ConjectureReport:
    """Compare sigma(n, m) with sigma(n, 3) scaled by the (m - 3)rd power of
    the estimated m-direction ratio.  Exact rational arithmetic throughout;
    m = 3 is the degenerate exponent-zero case where both sides coincide.
    """
    require_int(m_used, 3, "m_used")
    actual = sigma_total(n, m)  # refuses n, then m, before any work
    point = ratio(n, m_used)
    predicted = point ** (m - 3) * sigma_total(n, 3)
    rel = abs(predicted - actual) / actual
    return ConjectureReport(
        n=n,
        m=m,
        m_used=m_used,
        predicted=predicted,
        actual=actual,
        relative_error=rel,
        predicted_decimal=decimal_round_half_even(predicted, 4),
        relative_error_decimal=decimal_round_half_even(rel, 6),
    )
