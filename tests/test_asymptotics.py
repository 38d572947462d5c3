import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jahangir import (
    ParameterDomainError,
    conjecture_report,
    decimal_round_half_even,
    decimal_truncate,
    delta_estimate,
    n_direction_ratios,
    ratio,
    ratio_series,
    sigma_table,
)


def _point_by_hand(negative: bool, scaled: int, places: int) -> str:
    # the sign is x's, so -1/1000 at two places reads -0.00
    whole, fraction = divmod(scaled, 10**places)
    return ("-" if negative else "") + str(whole) + (f".{fraction:0{places}d}" if places else "")


class TestDecimalRendering:
    def test_truncate(self):
        assert decimal_truncate(Fraction(96, 25), 2) == "3.84"
        assert decimal_truncate(Fraction(1, 3), 4) == "0.3333"
        assert decimal_truncate(Fraction(2, 3), 4) == "0.6666"
        assert decimal_truncate(Fraction(5, 1), 0) == "5"
        assert decimal_truncate(Fraction(-1, 3), 2) == "-0.33"

    def test_round_half_even(self):
        assert decimal_round_half_even(Fraction(1, 3), 4) == "0.3333"
        assert decimal_round_half_even(Fraction(2, 3), 4) == "0.6667"
        # ties go to the even last digit
        assert decimal_round_half_even(Fraction(25, 1000), 2) == "0.02"
        assert decimal_round_half_even(Fraction(35, 1000), 2) == "0.04"
        assert decimal_round_half_even(Fraction(1, 2), 0) == "0"
        assert decimal_round_half_even(Fraction(3, 2), 0) == "2"
        assert decimal_round_half_even(Fraction(-35, 1000), 2) == "-0.04"

    def test_rendering_error_bounds(self):
        x = Fraction(701260563, 146361600)
        for places in (2, 6, 9, 12):
            t = Fraction(decimal_truncate(x, places))
            r = Fraction(decimal_round_half_even(x, places))
            step = Fraction(1, 10**places)
            assert 0 <= x - t < step
            assert abs(x - r) <= step / 2

    @given(st.integers(), st.integers(min_value=1), st.integers(0, 40))
    @example(1, 8, 2)  # a tie, to the even digit: 0.12
    @example(-5, 2, 0)  # a tie below zero: -2
    @example(-1, 1000, 2)  # below zero, rounded to zero: -0.00
    def test_rendering_matches_the_stdlib(self, a, b, places):
        # Fraction's own round(x, places) rounds half to even, exactly
        x = Fraction(a, b)
        rounded = abs(int(round(x, places) * 10**places))
        truncated = abs(math.trunc(x * 10**places))
        assert decimal_round_half_even(x, places) == _point_by_hand(a < 0, rounded, places)
        assert decimal_truncate(x, places) == _point_by_hand(a < 0, truncated, places)

    def test_negative_places_rejected(self):
        with pytest.raises(ValueError):
            decimal_truncate(Fraction(1), -1)
        with pytest.raises(ValueError):
            decimal_round_half_even(Fraction(1), -1)


class TestSigmaTable:
    def test_small_rows(self):
        assert sigma_table(2, 6) == ((3, 50), (4, 192), (5, 722), (6, 2700))

    def test_n3_row12(self):
        rows = dict(sigma_table(3, 12))
        assert rows[12] == 146361600

    def test_matches_cubic_at_m3(self):
        for n in range(2, 12):
            assert dict(sigma_table(n, 3))[3] == n**3 + 6 * n**2 + 9 * n

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            sigma_table(1, 8)
        with pytest.raises(ParameterDomainError):
            sigma_table(2, 2)


class TestRatioSeries:
    def test_first_entries(self):
        series = ratio_series(2, 5)
        assert series.entries[0].m == 3
        assert series.entries[0].ratio == Fraction(96, 25)
        assert series.entries[0].decimal == "3.840000000"
        assert decimal_truncate(ratio(3, 3), 2) == "4.86"

    def test_known_digits_far_out(self):
        # the ninth decimal of a(2, 15) rounds up, so the two renderings
        # differ in their last digit here
        r = ratio(2, 15)
        assert decimal_round_half_even(r, 9) == "3.732050822"
        assert decimal_truncate(r, 9) == "3.732050821"

    def test_entries_exceed_one(self):
        for n in (2, 3, 4):
            for e in ratio_series(n, 10).entries:
                assert e.ratio > 1

    def test_entry_range(self):
        series = ratio_series(2, 9, places=4)
        assert [e.m for e in series.entries] == [3, 4, 5, 6, 7, 8]
        assert all("." in e.decimal and len(e.decimal.split(".")[1]) == 4
                   for e in series.entries)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            ratio_series(2, 3)


class TestNDirectionRatios:
    def test_first_ratio_m3(self):
        table = n_direction_ratios(3, 5)
        assert table.entries[0] == (3, Fraction(108, 50))

    def test_matches_cubic(self):
        table = dict(n_direction_ratios(3, 30).entries)
        for n in (5, 12, 30):
            num = n**3 + 6 * n**2 + 9 * n
            den = (n - 1) ** 3 + 6 * (n - 1) ** 2 + 9 * (n - 1)
            assert table[n] == Fraction(num, den)

    def test_strictly_decreasing_m3(self):
        table = n_direction_ratios(3, 50)
        assert table.strictly_decreasing
        values = [v for _, v in table.entries]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            n_direction_ratios(2, 10)
        with pytest.raises(ParameterDomainError):
            n_direction_ratios(3, 2)


class TestDeltaEstimate:
    def test_m_used_15_digits(self):
        est = delta_estimate(2, m_used=15)
        assert est.value.startswith("3.73205082")
        lo, hi = est.bracket
        assert lo < hi
        assert lo <= ratio(2, 15) <= hi

    def test_bracket_tightens(self):
        wide = delta_estimate(2, m_used=8)
        tight = delta_estimate(2, m_used=14)
        assert (tight.bracket[1] - tight.bracket[0]) < (wide.bracket[1] - wide.bracket[0])

    def test_default_m_used_20(self):
        est = delta_estimate(2)
        assert est.m_used == 20
        assert est.value.startswith("3.732050")
        est3 = delta_estimate(3)
        assert est3.value.startswith("4.791287")

    @given(st.integers(2, 39), st.integers(3, 79))
    def test_ratio_falls_to_delta_from_above(self, n, m):
        # a(n, m) = s1 / s0 falls, and stays above delta(n), the larger root of
        # x^2 - (n + 2) x + 1, exactly when 2 s1 - (n + 2) s0 > sqrt(n^2 + 4n) s0
        (_, s0), (_, s1), (_, s2) = sigma_table(n, m + 2)[-3:]
        assert s1 * s1 > s0 * s2
        gap = 2 * s1 - (n + 2) * s0
        assert gap > 0 and gap * gap > (n * n + 4 * n) * s0 * s0

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            delta_estimate(2, m_used=5)
        with pytest.raises(ParameterDomainError):
            delta_estimate(1, m_used=10)


class TestConjectureReport:
    def test_exponent_zero_is_exact(self):
        report = conjecture_report(2, 3, m_used=10)
        assert report.predicted == 50
        assert report.actual == 50
        assert report.relative_error == 0

    def test_one_step_prediction_overshoots_down(self):
        # the ratio estimate is below the first actual step, so the
        # prediction lands a couple of percent under
        report = conjecture_report(2, 4, m_used=15)
        assert report.actual == 192
        assert Fraction(186) < report.predicted < Fraction(187)
        assert Fraction(27, 1000) < report.relative_error < Fraction(29, 1000)

    def test_n3_m5(self):
        report = conjecture_report(3, 5, m_used=15)
        assert report.actual == 2523
        assert report.relative_error < Fraction(3, 100)

    def test_decimals_present(self):
        report = conjecture_report(2, 4, m_used=10)
        assert "." in report.predicted_decimal
        assert report.relative_error_decimal.startswith("0.02")

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            conjecture_report(2, 2)
        with pytest.raises(ParameterDomainError):
            conjecture_report(1, 4)
