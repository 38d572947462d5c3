from itertools import combinations
from math import comb

import pytest

from jahangir import (
    GapSignature,
    ParameterDomainError,
    SpokeCombination,
    TreeCountBreakdown,
    class_census,
    class_contribution,
    gap_transform,
    polynomial_coefficients,
    sigma,
    sigma_k,
)


class TestGapTransform:
    def test_spread_pair(self):
        sig = gap_transform(SpokeCombination(4, 2, (1, 3)))
        assert sig.gaps == (1, 1)

    def test_adjacent_pair(self):
        sig = gap_transform(SpokeCombination(4, 2, (1, 2)))
        assert sig.gaps == (0, 2)

    def test_full_subset_is_all_zeros(self):
        for m in range(3, 8):
            sig = gap_transform(SpokeCombination(m, m, tuple(range(1, m + 1))))
            assert sig.gaps == (0,) * m

    def test_singleton(self):
        sig = gap_transform(SpokeCombination(4, 1, (2,)))
        assert sig.gaps == (3,)

    def test_gaps_sum_to_unchosen(self):
        for m in range(3, 9):
            for k in range(1, m + 1):
                for combo in combinations(range(1, m + 1), k):
                    sig = gap_transform(SpokeCombination(m, k, combo))
                    assert sum(sig.gaps) == m - k
                    assert sig.gaps == tuple(sorted(sig.gaps))

    def test_rotation_invariance(self):
        for m in range(3, 8):
            for k in range(1, m + 1):
                for combo in combinations(range(1, m + 1), k):
                    base = gap_transform(SpokeCombination(m, k, combo))
                    for shift in range(1, m):
                        rotated = tuple(sorted((c - 1 + shift) % m + 1 for c in combo))
                        assert gap_transform(SpokeCombination(m, k, rotated)) == base


class TestTypeValidation:
    def test_combination_k_out_of_range(self):
        with pytest.raises(ParameterDomainError):
            SpokeCombination(4, 0, ())
        with pytest.raises(ParameterDomainError):
            SpokeCombination(4, 5, (1, 2, 3, 4, 5))

    def test_combination_not_increasing(self):
        with pytest.raises(ParameterDomainError):
            SpokeCombination(4, 2, (3, 1))

    def test_combination_out_of_bounds(self):
        with pytest.raises(ParameterDomainError):
            SpokeCombination(4, 2, (0, 3))
        with pytest.raises(ParameterDomainError):
            SpokeCombination(4, 2, (2, 5))

    def test_signature_unsorted_rejected(self):
        with pytest.raises(ParameterDomainError):
            GapSignature(2, (2, 0))

    def test_signature_negative_rejected(self):
        with pytest.raises(ParameterDomainError):
            GapSignature(2, (-1, 3))


class TestClassCensus:
    def test_m4_k2(self):
        census = class_census(4, 2)
        assert [(s.gaps, x) for s, x in census] == [((0, 2), 4), ((1, 1), 2)]

    def test_m4_k3(self):
        census = class_census(4, 3)
        assert [(s.gaps, x) for s, x in census] == [((0, 0, 1), 4)]

    def test_m3_k1(self):
        census = class_census(3, 1)
        assert [(s.gaps, x) for s, x in census] == [((2,), 3)]

    def test_m6_k3_merges_non_rotation_classes(self):
        # (0,1,2) holds 12 combinations, two rotation orbits of 6; the
        # census keys on gap multisets only, so totals stay correct
        census = class_census(6, 3)
        assert {s.gaps: x for s, x in census} == {
            (0, 0, 3): 6,
            (0, 1, 2): 12,
            (1, 1, 1): 2,
        }

    def test_multiplicities_sum_to_binomial(self):
        for m in range(3, 11):
            for k in range(1, m + 1):
                census = class_census(m, k)
                assert sum(x for _, x in census) == comb(m, k)
                assert all(sum(s.gaps) == m - k for s, _ in census)

    def test_sorted_by_gap_vector(self):
        for m in range(3, 9):
            for k in range(1, m + 1):
                gaps = [s.gaps for s, _ in class_census(m, k)]
                assert gaps == sorted(gaps)

    def test_k_out_of_range(self):
        with pytest.raises(ParameterDomainError):
            class_census(5, 0)
        with pytest.raises(ParameterDomainError):
            class_census(5, 6)


class TestContributionsAndSigma:
    def test_contribution_examples(self):
        assert class_contribution(2, GapSignature(2, (0, 2))) == 12
        assert class_contribution(2, GapSignature(2, (1, 1))) == 16
        assert class_contribution(2, GapSignature(4, (0, 0, 0, 0))) == 16

    def test_contribution_rejects_small_n(self):
        with pytest.raises(ParameterDomainError):
            class_contribution(1, GapSignature(1, (2,)))

    def test_sigma_k_examples(self):
        assert sigma_k(2, 4, 1) == 32
        assert sigma_k(2, 4, 2) == 80
        assert sigma_k(2, 4, 3) == 64
        assert sigma_k(2, 4, 4) == 16
        assert sigma_k(5, 3, 1) == 45

    def test_sigma_k_bounds(self):
        with pytest.raises(ParameterDomainError):
            sigma_k(2, 4, 0)
        with pytest.raises(ParameterDomainError):
            sigma_k(2, 4, 5)
        with pytest.raises(ParameterDomainError):
            sigma_k(1, 4, 2)

    def test_sigma_2_4_breakdown(self):
        b = sigma(2, 4)
        assert b.per_k == (32, 80, 64, 16)
        assert b.total == 192

    def test_sigma_known_totals(self):
        assert sigma(2, 16).total == 1416317952
        assert sigma(3, 10).total == 6375621
        assert sigma(7, 3).total == 700

    def test_extreme_k_closed_forms(self):
        for n in range(2, 6):
            for m in range(3, 9):
                b = sigma(n, m)
                assert b.per_k[m - 1] == n**m
                assert b.per_k[0] == n * m * m
                assert b.total == sum(b.per_k)

    def test_parameter_domain(self):
        with pytest.raises(ParameterDomainError):
            sigma(1, 4)
        with pytest.raises(ParameterDomainError):
            sigma(2, 2)


def assert_same(built, checked):
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)


class TestBuiltValuesEqualTheirCheckedRebuild:
    # sigma, gap_transform and class_census skip their value types' checks, so
    # each must hold what the public constructor would
    def test_sigma(self):
        for n in range(2, 6):
            for m in range(3, 12):
                b = sigma(n, m)
                assert_same(b, TreeCountBreakdown(b.n, b.m, b.per_k, b.total))

    def test_census_and_gap_transform(self):
        for m in range(3, 9):
            for k in range(1, m + 1):
                for sig, _ in class_census(m, k):
                    assert_same(sig, GapSignature(sig.k, sig.gaps))
                for combo in combinations(range(1, m + 1), k):
                    sig = gap_transform(SpokeCombination(m, k, combo))
                    assert_same(sig, GapSignature(sig.k, sig.gaps))


class TestPolynomialCoefficients:
    def test_m3(self):
        assert polynomial_coefficients(3) == (9, 6, 1)

    def test_m4(self):
        assert polynomial_coefficients(4) == (16, 20, 8, 1)

    def test_m5(self):
        assert polynomial_coefficients(5) == (25, 50, 35, 10, 1)

    def test_evaluation_matches_sigma(self):
        for m in range(3, 10):
            coeffs = polynomial_coefficients(m)
            for n in range(2, 7):
                value = sum(a * n**k for k, a in enumerate(coeffs, start=1))
                assert value == sigma(n, m).total

    def test_leading_and_linear_terms(self):
        for m in range(3, 13):
            coeffs = polynomial_coefficients(m)
            assert coeffs[-1] == 1
            assert coeffs[0] == m * m

    def test_m_below_three_rejected(self):
        with pytest.raises(ParameterDomainError):
            polynomial_coefficients(2)
