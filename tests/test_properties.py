"""Randomised cross-checks between the three derivations of the count.

The closed forms in combinatorics (A_k and the recurrence) are checked
against the spoke-subset census they summarise and against the matrix tree
theorem on the built graph.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from jahangir import (
    JahangirParams,
    build_jahangir,
    class_census,
    class_contribution,
    count_spanning_trees_det,
    polynomial_coefficients,
    sigma,
    sigma_k,
    sigma_table,
)


def census_sum(n, m, k):
    return sum(mult * class_contribution(n, sig) for sig, mult in class_census(m, k))


@st.composite
def n_m_k(draw):
    m = draw(st.integers(3, 12))
    return draw(st.integers(2, 9)), m, draw(st.integers(1, m))


@settings(max_examples=60, deadline=None)
@given(n_m_k())
def test_sigma_k_equals_census_sum(nmk):
    n, m, k = nmk
    assert sigma_k(n, m, k) == census_sum(n, m, k)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 12))
def test_coefficients_equal_census_sums(m):
    # with n = 2, the census sum for k kept spokes is 2^k * A_k
    assert [a * 2**k for k, a in enumerate(polynomial_coefficients(m), 1)] == [
        census_sum(2, m, k) for k in range(1, m + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 50), st.integers(3, 300))
def test_per_k_sums_to_recurrence_total(n, m):
    assert sum(sigma(n, m).per_k) == sigma_table(n, m)[-1][1]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(3, 8))
def test_sigma_equals_kirchhoff(n, m):
    assert sigma(n, m).total == count_spanning_trees_det(build_jahangir(JahangirParams(n, m)))
