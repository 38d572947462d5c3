"""Randomised cross-checks between the three derivations of the count.

The closed forms in combinatorics (A_k and the recurrence) are checked
against the spoke-subset census they summarise and against the matrix tree
theorem on the built graph.  The matrix tree theorem's cycle-minor path is
checked against Bareiss elimination of the explicit minor, and its Bareiss
fallback against the generic enumerator.  The generic enumerator is checked
tree by tree against a filter over all (|V| - 1)-edge subsets.
"""

import warnings
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from jahangir import (
    JahangirParams,
    LabeledGraph,
    SpanningTree,
    build_jahangir,
    class_census,
    class_contribution,
    count_spanning_trees_det,
    enumerate_all,
    polynomial_coefficients,
    sigma,
    sigma_k,
    sigma_table,
    verify_spanning_tree,
)
from jahangir.matrix_tree import _cycle_order, _det_fraction_free, _laplacian_minor


def census_sum(n, m, k):
    return sum(mult * class_contribution(n, sig) for sig, mult in class_census(m, k))


def explicit_minor_det(g, deleted_vertex):
    return _det_fraction_free(_laplacian_minor(g, deleted_vertex))


@st.composite
def apex_plus_rim(draw, rim_edges, rim_size):
    """An apex joined to a random subset of a rim, labels shuffled.

    Returns the graph, the apex's label and the number of spokes."""
    labels = draw(st.permutations(range(rim_size + 1)))
    apex, rim = labels[0], labels[1:]
    spokes = draw(st.sets(st.sampled_from(rim)))
    edges = [(rim[a], rim[b]) for a, b in rim_edges] + [(apex, r) for r in spokes]
    return LabeledGraph(rim_size + 1, tuple(draw(st.permutations(edges)))), apex, len(spokes)


@st.composite
def apex_plus_cycle(draw):
    k = draw(st.integers(3, 14))
    return draw(apex_plus_rim([(i, (i + 1) % k) for i in range(k)], k))


@st.composite
def apex_plus_path_or_two_cycles(draw):
    if draw(st.booleans()):
        k = draw(st.integers(2, 8))
        return draw(apex_plus_rim([(i, i + 1) for i in range(k - 1)], k))
    a, b = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    rim_edges = [(i, (i + 1) % a) for i in range(a)] + [
        (a + i, a + (i + 1) % b) for i in range(b)]
    return draw(apex_plus_rim(rim_edges, a + b))


@st.composite
def connected_graph(draw):
    """A random tree on up to 6 vertices plus random extra edges, with
    shuffled labels and edge order."""
    nv = draw(st.integers(1, 6))
    label = draw(st.permutations(range(nv)))
    pairs = [(u, v) for v in range(nv) for u in range(v)]
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    extra = [p for p in pairs if p not in tree and draw(st.booleans())]
    edges = [(label[u], label[v]) for u, v in tree + extra]
    return LabeledGraph(nv, tuple(draw(st.permutations(edges))))


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
    # the hub-deleted minor is a cycle: checked against its dense elimination too
    g = build_jahangir(JahangirParams(n, m))
    assert _cycle_order(g, 0) is not None
    assert sigma(n, m).total == count_spanning_trees_det(g) == explicit_minor_det(g, 0)


@settings(max_examples=100, deadline=None)
@given(apex_plus_cycle())
def test_cycle_minor_equals_bareiss_on_apex_plus_cycle(case):
    g, apex, spokes = case
    assert _cycle_order(g, apex) is not None
    count = count_spanning_trees_det(g, deleted_vertex=apex)
    assert count == explicit_minor_det(g, apex)
    if spokes == 0:
        assert count == 0


@settings(max_examples=60, deadline=None)
@given(apex_plus_path_or_two_cycles())
def test_bareiss_fallback_equals_enumeration(case):
    g, apex, _ = case
    assert _cycle_order(g, apex) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # disconnected: no trees
        listed = sum(1 for _ in enumerate_all(g, cap=None))
    assert count_spanning_trees_det(g, deleted_vertex=apex) == listed


@settings(max_examples=150, deadline=None)
@given(connected_graph(), st.integers(0, 80))
def test_enumerate_all_equals_filtered_combinations(g, k):
    subsets = map(SpanningTree, combinations(range(g.edge_count), g.vertex_count - 1))
    expected = [t for t in subsets if verify_spanning_tree(g, t)]
    assert list(enumerate_all(g)) == expected
    assert list(enumerate_all(g, limit=k)) == expected[:k]
