"""Randomised cross-checks between the three derivations of the count.

The closed forms in combinatorics (A_k and the recurrence) are checked
against the spoke-subset census they summarise and against the matrix tree
theorem on the built graph, and the term-by-term coefficients against the
binomial form of A_k.  The matrix tree theorem's cycle-minor path is
checked against Bareiss elimination of the explicit minor, and its Bareiss
fallback against the generic enumerator.  The generic enumerator is checked
tree by tree against a filter over all (|V| - 1)-edge subsets, on larger
graphs and long rims against the determinant, and the structured
enumerator against the generic one and, far along long arcs, against its
definition; its tree texts against its tuples joined, on rims whose edge
labels run to four digits.  The Laplacian, degree, adjacency and incidence
matrices of any small graph satisfy L = D - A = M M^T, and the graph
build_jahangir makes unchecked equals the one LabeledGraph's checks make of
its edges.  Every JSON command's output, streamed listings included, is
checked byte for byte against json.dumps(indent=2) of the envelope built in
one piece, and the DOT listing line by line against the trees it draws.
The CLI's strict-form parser is checked against argparse over argv drawn
from the command table and then mutated.  The sequence int rule,
require_ints, is checked against the scalar one, require_int, element by
element.  The ratio rows in ints are checked against the Fractions of two
totals, in lowest terms, and their decimals against decimal_round_half_even.
"""

import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction
from io import StringIO
from itertools import combinations, islice, permutations, product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jahangir import (
    JahangirParams,
    LabeledGraph,
    ParameterDomainError,
    SpanningTree,
    adjacency_matrix,
    build_jahangir,
    census_j2m,
    class_census,
    class_contribution,
    count_spanning_trees_det,
    degree_matrix,
    enumerate_all,
    enumerate_jahangir,
    find_simple_cycles,
    laplacian_matrix,
    oriented_incidence_matrix,
    polynomial_coefficients,
    sigma,
    sigma_k,
    sigma_table,
    verify_spanning_tree,
)
from jahangir.asymptotics import (RatioEntry, RatioSeries, decimal_round_half_even,
                                  ratio_rows, ratio_series)
from jahangir.cli import COMMANDS, _engine_versions, _fast, build_parser, main
from jahangir.combinatorics import _coefficient, sigma_total
from jahangir.cycles import _edge_set_is_simple_cycle
from jahangir.enumeration import (jahangir_tree_edge_indices, jahangir_tree_texts,
                                  tree_edge_indices)
from jahangir.errors import require_int, require_ints
from jahangir.graph_core import cycle_order, rim_arc_edges, spoke_edge
from jahangir.matrix_tree import _det_fraction_free, _laplacian_minor


def census_sum(n, m, k):
    return sum(mult * class_contribution(n, sig) for sig, mult in class_census(m, k))


def explicit_minor_det(g, deleted_vertex):
    return _det_fraction_free(_laplacian_minor(g, deleted_vertex))


def minor_is_one_cycle(g, deleted_vertex):
    """Is g minus deleted_vertex one cycle through all the other vertices?"""
    order = cycle_order(g.vertex_count, [e for e in g.edges if deleted_vertex not in e])
    return order is not None and len(order) == g.vertex_count - 1


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
def connected_graph(draw, min_vertices=1, max_vertices=6, max_extra=None):
    """A random tree on min_vertices..max_vertices vertices plus random extra
    edges (any number, or at most max_extra), with shuffled labels and edge
    order."""
    nv = draw(st.integers(min_vertices, max_vertices))
    label = draw(st.permutations(range(nv)))
    pairs = [(u, v) for v in range(nv) for u in range(v)]
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    rest = [p for p in pairs if p not in tree]
    if max_extra is None:
        extra = [p for p in rest if draw(st.booleans())]
    else:
        extra = draw(st.lists(st.sampled_from(rest), max_size=max_extra, unique=True))
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


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 300))
def test_coefficient_recurrence_equals_binomial_form(m):
    # each term from the one before, against A_k = (m/k) C(m+k-1, 2k-1) on its own
    assert polynomial_coefficients(m) == tuple(_coefficient(m, k) for k in range(1, m + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 50), st.integers(3, 300))
def test_per_k_sums_to_recurrence_total(n, m):
    assert sum(sigma(n, m).per_k) == sigma_table(n, m)[-1][1] == sigma_total(n, m)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(3, 8))
def test_sigma_equals_kirchhoff(n, m):
    # the hub-deleted minor is a cycle: checked against its dense elimination too
    g = build_jahangir(JahangirParams(n, m))
    assert minor_is_one_cycle(g, 0)
    assert sigma(n, m).total == count_spanning_trees_det(g) == explicit_minor_det(g, 0)


@settings(max_examples=100, deadline=None)
@given(apex_plus_cycle())
def test_cycle_minor_equals_bareiss_on_apex_plus_cycle(case):
    g, apex, spokes = case
    assert minor_is_one_cycle(g, apex)
    count = count_spanning_trees_det(g, deleted_vertex=apex)
    assert count == explicit_minor_det(g, apex)
    if spokes == 0:
        assert count == 0


@settings(max_examples=60, deadline=None)
@given(apex_plus_path_or_two_cycles())
def test_bareiss_fallback_equals_enumeration(case):
    g, apex, _ = case
    assert not minor_is_one_cycle(g, apex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # disconnected: no trees
        listed = sum(1 for _ in enumerate_all(g))
    assert count_spanning_trees_det(g, deleted_vertex=apex) == listed


@st.composite
def simple_graph(draw):
    """Any simple graph on 3..6 vertices with at most 10 edges, connected or not."""
    nv = draw(st.integers(3, 6))
    pairs = [(u, v) for v in range(nv) for u in range(v)]
    return LabeledGraph(nv, tuple(draw(st.lists(st.sampled_from(pairs), max_size=10,
                                                 unique=True))))


TWO_TRIANGLES = LabeledGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)))


@settings(max_examples=60, deadline=None)
@given(simple_graph())
@example(TWO_TRIANGLES)
def test_cycle_order_accepts_exactly_the_simple_cycles(g):
    # every edge subset against the census's own depth-first cycle finder;
    # an accepted order walks the subset's edges and nothing else
    accepted = set()
    for r in range(g.edge_count + 1):
        for subset in combinations(range(g.edge_count), r):
            edges = [g.edges[i] for i in subset]
            order = cycle_order(g.vertex_count, edges)
            if order is not None:
                steps = zip(order, order[1:] + order[:1])
                assert {tuple(sorted(step)) for step in steps} == set(edges)
                accepted.add(frozenset(subset))
    assert accepted == find_simple_cycles(g)


@settings(max_examples=60, deadline=None)
@given(simple_graph(), st.integers(0, 5))
@example(TWO_TRIANGLES, 0)
@example(LabeledGraph(5, ((0, 1), (1, 2), (2, 3), (1, 3))), 0)  # a cycle missing vertex 4
def test_verified_subsets_count_the_determinant(g, deleted_vertex):
    # the verifier's connectivity walk against the matrix tree theorem, from any vertex
    deleted_vertex %= g.vertex_count
    subsets = map(SpanningTree, combinations(range(g.edge_count), g.vertex_count - 1))
    accepted = sum(verify_spanning_tree(g, t) for t in subsets)
    assert accepted == count_spanning_trees_det(g, deleted_vertex)


@settings(max_examples=60, deadline=None)
@given(simple_graph())
@example(LabeledGraph(3, ()))
def test_matrix_identities_hold_on_any_graph(g):
    # L = D - A = M M^T, A symmetric with a zero diagonal, M oriented lower to higher
    lap, deg, adj = laplacian_matrix(g), degree_matrix(g), adjacency_matrix(g)
    assert lap.entries == tuple(tuple(d - a for d, a in zip(d_row, a_row))
                                for d_row, a_row in zip(deg.entries, adj.entries))
    inc = oriented_incidence_matrix(g)
    assert lap == inc.matmul(inc.transpose())
    assert adj == adj.transpose()
    assert all(adj.entries[i][i] == 0 for i in range(g.vertex_count))
    for j, (u, v) in enumerate(g.edges):
        column = [row[j] for row in inc.entries]
        assert (column[u], column[v], sum(map(abs, column))) == (1, -1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(3, 40))
def test_built_jahangir_equals_its_checked_rebuild(n, m):
    # build_jahangir skips LabeledGraph's checks, so it must hold what they
    # would: a tuple of (u, v) tuples with u < v
    g = build_jahangir(JahangirParams(n, m))
    rebuilt = LabeledGraph(g.vertex_count, g.edges)
    assert g == rebuilt and hash(g) == hash(rebuilt) and repr(g) == repr(rebuilt)


def leibniz_det(a):
    """The determinant as its defining sum over permutations: the reference."""
    n = len(a)
    return sum((-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
               * prod(a[i][p[i]] for i in range(n)) for p in permutations(range(n)))


@st.composite
def small_square_matrices(draw):
    n = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        a[0][0] = 0  # the first pivot is found by a row swap, or there is none
    return a


@settings(max_examples=300, deadline=None)
@given(small_square_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 2, 1], [0, 1, 3], [5, 0, 2]])
@example([[1, 1, 0], [1, 1, 2], [0, 3, 1]])  # a zero pivot after the first step
def test_bareiss_equals_the_permutation_sum(a):
    assert _det_fraction_free([row[:] for row in a]) == leibniz_det(a)


@settings(max_examples=150, deadline=None)
@given(connected_graph(), st.integers(0, 80))
def test_enumerate_all_equals_filtered_combinations(g, k):
    subsets = map(SpanningTree, combinations(range(g.edge_count), g.vertex_count - 1))
    expected = [t for t in subsets if verify_spanning_tree(g, t)]
    assert list(enumerate_all(g)) == expected
    assert list(islice(enumerate_all(g), k)) == expected[:k]


@settings(max_examples=60, deadline=None)
@given(connected_graph(min_vertices=7, max_vertices=10, max_extra=7))
def test_enumerate_all_on_larger_graphs(g):
    # past the reach of the combinations filter: at most C(16, 9) = 11440
    # trees, strictly increasing, each verified, as many as the determinant
    trees = [t.edge_indices for t in enumerate_all(g)]
    assert all(a < b for a, b in zip(trees, trees[1:]))
    assert all(verify_spanning_tree(g, SpanningTree(t)) for t in trees)
    assert len(trees) == count_spanning_trees_det(g)


# Every J(n, m) with at most 3000 trees: the generic enumerator lists each
# in well under a second.
SMALL_TREE_COUNTS = [(n, m) for n in range(2, 15) for m in range(3, 8)
                     if sigma(n, m).total <= 3000]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_TREE_COUNTS))
def test_structured_listing_equals_generic_listing(nm):
    params = JahangirParams(*nm)
    structured = sorted(enumerate_jahangir(params), key=lambda t: t.edge_indices)
    assert structured == list(enumerate_all(build_jahangir(params)))
    assert len(structured) == sigma(*nm).total


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.tuples(st.integers(10, 25), st.just(3)),
                 st.tuples(st.integers(3, 10), st.just(4))))
def test_generic_listing_of_long_rims_counts_sigma(nm):
    # up to sigma(10, 4) = 20160 trees on up to 76 vertices, where most
    # left-out rim edges cut off a run of the rim that no later edge reaches
    g = build_jahangir(JahangirParams(*nm))
    trees = tree_edge_indices(g)
    first = last = next(trees)
    listed = 1
    for listed, last in enumerate(trees, 2):
        pass
    assert listed == sigma_total(*nm) == count_spanning_trees_det(g)
    assert verify_spanning_tree(g, SpanningTree(first))
    assert verify_spanning_tree(g, SpanningTree(last))


def lex_spoke_subsets(m, head=()):
    """Nonempty subsets of 1..m in lexicographic tuple order, extending head."""
    for j in range(head[-1] + 1 if head else 1, m + 1):
        yield head + (j,)
        yield from lex_spoke_subsets(m, head + (j,))


def structured_deletions(params):
    """The structured order by its definition: for each spoke subset, the
    product of its arcs' rim edges, one deleted per arc, the wrap arc fastest."""
    for subset in lex_spoke_subsets(params.m):
        k = len(subset)
        arcs = [rim_arc_edges(params, j, (subset[(i + 1) % k] - j - 1) % params.m + 1)
                for i, j in enumerate(subset)]
        spokes = tuple(spoke_edge(params, j) for j in subset)
        for deletion in product(*arcs):
            yield deletion, spokes


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30), st.integers(3, 25), st.integers(0, 5000), st.integers(0, 200))
def test_spliced_trees_equal_sorted_set_difference(n, m, skip, take):
    # arcs up to 750 rim edges long, past the graphs the generic check can list
    params = JahangirParams(n, m)
    rim = set(range(n * m))
    expected = [tuple(sorted(rim.difference(deletion))) + spokes for deletion, spokes
                in islice(structured_deletions(params), skip, skip + take)]
    assert list(islice(jahangir_tree_edge_indices(params), skip, skip + take)) == expected


# Trees the one-piece reference renders in about a second and a half: only
# the full listing of J(4, 7), 228 484 trees, is larger, and it is drawn
# with a limit instead.
LISTING_BUDGET = 60_000


def run_cli(argv):
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(argv)
    return code, out.getvalue()


def mask_timestamp(text):
    head, key, rest = text.partition('"timestamp": "')
    return head + key + "*" + rest[rest.index('"'):] if key else text


def one_piece(command, parameters, result, timestamp):
    envelope = {"command": command, "parameters": parameters, "result": result,
                "engine_versions": _engine_versions()}
    if timestamp:
        envelope["timestamp"] = "*"
    return json.dumps(envelope, indent=2) + "\n"


@st.composite
def listing_query(draw):
    """(n, m, limit, timestamp): n = 1 is refused, limits reach past sigma."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(3, 7))
    total = sigma(n, m).total if n >= 2 else 0
    # n * m^2 trees keep one spoke: a limit up to it is announced without sigma
    limits = [st.just(0), st.just(1), st.integers(0, min(total, LISTING_BUDGET)),
              st.just(n * m * m), st.just(n * m * m + 1)]
    if total <= LISTING_BUDGET:
        limits += [st.none(), st.integers(total + 1, total + 100)]
    return n, m, draw(st.one_of(limits)), draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(listing_query())
@example((2, 5, 20, False))  # edge indices past 10
@example((3, 40, 20, False))  # past 100
@example((30, 40, 5, True))  # past 1000
def test_streamed_enumerate_equals_one_piece_json(query):
    n, m, limit, timestamp = query
    argv = ["enumerate", "--n", str(n), "--m", str(m)]
    argv = (["--timestamp"] if timestamp else []) + argv
    code, out = run_cli(argv + ([] if limit is None else ["--limit", str(limit)]))
    try:
        trees = [list(t.edge_indices)
                 for t in islice(enumerate_jahangir(JahangirParams(n, m)), limit)]
    except ParameterDomainError:
        assert (code, out) == (2, "")
        return
    result = {"n": n, "m": m, "limit": limit, "count": len(trees), "trees": trees}
    parameters = {"n": n, "m": m, "limit": limit, "format": "json"}
    assert code == 0
    total = sigma(n, m).total  # the count announced on either side of limit n * m^2
    assert json.loads(out)["result"]["count"] == (total if limit is None else min(limit, total))
    assert mask_timestamp(out) == one_piece("enumerate", parameters, result, timestamp)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 40), st.integers(3, 200), st.integers(0, 2000), st.integers(0, 2000))
def test_tree_texts_equal_joined_tuples(n, m, skip, take):
    # rims of up to 8000 edges: labels of one to four digits, so the rim's
    # text is cut at offsets of every width; each text is a whole element
    # of a JSON listing at indent 6, its brackets on lines of their own
    params = JahangirParams(n, m)
    tuples = islice(jahangir_tree_edge_indices(params), skip, skip + take)
    expected = ["\n      [\n        " + ",\n        ".join(map(str, t)) + "\n      ]"
                for t in tuples]
    assert list(islice(jahangir_tree_texts(params), skip, skip + take)) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(3, 60), st.booleans())
def test_streamed_graph_equals_one_piece_json(n, m, timestamp):
    argv = ["graph", "--n", str(n), "--m", str(m), "--format", "json"]
    code, out = run_cli((["--timestamp"] if timestamp else []) + argv)
    try:
        g = build_jahangir(JahangirParams(n, m))
    except ParameterDomainError:
        assert (code, out) == (2, "")
        return
    result = {"n": n, "m": m, "vertex_count": g.vertex_count, "edge_count": g.edge_count,
              "edges": [[u, v] for u, v in g.edges]}
    parameters = {"n": n, "m": m, "format": "json"}
    assert code == 0
    assert mask_timestamp(out) == one_piece("graph", parameters, result, timestamp)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 40), st.booleans())
def test_streamed_cycles_equals_one_piece_json(m, timestamp):
    argv = ["cycles", "--m", str(m)]
    code, out = run_cli((["--timestamp"] if timestamp else []) + argv)
    # the reference walks the records and asks the checker, where the CLI
    # uses the closed forms
    g = build_jahangir(JahangirParams(2, m))
    records, histogram = [], {}
    for r in census_j2m(m):
        histogram[str(r.length)] = histogram.get(str(r.length), 0) + 1
        records.append({"spoke_span": list(r.spoke_span), "length": r.length,
                        "edge_indices": list(r.edge_indices),
                        "is_simple_cycle": _edge_set_is_simple_cycle(g, r.edge_indices)})
    result = {"m": m, "record_count": len(records),
              "simple_cycle_count": sum(r["is_simple_cycle"] for r in records),
              "length_histogram": histogram, "records": records}
    assert code == 0
    assert mask_timestamp(out) == one_piece("cycles", {"m": m}, result, timestamp)


@st.composite
def unstreamed_query(draw):
    """(argv, parameters, result) of count (each --method, with and without
    --breakdown), coeffs, table --format json or ratios, result None where
    the arguments are refused; n 1 and m 2 are."""
    command = draw(st.sampled_from(["count", "coeffs", "table", "ratios"]))
    n, m = draw(st.integers(1, 9)), draw(st.integers(2, 16))
    try:
        if command == "count":
            method = draw(st.sampled_from(["combinatorial", "kirchhoff", "enumerate", "all"]))
            if method in ("enumerate", "all"):  # a listing of every tree: small graphs only
                n, m = min(n, 3), min(m, 5)
            breakdown = draw(st.booleans())
            argv = ["count", "--n", str(n), "--m", str(m), "--method", method]
            argv += ["--breakdown"] if breakdown else []
            parameters = {"n": n, "m": m, "method": method, "breakdown": breakdown}
            counted = sigma(n, m)
            total = str(counted.total if method == "combinatorial"
                        else count_spanning_trees_det(build_jahangir(JahangirParams(n, m))))
            result = {"n": n, "m": m, "method": method}
            if method == "all":
                result |= {"engines": dict.fromkeys(["combinatorial", "kirchhoff", "enumerate"],
                                                    total), "agreement": True}
            result["total"] = total
            if breakdown:
                result["per_k"] = [str(v) for v in counted.per_k]
        elif command == "coeffs":
            argv, parameters = ["coeffs", "--m", str(m)], {"m": m}
            result = {"m": m, "coefficients": [str(c) for c in polynomial_coefficients(m)]}
        elif command == "table":
            argv = ["table", "--n", str(n), "--m-max", str(m), "--format", "json"]
            parameters = {"n": n, "m_max": m, "format": "json"}
            if m < 3:
                raise ParameterDomainError("m_max must be >= 3")
            result = {"n": n, "m_max": m, "rows": [{"m": k, "sigma": str(sigma(n, k).total)}
                                                   for k in range(3, m + 1)]}
        else:
            precision, comma = draw(st.integers(0, 30)), draw(st.booleans())
            argv = ["ratios", "--n", str(n), "--m-max", str(m), "--precision", str(precision)]
            argv += ["--decimal-comma"] if comma else []
            parameters = {"n": n, "m_max": m, "precision": precision, "decimal_comma": comma}
            if m < 4:
                raise ParameterDomainError("m_max must be >= 4")
            entries = []
            for k in range(3, m):
                r = Fraction(sigma(n, k + 1).total, sigma(n, k).total)
                decimal = decimal_round_half_even(r, precision)
                entries.append({"m": k, "ratio": f"{r.numerator}/{r.denominator}",
                                "decimal": decimal.replace(".", ",") if comma else decimal})
            result = {"n": n, "m_max": m, "precision": precision, "entries": entries}
    except ParameterDomainError:
        result = None
    return argv, parameters, result


@settings(max_examples=150, deadline=None)
@given(unstreamed_query(), st.booleans())
def test_unstreamed_commands_equal_one_piece_json(query, timestamp):
    argv, parameters, result = query
    code, out = run_cli((["--timestamp"] if timestamp else []) + argv)
    if result is None:
        assert (code, out) == (2, "")
        return
    assert code == 0
    assert mask_timestamp(out) == one_piece(argv[0], parameters, result, timestamp)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(4, 120), st.integers(0, 40))
def test_ratio_rows_are_reduced_and_rounded(n, m_max, places):
    rows = list(ratio_rows(n, m_max, places))
    assert [m for m, *_ in rows] == list(range(3, m_max))
    expected = []
    for m, num, den, decimal in rows:
        exact = Fraction(sigma_total(n, m + 1), sigma_total(n, m))
        assert gcd(num, den) == 1 and Fraction(num, den) == exact
        assert decimal == decimal_round_half_even(exact, places)
        expected.append(RatioEntry(m, exact, decimal))
    # the series wraps the rows: each entry the exact ratio of two totals
    assert ratio_series(n, m_max, places) == RatioSeries(n, tuple(expected))


DOT_VERTEX = re.compile(r"  v(\d+);")
DOT_EDGE = re.compile(r"  v(\d+) -- v(\d+)( \[style=dashed\])?;")


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(3, 6), st.integers(0, 40))
@example(4, 6, 600)  # past one tree and then 256: the listing's first two chunk seams
def test_dot_listing_draws_each_tree_in_its_host(n, m, limit):
    argv = ["enumerate", "--n", str(n), "--m", str(m), "--limit", str(limit), "--format", "dot"]
    code, out = run_cli(argv)
    params = JahangirParams(n, m)
    g = build_jahangir(params)
    trees = list(islice(enumerate_jahangir(params), limit))
    assert code == 0
    # one drawing per tree, each ending in a newline, one blank line between
    assert out.endswith("}\n") if trees else out == ""
    blocks = out[:-1].split("\n\n") if out else []
    assert len(blocks) == len(trees)
    for i, (block, tree) in enumerate(zip(blocks, trees)):
        lines = block.split("\n")
        assert lines[0] == f"graph tree_{i} {{" and lines[-1] == "}"
        body = lines[1:-1]
        assert len(body) == g.vertex_count + g.edge_count
        vertices = [DOT_VERTEX.fullmatch(x) for x in body[:g.vertex_count]]
        assert [int(v.group(1)) for v in vertices] == list(range(g.vertex_count))
        edges = [DOT_EDGE.fullmatch(x) for x in body[g.vertex_count:]]
        assert [(int(e.group(1)), int(e.group(2))) for e in edges] == list(g.edges)
        solid = {i for i, e in enumerate(edges) if e.group(3) is None}
        assert solid == set(tree.edge_indices)


OPTIONS = sorted({option for _, _, *flags in COMMANDS.values() for option, _ in flags})
CHOICES = sorted({c for _, _, *flags in COMMANDS.values() for _, kw in flags
                  for c in kw.get("choices", ())})
# strings int() reads and ones it refuses, the empty one and "-" among them,
# and every choice
VALUES = st.one_of(st.integers(-3, 20).map(str), st.sampled_from(
    ["0x10", "1_0", "-1_0", " 3", "3 ", "+3", "\u0663", "3.0", "", "-", *CHOICES]))
# stray words: flags of any subcommand, a value, and words argparse reads at
# the top level or not at all
WORDS = st.one_of(st.sampled_from(OPTIONS), VALUES, st.sampled_from(
    ["--timestamp", "-h", "--help", "--", "--bogus", "stray", *COMMANDS]))
# each takes the words of a flag and its value (or of the command, after
# any --timestamp) and gives the lists of words to put in their place
MUTATIONS = {
    "abbreviate": lambda draw, w: [[w[0][:draw(st.integers(0, len(w[0])))], *w[1:]]],
    "join with =": lambda draw, w: [["=".join(w)]],
    "repeat": lambda draw, w: [w, w[:1] + [draw(VALUES)] * (len(w) - 1)],
    "swap the value": lambda draw, w: [[w[0], draw(VALUES)]],
    "drop the value": lambda draw, w: [w[:1]],
    "drop": lambda draw, w: [],
    "put a word before": lambda draw, w: [[draw(WORDS)], w],
}


@st.composite
def cli_argv(draw):
    """(argv, mutated): an argv of the strict form drawn from COMMANDS (every
    required flag, some others, in any order) and, when mutated, its words
    changed up to three times as MUTATIONS do it."""
    command = draw(st.sampled_from(list(COMMANDS)))
    _, _, *flags = COMMANDS[command]
    pairs = []
    for option, keywords in flags:
        if not keywords.get("required") and draw(st.booleans()):
            continue
        if keywords.get("action") == "store_true":
            pairs.append([option])
        elif "choices" in keywords:
            pairs.append([option, draw(st.sampled_from(keywords["choices"]))])
        else:
            pairs.append([option, str(draw(st.integers(0, 10**6)))])
    pairs = [["--timestamp"] * draw(st.booleans()) + [command], *draw(st.permutations(pairs))]
    mutations = draw(st.lists(st.sampled_from(list(MUTATIONS)), max_size=3))
    for how in mutations:
        # a flag of the argv or, past its end, a flag of any subcommand
        i = draw(st.integers(0, len(pairs)))
        words = pairs[i] if i < len(pairs) else [draw(st.sampled_from(OPTIONS)), draw(VALUES)]
        pairs[i:i + 1] = MUTATIONS[how](draw, words)
    return [word for pair in pairs for word in pair], bool(mutations)


def parsed_by_argparse(argv):
    """build_parser's Namespace for argv, or None where argparse exits."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(cli_argv())
@example((["count", "--meth", "all", "--n", "2", "--m", "4"], True))
@example((["count", "--n=2", "--m", "4"], True))
@example((["count", "--n", "2", "--m", "4", "--n", "3"], True))
@example((["count", "--n", "x", "--n", "2", "--m", "4"], True))
@example((["enumerate", "--n", "2", "--m", "3", "--limit", "-1"], True))
@example((["count", "--n", "0x10", "--m", "4"], True))
@example((["enumerate", "--n", "2", "--m", "3", "--limit", "-1_0"], True))
@example((["graph", "--n", "2", "--m", "3", "--format", "csv"], True))
@example((["count", "--n", "1_0", "--m", " 3"], True))
@example((["count", "--n", "\u0663", "--m", "4"], True))
@example((["table", "--n", "", "--m-max", "4"], True))
@example((["count", "--n", "2", "--m", "4", "--bogus", "1"], True))
@example((["count", "--n", "2", "--m", "4", "--limit", "3"], True))
@example((["count", "--n", "2", "stray", "--m", "4"], True))
@example((["count", "--timestamp", "--n", "2", "--m", "4"], True))
@example((["count", "-h"], True))
@example((["count", "--n", "2", "--m"], True))
def test_fast_parse_is_argparse_or_none(case):
    argv, mutated = case
    fast = _fast(argv)
    if not mutated:
        assert fast is not None
    if fast is not None:
        parsed = parsed_by_argparse(argv)
        assert parsed is not None
        assert list(vars(fast).items()) == list(vars(parsed).items())


class Level(IntEnum):  # an int subclass, which the int rule takes
    LOW = -1
    HIGH = 4


INT_RULE_ITEMS = st.one_of(st.integers(-4, 6), st.booleans(), st.sampled_from(list(Level)),
                           st.floats(-4, 6, allow_nan=False), st.sampled_from([None, "3"]))


def first_refusal(values, lo, hi):
    """The message of the first element require_int refuses, or None."""
    for x in values:
        try:
            require_int(x, lo, "item", hi)
        except ParameterDomainError as exc:
            return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.lists(INT_RULE_ITEMS, max_size=6), st.none() | st.integers(-3, 5),
       st.none() | st.integers(-3, 5))
@example([Level.LOW], 0, None)
@example([Level.HIGH], 0, 3)
@example([Level.LOW, 2.0], None, None)
@example([3, True], 0, None)
@example([5], 1, 4)
@example([2], 3, 1)
def test_require_ints_is_require_int_on_each_element(values, lo, hi):
    expected = first_refusal(values, lo, hi)
    if expected is None:
        checked = require_ints(iter(values), lo, "item", hi)  # any iterable, read once
        assert type(checked) is tuple and len(checked) == len(values)
        assert all(a is b for a, b in zip(checked, values))
    else:
        with pytest.raises(ParameterDomainError) as refused:
            require_ints(iter(values), lo, "item", hi)
        assert str(refused.value) == expected
