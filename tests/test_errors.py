"""Every refusal in one place: the integer-argument rule of errors.require_int
across the public count, ratio, census, graph and determinant functions, and
the structural invariants of the package's dataclasses."""

import re
from collections.abc import Iterator
from fractions import Fraction

import pytest

from jahangir import (
    CensusReport,
    ConjectureReport,
    CycleRecord,
    DeltaEstimate,
    GapSignature,
    IntegerMatrix,
    JahangirParams,
    LabeledGraph,
    NDirectionRatios,
    ParameterDomainError,
    RatioSeries,
    SpanningTree,
    SpokeCombination,
    TreeCountBreakdown,
    census_j2m,
    class_census,
    class_contribution,
    conjecture_report,
    count_spanning_trees_det,
    decimal_round_half_even,
    decimal_truncate,
    delta_estimate,
    n_direction_ratios,
    polynomial_coefficients,
    ratio,
    ratio_series,
    sigma,
    sigma_k,
    sigma_table,
    to_dot,
    verify_census,
)
from jahangir.asymptotics import RatioEntry
from jahangir.combinatorics import gap_transform, sigma_total
from jahangir.cycles import census_records
from jahangir.graph_core import rim_arc_edges, spoke_edge

try:
    import numpy as np
except ImportError:  # numpy is an optional extra
    np = None

TRIANGLE = LabeledGraph(3, ((0, 1), (1, 2), (0, 2)))
J23 = JahangirParams(2, 3)  # edges 0..8, spokes 1..3
# census_j2m(3) as (spoke_span, edge_indices), k = 1, 2, 3; simple below k = 3
CENSUS_3 = [CycleRecord(span, 2 * (len(span) + 1), edges, len(span) < 3) for span, edges in [
    ((1,), (0, 1, 6, 7)), ((2,), (2, 3, 7, 8)), ((3,), (4, 5, 6, 8)),
    ((1, 2), (0, 1, 2, 3, 6, 8)), ((2, 3), (2, 3, 4, 5, 6, 7)), ((3, 1), (0, 1, 4, 5, 7, 8)),
    ((1, 2, 3), (0, 1, 2, 3, 4, 5, 6)), ((2, 3, 1), (0, 1, 2, 3, 4, 5, 7)),
    ((3, 1, 2), (0, 1, 2, 3, 4, 5, 8))]]

# (function, a valid call, what it returns); every int among the arguments
# is an integer parameter that require_int checks
CALLS = [
    (sigma_total, dict(n=2, m=5), 722),
    (sigma_table, dict(n=2, m_max=5), ((3, 50), (4, 192), (5, 722))),
    (sigma, dict(n=2, m=4), TreeCountBreakdown(2, 4, (32, 80, 64, 16), 192)),
    (sigma_k, dict(n=2, m=5, k=2), 200),
    (polynomial_coefficients, dict(m=5), (25, 50, 35, 10, 1)),
    (class_census, dict(m=4, k=2),
     [(GapSignature(2, (0, 2)), 4), (GapSignature(2, (1, 1)), 2)]),
    (class_contribution, dict(n=3, sig=GapSignature(2, (0, 2))), 27),
    (ratio, dict(n=2, m=4), Fraction(361, 96)),
    (ratio_series, dict(n=2, m_max=5, places=3),
     RatioSeries(2, (RatioEntry(3, Fraction(96, 25), "3.840"),
                     RatioEntry(4, Fraction(361, 96), "3.760")))),
    (n_direction_ratios, dict(m=3, n_max=4),
     NDirectionRatios(3, ((3, Fraction(54, 25)), (4, Fraction(49, 27))), True)),
    (delta_estimate, dict(n=2, m_used=7, places=4),
     DeltaEstimate(2, 7, "3.7326", (Fraction(18816, 5041), Fraction(5041, 1350)))),
    (conjecture_report, dict(n=2, m=4, m_used=6),
     ConjectureReport(2, 4, 6, Fraction(5041, 27), 192, Fraction(143, 5184),
                      "186.7037", "0.027585")),
    (decimal_truncate, dict(x=Fraction(-7, 3), places=2), "-2.33"),
    (decimal_round_half_even, dict(x=Fraction(-7, 3), places=2), "-2.33"),
    (census_records, dict(m=3), CENSUS_3),
    (census_j2m, dict(m=3), CENSUS_3),
    (verify_census, dict(m=3),
     CensusReport(3, 9, 6, 7, False, True, ((0, 1, 2, 3, 4, 5),),
                  ((1, 2, 3), (2, 3, 1), (3, 1, 2)))),
    (JahangirParams, dict(n=2, m=3), JahangirParams(2, 3)),
    (LabeledGraph, dict(vertex_count=3, edges=((0, 1), (1, 2))),
     LabeledGraph(3, ((0, 1), (1, 2)))),
    (count_spanning_trees_det, dict(g=TRIANGLE, deleted_vertex=2), 3),
]

# stand-ins for a valid int value that the rule refuses
IMPOSTORS = {"float": float, "bool": lambda v: True, "str": str}
if np is not None:
    IMPOSTORS["numpy.int64"] = np.int64

ARGUMENTS = [pytest.param(fn, kwargs, name, kind, id=f"{fn.__name__}-{name}-{kind}")
             for fn, kwargs, _ in CALLS
             for name, value in kwargs.items() if type(value) is int
             for kind in IMPOSTORS]


def call(fn, kwargs):
    result = fn(**kwargs)
    return list(result) if isinstance(result, Iterator) else result


@pytest.mark.parametrize("fn, kwargs, expected", CALLS, ids=[c[0].__name__ for c in CALLS])
def test_int_arguments_return_the_pinned_values(fn, kwargs, expected):
    assert call(fn, kwargs) == expected


@pytest.mark.parametrize("fn, kwargs, name, kind", ARGUMENTS)
def test_every_integer_parameter_refuses_a_non_int(fn, kwargs, name, kind):
    bad = dict(kwargs, **{name: IMPOSTORS[kind](kwargs[name])})
    with pytest.raises(ParameterDomainError, match=rf"\b{name}\b"):
        call(fn, bad)


def test_counts_refuse_what_once_gave_a_wrong_count():
    # a float n gave float rows, and a numpy n wrapped round past 2^63
    with pytest.raises(ParameterDomainError, match="n must be an int"):
        sigma_table(2.5, 5)
    with pytest.raises(ParameterDomainError, match="m must be an int"):
        sigma_total(2, 5.0)
    if np is not None:
        with pytest.raises(ParameterDomainError, match="n must be an int"):
            sigma_total(np.int64(2), 40)
    assert sigma_total(2, 40) == 75492168629825517411072


@pytest.mark.parametrize("call_with, message", [
    (lambda: count_spanning_trees_det(TRIANGLE, -1), "deleted_vertex -1 out of range 0..2"),
    (lambda: count_spanning_trees_det(TRIANGLE, 3), "deleted_vertex 3 out of range 0..2"),
    (lambda: sigma_k(2, 4, 5), "k 5 out of range 1..4"),
    (lambda: class_census(4, 0), "k 0 out of range 1..4"),
    (lambda: LabeledGraph(0, ()), "vertex_count must be >= 1 (got 0)"),
    (lambda: decimal_truncate(Fraction(1), -1), "places must be >= 0 (got -1)"),
    (lambda: ratio_series(2, 5, places=-1), "places must be >= 0 (got -1)"),
    (lambda: spoke_edge(J23, 0), "j 0 out of range 1..3"),
    (lambda: spoke_edge(J23, 4), "j 4 out of range 1..3"),
    (lambda: rim_arc_edges(J23, 1, 4), "arcs 4 out of range 1..3"),
    (lambda: TreeCountBreakdown(2, 2, (4, 1), 5), "m must be >= 3 (got 2)"),
    # two bad arguments: the first checked is the one named
    (lambda: ratio_series(1, 3), "n must be >= 2 (got 1)"),
    (lambda: n_direction_ratios(2, 2), "m must be >= 3 (got 2)"),
    (lambda: delta_estimate(1, 5), "n must be >= 2 (got 1)"),
], ids=["below", "above", "sigma_k", "class_census", "vertex_count", "truncate", "series",
        "spoke-j-0", "spoke-j-4", "rim-arcs-4", "breakdown-m", "series-order",
        "n-direction-order", "delta-order"])
def test_bounds_are_refused_with_the_bound(call_with, message):
    with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
        call_with()


@pytest.mark.parametrize("build, message", [
    (lambda: SpokeCombination(4, 2, (1,)), "index count does not match k"),
    (lambda: SpokeCombination(4, 2, (2, 2)), "strictly increasing"),
    (lambda: SpokeCombination(4, 2, (0, 2)), "index 0 out of range 1..4"),
    (lambda: GapSignature(2, (0,)), "gap count does not match k"),
    (lambda: GapSignature(2, (-1, 3)), r"gap must be >= 0 \(got -1\)"),
    (lambda: GapSignature(2, (2, 0)), "sorted ascending"),
    (lambda: TreeCountBreakdown(2, 3, (1, 2), 3), "one entry per k"),
    (lambda: TreeCountBreakdown(2, 3, (1, 2, 3), 7), "sum of per_k"),
    (lambda: IntegerMatrix(2, 1, ((1,),)), "row count"),
    (lambda: IntegerMatrix(1, 2, ((1,),)), "column count"),
    (lambda: IntegerMatrix(1, 2, ((1, 2),)).matmul(IntegerMatrix(1, 2, ((1, 2),))),
     "inner dimensions"),
], ids=["spoke-count", "spoke-order", "spoke-range", "gap-count", "gap-sign", "gap-order",
        "per-k-length", "total", "rows", "cols", "matmul"])
def test_structural_invariants_refuse(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, items", [
    (SpanningTree, [0, 1]),
    (lambda xs: SpokeCombination(4, 2, xs), [1, 2]),
    (lambda xs: GapSignature(2, xs), [0, 2]),
    (lambda xs: TreeCountBreakdown(2, 3, xs, 6), [1, 2, 3]),
    (lambda xs: IntegerMatrix(1, 2, [xs]), [1, 2]),  # the list is a row
], ids=["tree", "spokes", "gaps", "per-k", "matrix"])
def test_value_types_hold_the_tuples_they_checked(build, items):
    source = list(items)
    value = build(source)
    assert value == build(tuple(items))
    hash(value)
    source.reverse()
    assert value == build(tuple(items))


@pytest.mark.parametrize("build, message", [
    (lambda: gap_transform(SpokeCombination(5.0, 2, (1, 2))), "m must be an int (got float)"),
    (lambda: SpokeCombination("5", 2, (1, 2)), "m must be an int (got str)"),
    (lambda: GapSignature(True, (0,)), "k must be an int (got bool)"),
    (lambda: GapSignature(2, (0.5, 1.5)), "gap must be an int (got float)"),
    (lambda: TreeCountBreakdown(2.0, 3, (1, 2, 3), 6), "n must be an int (got float)"),
    (lambda: SpokeCombination(4, 2, (1, 2.5)), "index must be an int (got float)"),
    (lambda: SpokeCombination(4, 2, (True, 2)), "index must be an int (got bool)"),
    (lambda: TreeCountBreakdown(2, 3, (1.5, 2, 3), 6.5), "per_k entry must be an int (got float)"),
    (lambda: TreeCountBreakdown(2, 3, (1, 2, 3), 6.0), "total must be an int (got float)"),
    (lambda: LabeledGraph(3, ((0, True),)), "endpoint must be an int (got bool)"),
    (lambda: LabeledGraph(3, ((1.0, 2),)), "endpoint must be an int (got float)"),
    (lambda: to_dot(TRIANGLE, {True}), "edge index must be an int (got bool)"),
    (lambda: to_dot(TRIANGLE, [0, 1.0]), "edge index must be an int (got float)"),
    (lambda: SpanningTree((False, 1, 2, 3, 4, 6)), "edge index must be an int (got bool)"),
    (lambda: SpanningTree((0.0, 1, 2, 3, 4, 6)), "edge index must be an int (got float)"),
    (lambda: SpanningTree((-1, 0)), "edge index must be >= 0 (got -1)"),
    (lambda: IntegerMatrix(True, 1, [[1]]), "rows must be an int (got bool)"),
    (lambda: IntegerMatrix(1, 1.0, [[1]]), "cols must be an int (got float)"),
    (lambda: IntegerMatrix(1, 1, [[1.5]]), "entry must be an int (got float)"),
    (lambda: IntegerMatrix(1, 2, [[0, True]]), "entry must be an int (got bool)"),
    (lambda: spoke_edge(J23, True), "j must be an int (got bool)"),
    (lambda: rim_arc_edges(J23, 2.0, 1), "j must be an int (got float)"),
], ids=["spoke-m-float", "spoke-m-str", "gap-k-bool", "gap-float", "breakdown-n-float",
        "spoke-index-float", "spoke-index-bool", "per-k-float", "total-float",
        "endpoint-bool", "endpoint-float", "dot-index-bool", "dot-index-float",
        "tree-index-bool", "tree-index-float", "tree-index-negative",
        "matrix-rows-bool", "matrix-cols-float", "matrix-entry-float", "matrix-entry-bool",
        "spoke-j-bool", "rim-j-float"])
def test_derivation_fields_follow_the_int_rule(build, message):
    # a float m once gave a float gap, a str m a bare TypeError, a bool
    # endpoint a vertex named vTrue, a bool edge index highlighted edge 1, a
    # tree led by index False passed the verifier, a matrix of True rows
    # equalled one of 1 row, and spoke True was edge 6
    with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
        build()
