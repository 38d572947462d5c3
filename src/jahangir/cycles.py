"""Cycle census of J(2, m).

J(2, m) is m inner 4-cycles around the hub, consecutive ones sharing a
spoke.  Joining a run of k consecutive inner cycles (deleting the k - 1
shared spokes) gives an edge set with the two boundary spokes plus the rim
segment between them: a simple cycle of length 2(k + 1) whenever k < m.
There are m runs per k, hence m * m records in total and a claimed global
cycle count of m squared.

The k = m case degenerates: the two boundary spokes coincide, so the edge
set is the whole rim plus a single spoke (2m + 1 edges, hub degree 1), not
a cycle.  The rim cycle itself, length 2m, never arises from the joining
construction.  The graph's true simple-cycle count is therefore
m*m - m + 1.  census_records(m), n = 2 fixed and m checked when called,
yields all m*m records lazily, marking the degenerate ones; census_j2m
lists them, and verify_census reconciles them with an independent generic
enumerator, checking each record's edge set with graph_core.cycle_order.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import SizeGuardError
from .graph_core import (JahangirParams, LabeledGraph, build_jahangir, cycle_order,
                         rim_arc_edges, spoke_edge)

VERIFY_GUARD = 8  # generic cycle enumeration is exponential; keep it small


@dataclass(frozen=True)
class CycleRecord:
    """One joined run of consecutive inner cycles of J(2, m).

    spoke_span lists the joined inner-cycle indices in cyclic order.
    length is the closed-form value 2(k + 1); for spans with k < m it
    equals len(edge_indices), for k = m it does not, and is_simple_cycle
    records whether the edge set actually forms a simple cycle.
    """

    spoke_span: tuple[int, ...]
    length: int
    edge_indices: tuple[int, ...]
    is_simple_cycle: bool


@dataclass(frozen=True)
class CensusReport:
    """Reconciliation of the structured census against generic enumeration."""

    m: int
    record_count: int
    simple_record_count: int
    generic_count: int
    claim_matches_generic: bool
    simple_records_found_generically: bool
    generic_missing_from_census: tuple[tuple[int, ...], ...]
    degenerate_spans: tuple[tuple[int, ...], ...]

    def summary(self) -> str:
        return (
            f"m={self.m}: {self.record_count} census records, "
            f"{self.simple_record_count} of them simple cycles; generic enumeration "
            f"finds {self.generic_count}; claimed count matches generic: "
            f"{self.claim_matches_generic}; cycles absent from the census: "
            f"{len(self.generic_missing_from_census)} (the rim); degenerate spans: "
            f"{len(self.degenerate_spans)} (all of size m)"
        )


def _edge_set_is_simple_cycle(g: LabeledGraph, edge_indices: tuple[int, ...]) -> bool:
    """True when the edges form one simple cycle, as graph_core.cycle_order decides."""
    return cycle_order(g.vertex_count, [g.edges[i] for i in edge_indices]) is not None


def census_records(m: int) -> Iterator[CycleRecord]:
    """The census_j2m(m) records one at a time, m refused at the call, before any.
    is_simple_cycle is the proven k < m: no graph built, no record checked."""
    params = JahangirParams(2, m)
    around = tuple(range(1, m + 1)) * 2  # a run of k inner cycles is a slice

    def records():
        for k in range(1, m + 1):
            for start in range(m):
                first, last = around[start], around[start + k]  # last == first when k == m
                spokes = sorted({spoke_edge(params, first), spoke_edge(params, last)})
                yield CycleRecord(around[start:start + k], 2 * (k + 1),
                                  tuple(rim_arc_edges(params, first, k) + spokes), k < m)
    return records()


def census_j2m(m: int) -> list[CycleRecord]:
    """All m*m joined-run records of J(2, m), k = 1..m, each of the m starts.

    Records are ordered by k, then by starting inner cycle.  Every k < m
    record is a simple cycle of length 2(k + 1); the m records at k = m are
    degenerate (rim plus one spoke) and carry is_simple_cycle False.
    """
    return list(census_records(m))


def find_simple_cycles(g: LabeledGraph) -> set[frozenset[int]]:
    """All simple cycles of a graph as frozensets of edge indices.

    Depth-first path extension from each start vertex, visiting only larger
    vertices so each cycle is found from its minimum vertex; the direction
    duplicate is dropped by requiring the second path vertex to be smaller
    than the last.
    """
    index = {}
    for i, (u, v) in enumerate(g.edges):
        index[(u, v)] = i
        index[(v, u)] = i
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)

    cycles: set[frozenset[int]] = set()

    def extend(s: int, v: int):
        for w in adj[v]:
            if w == s and path[1] < path[-1]:
                cyc = [index[(path[i], path[i + 1])] for i in range(len(path) - 1)]
                cyc.append(index[(path[-1], s)])
                cycles.add(frozenset(cyc))
            elif w > s and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(s, w)
                path.pop()
                on_path.remove(w)

    for s in range(g.vertex_count):
        path = [s]
        on_path = {s}
        extend(s, s)
    return cycles


def verify_census(m: int) -> CensusReport:
    """Compare census_j2m(m) with generic enumeration on the actual graph.

    Expected outcome for every m: the m(m - 1) simple records are exactly
    the generic cycles minus the rim, the m degenerate records are the
    k = m spans, and the claimed total m*m differs from the true count
    m*m - m + 1.
    """
    params = JahangirParams(2, m)  # m refused before it meets the guard
    if m > VERIFY_GUARD:
        raise SizeGuardError(f"generic verification limited to m <= {VERIFY_GUARD} (got {m})")
    records = list(census_records(m))
    g = build_jahangir(params)
    generic = find_simple_cycles(g)

    simple = [_edge_set_is_simple_cycle(g, r.edge_indices) for r in records]  # not the flag
    simple_sets = {frozenset(r.edge_indices) for r, ok in zip(records, simple) if ok}
    degenerate = tuple(r.spoke_span for r, ok in zip(records, simple) if not ok)
    missing = sorted(tuple(sorted(c)) for c in generic - simple_sets)

    return CensusReport(
        m=m,
        record_count=len(records),
        simple_record_count=len(simple_sets),
        generic_count=len(generic),
        claim_matches_generic=(m * m == len(generic)),
        simple_records_found_generically=simple_sets.issubset(generic),
        generic_missing_from_census=tuple(missing),
        degenerate_spans=degenerate,
    )
