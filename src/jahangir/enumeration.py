"""Explicit spanning-tree listings.

Two independent producers:

* enumerate_all walks any simple connected graph with include/exclude
  backtracking over the edge list.  It is the validation oracle: slow but
  graph-agnostic, yielding trees in lexicographic order of their sorted
  edge-index tuples.  The search is one loop over one union-find with an
  undo trail, with no recursion, so it has no depth limit.

* enumerate_jahangir builds each tree of J(n, m) directly, no search: pick
  a nonempty spoke subset, then delete exactly one rim edge from each arc
  between cyclically consecutive kept spokes.  An arc spanning g skipped
  spokes holds (g + 1) * n rim edges, which is where the counting formula's
  product comes from.

Both refuse up front (EnumerationCapError) when the full run would exceed
the safety cap, computed from the exact count before any tree is built,
and both apply limit by slicing the stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator, Optional

from .combinatorics import sigma
from .errors import EnumerationCapError
from .graph_core import JahangirParams, LabeledGraph, is_connected, rim_arc_edges, spoke_edge
from .matrix_tree import count_spanning_trees_det

DEFAULT_TREE_CAP = 10_000_000


@dataclass(frozen=True)
class SpanningTree:
    """Sorted edge indices into the host graph's canonical edge list."""

    edge_indices: tuple[int, ...]

    def __post_init__(self):
        if list(self.edge_indices) != sorted(self.edge_indices):
            raise ValueError("edge indices must be sorted ascending")


class _UnionFind:
    """Union by size with an undo trail; no path compression so undo is exact."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[tuple[int, int]] = []

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append((ra, rb))
        return True

    def undo(self):
        ra, rb = self.trail.pop()
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]


def verify_spanning_tree(g: LabeledGraph, tree: SpanningTree) -> bool:
    """Independent check: |V| - 1 distinct in-range edges, acyclic, spanning."""
    idx = tree.edge_indices
    if len(idx) != g.vertex_count - 1:
        return False
    if len(set(idx)) != len(idx):
        return False
    if idx and (idx[0] < 0 or idx[-1] >= len(g.edges)):
        return False
    uf = _UnionFind(g.vertex_count)
    merged = 0
    for i in idx:
        u, v = g.edges[i]
        if not uf.union(u, v):
            return False
        merged += 1
    return merged == g.vertex_count - 1


def _cap_check(expected: int, limit: Optional[int], cap: Optional[int]):
    planned = expected if limit is None else min(expected, limit)
    if cap is not None and planned > cap:
        raise EnumerationCapError(
            f"enumeration would yield {planned} trees, above the cap of {cap}; "
            "raise or disable the cap to proceed"
        )


def enumerate_all(
    g: LabeledGraph,
    limit: Optional[int] = None,
    cap: Optional[int] = DEFAULT_TREE_CAP,
) -> Iterator[SpanningTree]:
    """Every spanning tree of g exactly once, lexicographic on edge indices.

    A disconnected graph produces an empty stream after a RuntimeWarning.
    limit stops the stream early; cap (None disables) rejects runs whose
    full size, known exactly in advance, is too large.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if not is_connected(g):
        warnings.warn("graph is disconnected; no spanning trees exist", RuntimeWarning, stacklevel=2)
        return iter(())
    if limit == 0:
        return iter(())
    if cap is not None:  # the exact count is needed only to enforce the cap
        _cap_check(count_spanning_trees_det(g), limit, cap)
    return islice(_backtrack_trees(g), limit)


def _backtrack_trees(g: LabeledGraph) -> Iterator[SpanningTree]:
    # Include/exclude search over edge indices, include first, so trees come
    # out in lexicographic order.  Invariant: the chosen edges plus edges[i:]
    # span g, so taking every edge that joins two components completes a tree.
    edges, need = g.edges, g.vertex_count - 1
    uf = _UnionFind(g.vertex_count)
    chosen: list[int] = []
    i = 0
    while True:
        while len(chosen) < need:
            if uf.union(*edges[i]):
                chosen.append(i)
            i += 1
        yield SpanningTree(tuple(chosen))
        # the last taken edge may be left out only if the later edges can
        # still span; union them into uf to find out, then undo them
        while chosen:
            i = chosen.pop()
            uf.undo()
            merged = len(chosen)
            for u, v in edges[i + 1:]:
                if merged == need:
                    break
                merged += uf.union(u, v)
            for _ in range(merged - len(chosen)):
                uf.undo()
            if merged == need:
                i += 1
                break
        else:
            return


def _lex_spoke_subsets(m: int) -> Iterator[tuple[int, ...]]:
    # nonempty subsets of 1..m in lexicographic tuple order:
    # (1), (1,2), (1,2,3), ..., (1,3), ..., (m)
    stack = [(j,) for j in range(m, 0, -1)]
    while stack:
        s = stack.pop()
        yield s
        for nxt in range(m, s[-1], -1):
            stack.append(s + (nxt,))


def enumerate_jahangir(
    params: JahangirParams,
    limit: Optional[int] = None,
    cap: Optional[int] = DEFAULT_TREE_CAP,
) -> Iterator[SpanningTree]:
    """Every spanning tree of J(n, m), built structurally.

    Spoke subsets stream in lexicographic order; within a subset, one rim
    edge is deleted per arc, candidates in ascending rim-index order.  The
    yielded set of trees equals enumerate_all on the same graph.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit == 0:
        return iter(())
    _cap_check(sigma(params.n, params.m).total, limit, cap)
    return islice(_structured_trees(params), limit)


def _structured_trees(params: JahangirParams) -> Iterator[SpanningTree]:
    all_rim = set(range(params.n * params.m))
    for subset in _lex_spoke_subsets(params.m):
        k = len(subset)
        # the rim from spoke j forward to the next kept spoke (all of it when k == 1)
        arcs = [rim_arc_edges(params, j, (subset[(i + 1) % k] - j - 1) % params.m + 1)
                for i, j in enumerate(subset)]
        spoke_edges = tuple(spoke_edge(params, j) for j in subset)
        for deletion in product(*arcs):
            yield SpanningTree(tuple(sorted(all_rim.difference(deletion))) + spoke_edges)
