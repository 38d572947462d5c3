"""Explicit spanning-tree listings.

Two independent producers of strictly ascending edge-index tuples:

* tree_edge_indices walks any simple connected graph with include/exclude
  backtracking, in lexicographic order: the validation oracle.  One loop
  over a union-find in local lists: the test that the later edges still
  span is their greedy completion, which, when it passes, is the next tree.
  Each component keeps the largest edge index that touches it, hi: leaving
  out edge i when one side has hi == i cuts that side off, since every
  earlier edge is decided, so that exclusion is skipped with no scan.  On
  every J(n, m) measured no completion fails: each scan ends in a tree.
  On a disconnected graph the first completion fails and nothing is yielded.

* jahangir_tree_edge_indices builds each tree of J(n, m) directly: a
  nonempty spoke subset, less one rim edge (a hole) from each arc between
  cyclically consecutive kept spokes.  An arc spanning g skipped spokes
  holds (g + 1) * n rim edges: the counting formula's product.  One walk,
  _frames, yields the subsets and their inner holes; two cutters slide the
  wrap arc's hole, with no set and no sort: this one splices tuples from
  runs of the rim, jahangir_tree_texts cuts texts from the rim's, for JSON.

Both are generators over validated input.  enumerate_all and
enumerate_jahangir wrap each tuple in a graph_core.SpanningTree through
_tree, errors.trusted taken from graph_core, skipping its checks; the CLI
draws the tuples or texts, sliced with islice.  None counts the trees it is
about to list; the CLI, which drains them, caps a listing up front.
"""

from __future__ import annotations

import warnings
from functools import partial
from itertools import accumulate, product
from typing import Iterator

from .graph_core import (JahangirParams, LabeledGraph, SpanningTree, is_connected, spoke_edge,
                         trusted)

# the producers' tuples hold strictly ascending ints from 0 up by construction
_tree = partial(trusted, SpanningTree)


def verify_spanning_tree(g: LabeledGraph, tree: SpanningTree) -> bool:
    """Independent check: |V| - 1 in-range edges of g (distinct and from 0 up,
    as a SpanningTree's int indices are) that graph_core.is_connected finds
    join all |V| vertices."""
    idx = tree.edge_indices
    if len(idx) != g.vertex_count - 1 or idx and idx[-1] >= len(g.edges):
        return False
    # |V| - 1 edges that join all |V| vertices close no cycle
    return is_connected(g.vertex_count, [g.edges[i] for i in idx])


def enumerate_all(g: LabeledGraph) -> Iterator[SpanningTree]:
    """Every spanning tree of g exactly once, lexicographic on edge indices.

    A disconnected graph produces an empty stream after a RuntimeWarning.
    """
    if not is_connected(g.vertex_count, g.edges):
        warnings.warn("graph is disconnected; no spanning trees exist", RuntimeWarning,
                      stacklevel=2)
    return map(_tree, tree_edge_indices(g))


def tree_edge_indices(g: LabeledGraph) -> Iterator[tuple[int, ...]]:
    """The edge-index tuples of enumerate_all(g), with no tree objects and no warning."""
    # Include/exclude search, include first: trees come out in lexicographic
    # order.  After a tree ending in edge i, i is left out and edges[i + 1:]
    # complete the rest greedily, taking each edge that joins two components.
    # That is also the test that the rest still spans: if it reaches |V| - 1
    # edges its unions are the next tree, else they are undone and the chosen
    # edge before i is left out in turn.  Union by size, no path compression:
    # trail holds the root each union hung below another and the old hi of
    # the root above, so undo is exact and leaves the left-out edge's two
    # sides as roots.  A root's hi is the largest edge index incident to its
    # component.  Every edge below i outside the chosen ones is left out
    # already, so a side with hi == i can reach no other vertex: leaving i out
    # must fail, and the search moves to the chosen edge before it without a
    # scan.  The bound only ever skips a completion that would fail; wherever
    # it does not fire, the completion is still the exact test, on any graph.
    edges, need = g.edges, g.vertex_count - 1
    parent = list(range(g.vertex_count))
    size = [1] * g.vertex_count
    hi = [-1] * g.vertex_count
    for j, (u, v) in enumerate(edges):
        hi[u] = hi[v] = j
    trail: list[tuple[int, int]] = []
    chosen: list[int] = []
    i = -1  # the first tree completes greedily from edge 0
    while True:
        have = base = len(chosen)
        for j in range(i + 1, len(edges)):
            u, v = edges[j]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u != v:
                if size[u] < size[v]:
                    u, v = v, u
                parent[v] = u
                size[u] += size[v]
                trail.append((v, hi[u]))
                if hi[v] > hi[u]:
                    hi[u] = hi[v]
                chosen.append(j)
                have += 1
                if have == need:
                    break
        if have == need:
            yield tuple(chosen)
            base = need
        # undo the completion, then leave out the chosen edges before it, last
        # first, until one leaves each of its two sides a later edge
        while chosen:
            i = chosen.pop()
            v, h = trail.pop()
            u = parent[v]
            parent[v] = v
            size[u] -= size[v]
            hi[u] = h
            if len(chosen) < base and hi[u] != i != hi[v]:
                break
        else:
            return


def enumerate_jahangir(params: JahangirParams) -> Iterator[SpanningTree]:
    """Every spanning tree of J(n, m), built structurally.

    Spoke subsets stream in lexicographic order; within a subset, one rim
    edge is deleted per arc, candidates in ascending rim-index order.  The
    yielded set of trees equals enumerate_all on the same graph.
    """
    return map(_tree, jahangir_tree_edge_indices(params))


def _frames(params: JahangirParams):
    """Each nonempty spoke subset, lexicographic: its spoke edges, the rim edges leaving
    its first and last kept spoke, and its inner holes' choices in product order."""
    stack = [(j,) for j in range(params.m, 0, -1)]  # (1), (1, 2), ..., (1, 3), ..., (m)
    while stack:
        subset = stack.pop()
        stack += [subset + (j,) for j in range(params.m, subset[-1], -1)]
        cuts = [(j - 1) * params.n for j in subset]  # the edge leaving each kept spoke
        yield (tuple(spoke_edge(params, j) for j in subset), cuts[0], cuts[-1],
               product(*map(range, cuts, cuts[1:])))


def jahangir_tree_edge_indices(params: JahangirParams) -> Iterator[tuple[int, ...]]:
    """The edge-index tuples of enumerate_jahangir(params), with no tree objects."""
    nm = params.n * params.m
    rim = tuple(range(nm))
    for spokes, first, last, choices in _frames(params):
        for holes in choices:
            whole, start = [], 0  # the rim less the inner holes, then the spokes
            for h in holes:
                whole += rim[start:h]
                start = h + 1
            whole.extend((*rim[start:], *spokes))
            # the wrap arc's hole slides up each of its two parts, putting back
            # each edge it leaves; the inner holes lie below the second
            for lo, hi, below in (0, first, 0), (last, nm, len(holes)):
                if lo < hi:
                    tree = whole.copy()
                    del tree[lo - below]
                    yield tuple(tree)
                    for i in range(lo, hi - 1):
                        tree[i - below] = i
                        yield tuple(tree)


def jahangir_tree_texts(params: JahangirParams) -> Iterator[str]:
    r"""The trees of jahangir_tree_edge_indices(params), each as ",\n        ".join of its ints."""
    nm = params.n * params.m
    labels = [f"{i},\n        " for i in range(nm)]
    rim, at = "".join(labels), [0, *accumulate(map(len, labels))]  # edge i from at[i]
    del labels
    for spokes, first, last, choices in _frames(params):
        tail = ",\n        ".join(map(str, spokes))
        for holes in choices:
            runs, start = [], 0  # the rim less the inner holes, then the spokes
            for h in holes:
                runs.append(rim[start:at[h]])
                start = at[h + 1]
            whole = "".join([*runs, rim[start:], tail])
            # the wrap arc's hole, cut in each part, the inner holes' text below the second
            cut = len(rim) + len(tail) - len(whole)
            for lo, hi, below in (0, first, 0), (last, nm, cut):
                for i in range(lo, hi):
                    yield whole[:at[i] - below] + whole[at[i + 1] - below:]
