import inspect
import time
import tracemalloc
import warnings
from itertools import islice

import pytest

from jahangir import (
    JahangirParams,
    LabeledGraph,
    SpanningTree,
    build_jahangir,
    count_spanning_trees_det,
    enumerate_all,
    enumerate_jahangir,
    sigma,
    verify_spanning_tree,
)
from jahangir.cli import main
from jahangir.enumeration import jahangir_tree_edge_indices, tree_edge_indices


class TestEnumerateAll:
    def test_four_cycle_verbatim(self, four_cycle):
        trees = [t.edge_indices for t in enumerate_all(four_cycle)]
        # drop exactly one of the four edges, listed lexicographically
        assert trees == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_tree_input_yields_itself(self, star5, path4):
        for g in (star5, path4):
            trees = list(enumerate_all(g))
            assert len(trees) == 1
            assert trees[0].edge_indices == tuple(range(g.edge_count))

    def test_singleton(self):
        from jahangir import LabeledGraph

        trees = list(enumerate_all(LabeledGraph(1, ())))
        assert [t.edge_indices for t in trees] == [()]

    def test_counts_match_determinant(self, four_cycle, triangle, k4):
        for g in (four_cycle, triangle, k4):
            assert len(list(enumerate_all(g))) == count_spanning_trees_det(g)

    def test_jahangir_2_3_fifty_distinct_verified(self):
        g = build_jahangir(JahangirParams(2, 3))
        trees = list(enumerate_all(g))
        assert len(trees) == 50
        assert len({t.edge_indices for t in trees}) == 50
        assert all(verify_spanning_tree(g, t) for t in trees)

    def test_lexicographic_order(self, k4):
        g = build_jahangir(JahangirParams(2, 3))
        for graph in (k4, g):
            seq = [t.edge_indices for t in enumerate_all(graph)]
            assert seq == sorted(seq)

    def test_limit_is_a_prefix(self, k4):
        full = [t.edge_indices for t in enumerate_all(k4)]
        head = [t.edge_indices for t in islice(enumerate_all(k4), 5)]
        assert head == full[:5]

    def test_limit_zero(self, k4):
        assert list(islice(enumerate_all(k4), 0)) == []

    def test_disconnected_warns_and_is_empty(self, disconnected):
        with pytest.warns(RuntimeWarning, match="disconnected"):
            trees = list(enumerate_all(disconnected))
        assert trees == []

    def test_disconnected_warning_names_the_calling_line(self, disconnected):
        with pytest.warns(RuntimeWarning, match="disconnected") as record:
            line = inspect.currentframe().f_lineno + 1
            enumerate_all(disconnected)
        assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_connected_is_silent(self, four_cycle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(enumerate_all(four_cycle))) == 4

    def test_disconnected_edge_indices_are_empty_and_silent(self):
        # two separate edges, three isolated vertices, a triangle and two isolated vertices
        for g in (LabeledGraph(4, ((0, 1), (2, 3))), LabeledGraph(3, ()),
                  LabeledGraph(5, ((0, 1), (0, 2), (1, 2)))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert list(tree_edge_indices(g)) == []

    def test_cap_respects_limit(self):
        g = build_jahangir(JahangirParams(2, 13))
        trees = list(islice(enumerate_all(g), 3))
        assert len(trees) == 3

    def test_cap_disabled(self, k4):
        assert len(list(enumerate_all(k4))) == 16

    def test_cap_needs_a_count_within_the_bareiss_guard(self):
        # the listing takes no count, so a path past the Bareiss guard lists
        path = LabeledGraph(401, tuple((i, i + 1) for i in range(400)))
        assert [t.edge_indices for t in enumerate_all(path)] == [tuple(range(400))]
        # the search keeps no stack frame per edge, so depth is unbounded
        long_path = LabeledGraph(1500, tuple((i, i + 1) for i in range(1499)))
        assert len(list(enumerate_all(long_path))) == 1

    def test_first_tree_of_a_deep_jahangir_graph(self):
        g = build_jahangir(JahangirParams(400, 3))
        assert verify_spanning_tree(g, next(enumerate_all(g)))

    def test_long_rim_listing_is_bound_by_its_output(self):
        # most left-out rim edges of J(200, 3) cut off a run of the rim that
        # no later edge reaches; these 2000 trees took over 2 s when each
        # such exclusion paid a scan of the later edges
        g = build_jahangir(JahangirParams(200, 3))
        start = time.perf_counter()
        trees = list(islice(enumerate_all(g), 2000))
        assert time.perf_counter() - start < 1
        assert len(trees) == 2000 and len(set(trees)) == 2000
        assert all(verify_spanning_tree(g, t) for t in (trees[0], trees[-1]))


class TestEnumerateJahangir:
    def test_2_3_set_equality_with_generic(self):
        params = JahangirParams(2, 3)
        structured = {t.edge_indices for t in enumerate_jahangir(params)}
        generic = {t.edge_indices for t in enumerate_all(build_jahangir(params))}
        assert structured == generic
        assert len(structured) == 50

    def test_2_4_set_equality_with_generic(self):
        params = JahangirParams(2, 4)
        structured = {t.edge_indices for t in enumerate_jahangir(params)}
        generic = {t.edge_indices for t in enumerate_all(build_jahangir(params))}
        assert structured == generic
        assert len(structured) == 192

    def test_2_5_cardinality(self):
        params = JahangirParams(2, 5)
        trees = list(enumerate_jahangir(params))
        assert len(trees) == sigma(2, 5).total
        assert len({t.edge_indices for t in trees}) == len(trees)

    def test_all_spokes_subset_of_2_4(self):
        # trees keeping all four spokes: one rim edge deleted per unit arc
        params = JahangirParams(2, 4)
        spoke_indices = {8, 9, 10, 11}
        full = [
            t for t in enumerate_jahangir(params)
            if spoke_indices.issubset(t.edge_indices)
        ]
        assert len(full) == 2**4

    def test_adjacent_spoke_pair_of_2_4(self):
        # keeping spokes 1 and 2 only: gaps (0, 2), contribution 2*2 * 1*3
        params = JahangirParams(2, 4)
        nm = 8
        wanted = {nm + 0, nm + 1}
        pair = [
            t for t in enumerate_jahangir(params)
            if {i for i in t.edge_indices if i >= nm} == wanted
        ]
        assert len(pair) == 12

    def test_every_tree_verifies(self):
        params = JahangirParams(3, 3)
        g = build_jahangir(params)
        trees = list(enumerate_jahangir(params))
        assert len(trees) == sigma(3, 3).total
        assert all(verify_spanning_tree(g, t) for t in trees)

    def test_spokes_kept_vs_rim_deleted(self):
        # one rim edge is deleted per arc and there is one arc per kept
        # spoke, so missing rim edges always equal kept spokes
        params = JahangirParams(2, 4)
        nm = 8
        for t in enumerate_jahangir(params):
            spokes = sum(1 for i in t.edge_indices if i >= nm)
            rim_kept = sum(1 for i in t.edge_indices if i < nm)
            assert spokes >= 1
            assert nm - rim_kept == spokes

    def test_first_tree_of_2_3(self):
        params = JahangirParams(2, 3)
        first = next(iter(enumerate_jahangir(params)))
        # spoke subset (1,) comes first; its single arc is the whole rim
        # and rim edge 0 is the first deletion candidate
        assert first.edge_indices == (1, 2, 3, 4, 5, 6)

    def test_limit(self):
        params = JahangirParams(2, 4)
        assert len(list(islice(enumerate_jahangir(params), 7))) == 7
        assert list(islice(enumerate_jahangir(params), 0)) == []

    def test_memory_flat_in_arc_length(self):
        # 2 * nm + 2 trees reach the whole-rim subset (1,) and the long wrap
        # arc of (1, 2); a tree is about 16 KiB here
        params = JahangirParams(2, 1000)
        tracemalloc.start()
        try:
            for _ in islice(jahangir_tree_edge_indices(params), 2 * 2000 + 2):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_cap_with_limit_allows_peek(self):
        trees = list(islice(enumerate_jahangir(JahangirParams(3, 16)), 4))
        assert len(trees) == 4


# J(2..4, 3..8) with at most 13 000 trees: both producers list each quickly
LISTABLE = [(n, m) for n in (2, 3, 4) for m in range(3, 9) if sigma(n, m).total <= 13_000]


def test_producers_yield_strictly_ascending_indices():
    assert len(LISTABLE) == 12
    for n, m in LISTABLE:
        params = JahangirParams(n, m)
        for trees in (enumerate_jahangir(params), enumerate_all(build_jahangir(params))):
            for t in trees:
                idx = t.edge_indices
                assert type(t) is SpanningTree and type(idx) is tuple
                assert all(a < b for a, b in zip(idx, idx[1:])), (n, m, idx)


class TestVerifier:
    def test_rejects_wrong_size(self, four_cycle):
        assert not verify_spanning_tree(four_cycle, SpanningTree((0, 1)))

    def test_rejects_too_many_edges(self, triangle):
        # connected, but with |V| edges: no tree
        assert not verify_spanning_tree(triangle, SpanningTree((0, 1, 2)))

    def test_rejects_cycle(self, k4):
        # edges (0,1), (0,2), (1,2) close a triangle
        assert not verify_spanning_tree(k4, SpanningTree((0, 1, 3)))

    def test_rejects_out_of_range_index(self, four_cycle):
        assert not verify_spanning_tree(four_cycle, SpanningTree((0, 1, 9)))

    def test_accepts_genuine_tree(self, four_cycle):
        assert verify_spanning_tree(four_cycle, SpanningTree((0, 1, 2)))

    def test_tree_indices_must_be_sorted(self):
        with pytest.raises(ValueError):
            SpanningTree((2, 0, 1))

    def test_tree_indices_must_be_distinct(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            SpanningTree((1, 1, 2))
        assert SpanningTree(()).edge_indices == ()


class TestTreeDot:
    def test_non_tree_edges_dashed(self, capsys):
        assert main(["enumerate", "--n", "2", "--m", "3", "--limit", "1", "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("graph tree_0 {")
        # J(n, m) has m more edges than a spanning tree needs
        assert dot.count("style=dashed") == 3
