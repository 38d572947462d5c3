import pytest

from jahangir import (
    GraphValidationError,
    IntegerMatrix,
    JahangirParams,
    LabeledGraph,
    ParameterDomainError,
    adjacency_matrix,
    build_jahangir,
    degree_matrix,
    laplacian_matrix,
    oriented_incidence_matrix,
    to_dot,
)
from jahangir.graph_core import dot_renderer, is_connected


class TestJahangirParams:
    def test_valid_range(self):
        p = JahangirParams(2, 3)
        assert (p.n, p.m) == (2, 3)

    def test_n_below_two_rejected(self):
        with pytest.raises(ParameterDomainError, match="n must be >= 2"):
            JahangirParams(1, 5)

    def test_m_below_three_rejected(self):
        with pytest.raises(ParameterDomainError, match="m must be >= 3"):
            JahangirParams(4, 2)

    def test_non_integer_rejected(self):
        with pytest.raises(ParameterDomainError):
            JahangirParams(2.5, 4)


class TestLabeledGraphValidation:
    def test_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="loop"):
            LabeledGraph(3, ((0, 0),))

    def test_duplicate_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            LabeledGraph(3, ((0, 1), (0, 1)))

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            LabeledGraph(3, ((0, 1), (1, 0)))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphValidationError, match="outside"):
            LabeledGraph(3, ((0, 3),))

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphValidationError) as excinfo:
            LabeledGraph(3, ((-1, 2),))
        assert str(excinfo.value) == "edge (-1, 2) has an endpoint outside 0..2"

    @pytest.mark.parametrize("edges", [((0, 1, 2),), ((0,),), (5,)],
                             ids=["triple", "single", "int"])
    def test_edge_not_a_pair_rejected(self, edges):
        # each message names the edge, where the unpack's own names none
        with pytest.raises(GraphValidationError) as excinfo:
            LabeledGraph(3, edges)
        assert str(excinfo.value) == f"edge {edges[0]!r} is not a pair of endpoints"

    def test_edges_normalized_low_high(self):
        g = LabeledGraph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 2), (0, 1))


class TestBuildJahangir:
    def test_2_4_shape(self):
        g = build_jahangir(JahangirParams(2, 4))
        assert g.vertex_count == 9
        assert g.edge_count == 12
        assert g.degrees()[0] == 4

    def test_2_3_shape(self):
        g = build_jahangir(JahangirParams(2, 3))
        assert g.vertex_count == 7
        assert g.edge_count == 9
        rim_degrees = g.degrees()[1:]
        assert sum(1 for d in rim_degrees if d == 3) == 3

    def test_3_3_degree_sequence(self):
        g = build_jahangir(JahangirParams(3, 3))
        assert g.vertex_count == 10
        assert g.edge_count == 12
        deg = g.degrees()
        assert deg[0] == 3
        assert sorted(deg[1:]) == [2, 2, 2, 2, 2, 2, 3, 3, 3]

    def test_canonical_edge_list_2_3(self):
        g = build_jahangir(JahangirParams(2, 3))
        assert g.edges == (
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
            (0, 1), (0, 3), (0, 5),
        )

    def test_deterministic(self):
        a = build_jahangir(JahangirParams(3, 5))
        b = build_jahangir(JahangirParams(3, 5))
        assert a == b

    def test_counts_sweep(self):
        for n in range(2, 6):
            for m in range(3, 9):
                g = build_jahangir(JahangirParams(n, m))
                assert g.vertex_count == n * m + 1
                assert g.edge_count == n * m + m
                assert sum(g.degrees()) == 2 * g.edge_count

    def test_spokes_land_n_apart(self):
        g = build_jahangir(JahangirParams(3, 4))
        spokes = [e for e in g.edges if 0 in e]
        targets = sorted(v for u, v in spokes)
        assert targets == [1, 4, 7, 10]

    def test_edges_share_one_int_per_vertex(self):
        # labels past CPython's small-int cache (up to 256): each rim vertex
        # is one object, held by the two rim edges that meet at it
        g = build_jahangir(JahangirParams(200, 3))
        rim = g.edges[:599]
        assert all(rim[i][1] is rim[i + 1][0] for i in range(598))
        assert g.edges[599][1] is rim[-1][1] and g.edges[-1][1] is rim[399][1]


class TestMatrices:
    def test_adjacency_four_cycle(self, four_cycle):
        a = adjacency_matrix(four_cycle)
        assert all(sum(row) == 2 for row in a.entries)
        assert all(a.entries[i][i] == 0 for i in range(4))

    def test_adjacency_edgeless(self):
        a = adjacency_matrix(LabeledGraph(3, ()))
        assert a.entries == ((0, 0, 0), (0, 0, 0), (0, 0, 0))

    def test_adjacency_center_row(self):
        g = build_jahangir(JahangirParams(2, 3))
        a = adjacency_matrix(g)
        assert sum(a.entries[0]) == 3

    def test_adjacency_symmetric(self, corpus):
        for g in corpus:
            a = adjacency_matrix(g)
            assert a == a.transpose()

    def test_degree_four_cycle(self, four_cycle):
        d = degree_matrix(four_cycle)
        assert [d.entries[i][i] for i in range(4)] == [2, 2, 2, 2]

    def test_degree_trace_is_twice_edges(self, corpus):
        for g in corpus:
            d = degree_matrix(g)
            assert sum(d.entries[i][i] for i in range(g.vertex_count)) == 2 * g.edge_count

    def test_degree_center_entry_2_4(self):
        g = build_jahangir(JahangirParams(2, 4))
        assert degree_matrix(g).entries[0][0] == 4

    def test_degree_trace_3_5(self):
        g = build_jahangir(JahangirParams(3, 5))
        d = degree_matrix(g)
        assert sum(d.entries[i][i] for i in range(g.vertex_count)) == 40

    def test_laplacian_four_cycle_explicit(self, four_cycle):
        lap = laplacian_matrix(four_cycle)
        assert lap.entries == (
            (2, -1, 0, -1),
            (-1, 2, -1, 0),
            (0, -1, 2, -1),
            (-1, 0, -1, 2),
        )

    def test_laplacian_is_degree_minus_adjacency(self, corpus):
        for g in corpus:
            lap = laplacian_matrix(g)
            d = degree_matrix(g)
            a = adjacency_matrix(g)
            expected = tuple(
                tuple(d.entries[i][j] - a.entries[i][j] for j in range(g.vertex_count))
                for i in range(g.vertex_count)
            )
            assert lap.entries == expected

    def test_laplacian_rows_sum_to_zero(self, corpus):
        for g in corpus:
            assert [sum(row) for row in laplacian_matrix(g).entries] == [0] * g.vertex_count

    def test_incidence_single_edge(self):
        m = oriented_incidence_matrix(LabeledGraph(2, ((0, 1),)))
        assert m.entries == ((1,), (-1,))

    def test_incidence_shape_2_4(self):
        g = build_jahangir(JahangirParams(2, 4))
        m = oriented_incidence_matrix(g)
        assert (m.rows, m.cols) == (9, 12)
        cols = list(zip(*m.entries))
        assert all(sum(col) == 0 for col in cols)

    def test_incidence_gram_is_laplacian(self, corpus):
        for g in corpus:
            m = oriented_incidence_matrix(g)
            assert m.matmul(m.transpose()) == laplacian_matrix(g)

    def test_transpose_of_no_rows_keeps_the_columns(self):
        assert IntegerMatrix(0, 3, ()).transpose() == IntegerMatrix(3, 0, ((), (), ()))

    def test_matmul_over_an_empty_inner_dimension_is_zero(self):
        product = IntegerMatrix(2, 0, ((), ())).matmul(IntegerMatrix(0, 3, ()))
        assert product == IntegerMatrix(2, 3, ((0, 0, 0), (0, 0, 0)))

    @pytest.mark.parametrize("m", [IntegerMatrix(0, 3, ()), IntegerMatrix(3, 0, ((), (), ()))],
                             ids=["0x3", "3x0"])
    def test_transpose_twice_is_identity_on_empty_shapes(self, m):
        assert m.transpose().transpose() == m

    def test_built_matrices_equal_their_checked_rebuild(self, corpus):
        # the grid writer, transpose and matmul skip IntegerMatrix's checks, so
        # each must hold what they would: a tuple of int tuples of its shape
        built = [IntegerMatrix(0, 3, ()), IntegerMatrix(3, 0, ((), (), ())),
                 IntegerMatrix(2, 0, ((), ())).matmul(IntegerMatrix(0, 3, ()))]
        for g in corpus:
            m = oriented_incidence_matrix(g)
            built += [adjacency_matrix(g), degree_matrix(g), laplacian_matrix(g), m,
                      m.matmul(m.transpose())]
        for mat in built + [mat.transpose() for mat in built]:
            rebuilt = IntegerMatrix(mat.rows, mat.cols, mat.entries)
            assert mat == rebuilt and hash(mat) == hash(rebuilt) and repr(mat) == repr(rebuilt)


class TestConnectivityAndDot:
    def test_connected_fixtures(self, four_cycle, k4, star5, path4):
        for g in (four_cycle, k4, star5, path4):
            assert is_connected(g.vertex_count, g.edges)

    def test_disconnected(self, disconnected):
        assert not is_connected(disconnected.vertex_count, disconnected.edges)

    def test_singleton_connected(self):
        assert is_connected(1, ())

    def test_walks_an_edge_list(self):
        # one vertex with no edges is connected; the same list on more is not
        assert is_connected(1, [])
        assert not is_connected(2, [])
        assert is_connected(4, [(0, 1), (2, 3), (1, 2)])
        assert not is_connected(4, [(0, 1), (2, 3)])
        assert not is_connected(5, [(0, 1), (1, 2), (2, 3)])  # vertex 4 left out

    def test_dot_lists_all_vertices_and_edges(self, four_cycle):
        dot = to_dot(four_cycle, name="c4")
        assert dot.startswith("graph c4 {")
        for v in range(4):
            assert f"v{v};" in dot
        assert dot.count(" -- ") == 4
        assert "style=dashed" not in dot

    def test_dot_highlight_dashes_the_rest(self, four_cycle):
        dot = to_dot(four_cycle, highlight_edges={0, 1, 2})
        assert dot.count("style=dashed") == 1
        assert "v0 -- v3 [style=dashed];" in dot

    def test_dot_refuses_a_highlight_outside_the_edges(self):
        g = build_jahangir(JahangirParams(2, 3))  # edges 0..8; -1 once drew the last spoke
        for i in (-1, 9, 99):
            with pytest.raises(IndexError, match=rf"^edge index {i} out of range 0\.\.8$"):
                to_dot(g, [i], "t")
        dot = to_dot(g, [0, 8], "t")
        assert dot.count("style=dashed") == 7
        assert "v1 -- v2;" in dot and "v0 -- v5;" in dot

    def test_dot_reads_an_iterator_once(self):
        # the range check once used an iterator up, and every edge came out dashed
        g = build_jahangir(JahangirParams(2, 3))
        tree = (0, 1, 2, 3, 4, 6)
        drawn = to_dot(g, set(tree), "t")
        assert drawn.count("style=dashed") == 3
        assert to_dot(g, iter(tree), "t") == drawn
        assert to_dot(g, (i for i in tree), "t") == drawn

    def test_one_renderer_draws_the_graph_then_a_tree(self):
        g = build_jahangir(JahangirParams(3, 4))
        draw = dot_renderer(g)
        assert draw(None, "g") == to_dot(g, name="g")
        assert draw((0, 5, 12), "t") == to_dot(g, (0, 5, 12), "t")
        assert draw(None, "g") == to_dot(g, name="g")
