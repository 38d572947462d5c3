import pytest

from jahangir import (
    GraphValidationError,
    JahangirParams,
    LabeledGraph,
    SizeGuardError,
    build_jahangir,
    count_spanning_trees_det,
    eigenvalue_product_estimate,
    sigma,
    sigma_table,
)
from jahangir import matrix_tree


def no_laplacian(g):
    raise AssertionError("dense Laplacian built")


class TestDeterminantCount:
    def test_four_cycle(self, four_cycle):
        assert count_spanning_trees_det(four_cycle) == 4

    def test_triangle(self, triangle):
        assert count_spanning_trees_det(triangle) == 3

    def test_k4(self, k4):
        # 16 == 4^(4-2), and confirmed by the brute-force enumerator
        assert count_spanning_trees_det(k4) == 16

    def test_trees_count_one(self, star5, path4):
        assert count_spanning_trees_det(star5) == 1
        assert count_spanning_trees_det(path4) == 1

    def test_singleton(self):
        assert count_spanning_trees_det(LabeledGraph(1, ())) == 1

    def test_disconnected_counts_zero(self, disconnected):
        assert count_spanning_trees_det(disconnected) == 0

    def test_jahangir_2_4(self):
        g = build_jahangir(JahangirParams(2, 4))
        assert count_spanning_trees_det(g) == 192

    def test_jahangir_5_3(self):
        # matches the cubic 5^3 + 6*25 + 9*5
        g = build_jahangir(JahangirParams(5, 3))
        assert count_spanning_trees_det(g) == 320

    def test_jahangir_4_5(self):
        g = build_jahangir(JahangirParams(4, 5))
        assert count_spanning_trees_det(g) == 6724

    def test_deleted_vertex_is_irrelevant(self, four_cycle, k4):
        for g in (four_cycle, k4, build_jahangir(JahangirParams(2, 3))):
            counts = {
                count_spanning_trees_det(g, deleted_vertex=v)
                for v in range(g.vertex_count)
            }
            assert len(counts) == 1

    def test_deleted_vertex_out_of_range(self, triangle):
        with pytest.raises(ValueError, match="out of range"):
            count_spanning_trees_det(triangle, deleted_vertex=3)

    def test_big_instance_exact(self):
        # 40 rim vertices, value checked against the combinatorial engine
        g = build_jahangir(JahangirParams(5, 8))
        assert count_spanning_trees_det(g) == 4870845

    def test_cycle_minor_needs_no_dense_matrix(self, monkeypatch):
        # 10001 vertices: only the hub-deleted cycle minor makes this cheap
        monkeypatch.setattr(matrix_tree, "laplacian_matrix", no_laplacian)
        g = build_jahangir(JahangirParams(100, 100))
        assert count_spanning_trees_det(g) == sigma_table(100, 100)[-1][1]

    def test_bareiss_size_guard(self, monkeypatch):
        # 601 vertices; G - 5 is no cycle, so this needs the dense minor
        monkeypatch.setattr(matrix_tree, "laplacian_matrix", no_laplacian)
        g = build_jahangir(JahangirParams(30, 20))
        with pytest.raises(SizeGuardError, match="601"):
            count_spanning_trees_det(g, deleted_vertex=5)
        assert count_spanning_trees_det(g) == sigma(30, 20).total


class TestEigenvalueEstimate:
    @pytest.fixture(autouse=True)
    def numpy(self):
        # the estimate's one dependency, an optional extra
        pytest.importorskip("numpy")

    def test_four_cycle(self, four_cycle):
        assert abs(eigenvalue_product_estimate(four_cycle) - 4.0) < 1e-9

    def test_jahangir_2_3(self):
        g = build_jahangir(JahangirParams(2, 3))
        assert abs(eigenvalue_product_estimate(g) - 50.0) < 1e-6

    def test_star_is_a_single_tree(self, star5):
        assert abs(eigenvalue_product_estimate(star5) - 1.0) < 1e-9

    def test_one_vertex_is_the_empty_tree(self):
        # the product over no eigenvalue, divided by one vertex
        assert eigenvalue_product_estimate(LabeledGraph(1, ())) == 1.0

    def test_rounds_to_exact_count_on_corpus(self, corpus):
        from jahangir.graph_core import is_connected

        for g in corpus:
            if not is_connected(g.vertex_count, g.edges) or g.vertex_count > 32:
                continue
            est = eigenvalue_product_estimate(g)
            exact = count_spanning_trees_det(g)
            assert round(est) == exact
            assert abs(est - exact) <= 1e-6 * max(exact, 1)

    def test_size_guard(self):
        g = build_jahangir(JahangirParams(8, 8))  # 65 vertices
        with pytest.raises(SizeGuardError, match="65"):
            eigenvalue_product_estimate(g)

    def test_guard_is_adjustable(self, monkeypatch):
        monkeypatch.setattr(matrix_tree, "EIGEN_GUARD", 65)
        g = build_jahangir(JahangirParams(8, 8))
        est = eigenvalue_product_estimate(g)
        assert round(est) == count_spanning_trees_det(g)

    def test_disconnected_refused(self, disconnected):
        with pytest.raises(GraphValidationError, match="connected"):
            eigenvalue_product_estimate(disconnected)
