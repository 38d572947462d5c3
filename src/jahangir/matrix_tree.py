"""Spanning-tree counts from the graph Laplacian (the matrix tree theorem).

count_spanning_trees_det is the production path: the determinant of a first
minor of the Laplacian, exact at any magnitude.  When the graph minus the
deleted vertex is one cycle through every other vertex (J(n, m) with its hub
deleted, the default), as graph_core.cycle_order finds, the minor taken in
that order is cyclic tridiagonal: the degrees on the diagonal, -1 on the
off-diagonals and in both corners.
Its determinant is trace(prod_i [[d_i, -1], [1, 0]]) - 2, a product of 2x2
integer matrices in |V| - 1 steps, with no dense matrix built.  Every other
graph or deleted vertex takes fraction-free (Bareiss) elimination of the
dense minor, O(|V|^3), refused above BAREISS_GUARD vertices.
eigenvalue_product_estimate keeps the theorem's eigenvalue form around as a
floating-point cross-check on small graphs.
"""

from __future__ import annotations

from .errors import GraphValidationError, SizeGuardError, require_int
from .graph_core import LabeledGraph, cycle_order, is_connected, laplacian_matrix

EIGEN_GUARD = 64  # dense eigensolve allowed up to this many vertices
BAREISS_GUARD = 400  # dense Bareiss elimination allowed up to this many vertices


def _det_fraction_free(a: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss one-step elimination: every intermediate entry is a minor of the
    original matrix, so the divisions below are exact and the integers stay
    polynomially sized instead of blowing up exponentially.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        pivot_val = a[col][col]
        for r in range(col + 1, n):
            row_r = a[r]
            row_c = a[col]
            lead = row_r[col]
            for c in range(col + 1, n):
                row_r[c] = (row_r[c] * pivot_val - lead * row_c[c]) // prev
            row_r[col] = 0
        prev = pivot_val
    return sign * a[n - 1][n - 1]


def _laplacian_minor(g: LabeledGraph, deleted_vertex: int) -> list[list[int]]:
    """The dense Laplacian without deleted_vertex's row and column."""
    lap = laplacian_matrix(g).entries
    keep = [i for i in range(g.vertex_count) if i != deleted_vertex]
    return [[lap[i][j] for j in keep] for i in keep]


def _det_cycle_minor(diagonal: list[int]) -> int:
    """Determinant of the cyclic tridiagonal matrix with the given diagonal
    and -1 on the off-diagonals and in both corners (order 3 or more).

    Equal to trace(T_1 ... T_k) - 2 with T_i = [[d_i, -1], [1, 0]]; the
    product is accumulated one right-multiplication at a time.
    """
    p00, p01, p10, p11 = 1, 0, 0, 1
    for d in diagonal:
        p00, p01 = p00 * d + p01, -p00
        p10, p11 = p10 * d + p11, -p10
    return p00 + p11 - 2


def count_spanning_trees_det(g: LabeledGraph, deleted_vertex: int = 0) -> int:
    """Exact spanning-tree count of a simple graph.

    Deletes one vertex's row and column from the Laplacian and returns the
    determinant of what remains.  The result does not depend on which vertex
    is deleted; index 0 is the default purely for reproducibility.  A graph
    on one vertex counts 1 (the empty tree); a disconnected graph counts 0,
    which falls out of the singular minor rather than being special-cased.
    When g minus deleted_vertex is one cycle, the count costs O(|V|)
    big-integer steps; any other minor is eliminated densely, and graphs
    above BAREISS_GUARD vertices are refused with SizeGuardError.
    """
    nv = g.vertex_count
    require_int(deleted_vertex, 0, "deleted_vertex", nv - 1)
    order = cycle_order(nv, [e for e in g.edges if deleted_vertex not in e])
    if order is not None and len(order) == nv - 1:
        deg = g.degrees()
        return _det_cycle_minor([deg[x] for x in order])
    if nv > BAREISS_GUARD:
        raise SizeGuardError(
            f"Bareiss determinant limited to {BAREISS_GUARD} vertices (got {nv})")
    return _det_fraction_free(_laplacian_minor(g, deleted_vertex))


def eigenvalue_product_estimate(g: LabeledGraph, guard: int = EIGEN_GUARD) -> float:
    """Floating-point spanning-tree count from Laplacian eigenvalues.

    Product of the |V| - 1 largest eigenvalues divided by |V|.  Only valid
    for connected graphs (a second zero eigenvalue would make the notion of
    "the nonzero eigenvalues" unusable), and refused above the size guard to
    keep the dense solve cheap.  Accuracy is far better than the documented
    1e-6 relative target at these sizes.
    """
    import numpy as np

    nv = g.vertex_count
    if nv > guard:
        raise SizeGuardError(f"eigenvalue estimate limited to {guard} vertices (got {nv})")
    if not is_connected(nv, g.edges):
        raise GraphValidationError("eigenvalue estimate requires a connected graph")
    lap = np.array(laplacian_matrix(g).entries, dtype=float)
    eigs = np.linalg.eigvalsh(lap)
    prod = 1.0
    for lam in eigs[1:]:  # ascending order, drop the single zero
        prod *= lam
    return prod / nv
