"""Jahangir graph construction and the matrices derived from a labeled graph.

A Jahangir graph J(n, m) is a cycle on n*m rim vertices plus one center
vertex joined to m rim vertices spaced n apart.  The canonical labeling used
everywhere in this package: vertex 0 is the center, rim vertices are 1..nm
in cycle order, and spoke j (j = 1..m) joins 0 to rim vertex (j-1)*n + 1.
Edges are listed rim first in cycle order, then spokes in j order, so edge
indices are stable across runs.  One grid writer lays out the four
matrices, from each one's own cells.  Value types hold the tuples they
checked; the graph and the matrices built here are made by errors.trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (GraphValidationError, ParameterDomainError, require_int, require_ints,
                     trusted)


@dataclass(frozen=True)
class JahangirParams:
    """Validated (n, m) pair: n rim edges per arc segment, m spokes."""

    n: int
    m: int

    def __post_init__(self):
        require_int(self.n, 2, "n")
        require_int(self.m, 3, "m")


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph: a vertex count and an ordered edge list.

    Edges are stored as (u, v) with u < v.  The constructor normalizes
    orientation and rejects edges that are not pairs, loops, duplicates,
    out-of-range endpoints, and endpoints that are not ints (a bool among them).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        require_int(self.vertex_count, 1, "vertex_count")
        seen = {}  # the normalized edges, in order
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphValidationError(f"edge {e!r} is not a pair of endpoints") from None
            require_int(u, None, "endpoint")
            require_int(v, None, "endpoint")
            if u == v:
                raise GraphValidationError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if u < 0 or v >= self.vertex_count:
                raise GraphValidationError(f"edge {e} has an endpoint outside "
                                           f"0..{self.vertex_count - 1}")
            if (u, v) in seen:
                raise GraphValidationError(f"duplicate edge {{{u}, {v}}}")
            seen[u, v] = None
        object.__setattr__(self, "edges", tuple(seen))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class SpanningTree:
    """Edge indices into a host graph's edge list: ints from 0 up, strictly ascending,
    held as the tuple that was checked."""

    edge_indices: tuple[int, ...]

    def __post_init__(self):
        idx = require_ints(self.edge_indices, 0, "edge index")
        object.__setattr__(self, "edge_indices", idx)
        if not all(a < b for a, b in zip(idx, idx[1:])):
            raise ParameterDomainError("edge indices must be sorted ascending")


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix, held as the tuple of row tuples checked against its shape."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        require_int(self.rows, 0, "rows")
        require_int(self.cols, 0, "cols")
        entries = tuple(require_ints(row, None, "entry") for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(self.entries) != self.rows:
            raise ValueError("entry grid does not match declared row count")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("entry grid does not match declared column count")

    def transpose(self) -> "IntegerMatrix":
        # with no rows, zip gives no columns: each of the cols rows is empty
        return trusted(IntegerMatrix, self.cols, self.rows,
                       tuple(zip(*self.entries)) or ((),) * self.cols)

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        bt = other.transpose().entries
        prod = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                     for row in self.entries)
        return trusted(IntegerMatrix, self.rows, other.cols, prod)


def build_jahangir(params: JahangirParams) -> LabeledGraph:
    """Construct J(n, m) under the canonical labeling.

    Rim edge i (0-based) joins rim vertices i+1 and i+2 for i < nm-1; the
    closing edge joins 1 and nm.  Spoke j lands at edge index nm + j - 1.
    """
    n, m = params.n, params.m
    nm = n * m
    v = list(range(nm + 1))  # one int object per vertex label, shared by its edges
    edges = (*zip(v[1:nm], v[2:]), (v[1], v[nm]), *((v[0], u) for u in v[1::n]))
    return trusted(LabeledGraph, nm + 1, edges)


def rim_arc_edges(params: JahangirParams, j: int, arcs: int) -> list[int]:
    """Sorted indices of the rim edges on `arcs` (1..m) consecutive arcs, starting
    at spoke j's (1..m) rim vertex and going forward; arcs = m is the whole rim."""
    require_int(j, 1, "j", params.m)
    require_int(arcs, 1, "arcs", params.m)
    nm = params.n * params.m
    start = (j - 1) * params.n  # the edge leaving rim vertex (j-1)*n + 1
    end = start + arcs * params.n  # past nm, the arc wraps round to edge 0
    return [*range(max(end - nm, 0)), *range(start, min(end, nm))]


def spoke_edge(params: JahangirParams, j: int) -> int:
    """Edge index of spoke j (1..m)."""
    require_int(j, 1, "j", params.m)
    return params.n * params.m + j - 1


def _grid(rows: int, cols: int, cells) -> IntegerMatrix:
    """The rows x cols matrix holding each (row, column, value) cell, 0 elsewhere."""
    grid = [[0] * cols for _ in range(rows)]
    for i, j, x in cells:
        grid[i][j] = x
    return trusted(IntegerMatrix, rows, cols, tuple(map(tuple, grid)))


def _degree_cells(g: LabeledGraph):
    return ((i, i, d) for i, d in enumerate(g.degrees()))


def _edge_cells(g: LabeledGraph, x: int):
    return ((i, j, x) for u, v in g.edges for i, j in ((u, v), (v, u)))


def adjacency_matrix(g: LabeledGraph) -> IntegerMatrix:
    """Symmetric 0/1 matrix with zero diagonal."""
    return _grid(g.vertex_count, g.vertex_count, _edge_cells(g, 1))


def degree_matrix(g: LabeledGraph) -> IntegerMatrix:
    return _grid(g.vertex_count, g.vertex_count, _degree_cells(g))


def laplacian_matrix(g: LabeledGraph) -> IntegerMatrix:
    """Degree matrix minus adjacency matrix; every row sums to zero."""
    return _grid(g.vertex_count, g.vertex_count, chain(_degree_cells(g), _edge_cells(g, -1)))


def oriented_incidence_matrix(g: LabeledGraph) -> IntegerMatrix:
    """|V| x |E| matrix; the column for edge (u, v) with u < v holds +1 at
    row u and -1 at row v.  Any consistent orientation satisfies the
    Laplacian identity L == M @ M^T; the lower-index-is-tail convention is
    fixed so output is reproducible.
    """
    cells = ((w, j, x) for j, (u, v) in enumerate(g.edges) for w, x in ((u, 1), (v, -1)))
    return _grid(g.vertex_count, len(g.edges), cells)


def is_connected(vertex_count: int, edges: list[tuple[int, int]]) -> bool:
    """True when the edges, taken from a validated graph, join all vertex_count vertices."""
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == vertex_count


def cycle_order(vertex_count: int, edges: list[tuple[int, int]]) -> list[int] | None:
    """The vertices the edges touch, in cycle order from edges[0], when the edges
    form one simple cycle through all of them; None otherwise."""
    deg = [0] * vertex_count
    link = [0] * vertex_count  # the XOR of each vertex's neighbours
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        link[u] ^= v
        link[v] ^= u
    touched = vertex_count - deg.count(0)
    # a simple cycle has 3 or more vertices; a repeated edge is no 2-cycle
    if touched < 3 or deg.count(2) != touched:
        return None
    prev, cur = edges[0]
    order = [prev]
    while cur != order[0]:  # with two neighbours, either one names the other
        order.append(cur)
        prev, cur = cur, link[cur] ^ prev
    return order if len(order) == touched else None


def dot_renderer(g: LabeledGraph):
    """to_dot(g, highlight_edges, name), highlights unchecked, as a function of its last
    two arguments: each line formatted once per graph, dashed ones on first use."""
    vertices = "".join([f"  v{v};\n" for v in range(g.vertex_count)])
    solid = [f"  v{u} -- v{v};\n" for u, v in g.edges]
    dashed: list[str] = []

    def render(highlight_edges, name: str) -> str:
        lines = solid
        if highlight_edges is not None:
            if not dashed:
                dashed.extend([line[:-2] + " [style=dashed];\n" for line in solid])
            lines = dashed.copy()
            for i in highlight_edges:
                lines[i] = solid[i]
        return f"graph {name} {{\n{vertices}{''.join(lines)}}}\n"

    return render


def to_dot(g: LabeledGraph, highlight_edges=None, name: str = "g") -> str:
    """DOT rendering: vertices v0..v_{k}, one statement per edge in canonical
    order.  Edges outside highlight_edges (edge indices of g, any iterable, read
    once), when given, are drawn dashed: a spanning tree inside its host graph.
    A non-int index fails the int rule; one outside 0..|E| - 1 raises IndexError."""
    if highlight_edges is not None:
        highlight_edges = require_ints(highlight_edges, None, "edge index")
        for i in highlight_edges:
            if not 0 <= i < len(g.edges):
                raise IndexError(f"edge index {i} out of range 0..{len(g.edges) - 1}")
    return dot_renderer(g)(highlight_edges, name)
