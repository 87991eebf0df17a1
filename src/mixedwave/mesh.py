"""Conforming triangular meshes with connectivity, orientation and sizes.

The mesh is immutable after construction.  Edges carry a canonical global
orientation (lower to higher vertex index).
"""

from dataclasses import dataclass, field

import numpy as np


class MeshError(Exception):
    """Base class for mesh construction failures."""


class NonConformingError(MeshError):
    """Hanging vertex, over-shared edge, vertex of no cell or bad topology."""


class DegenerateCellError(MeshError):
    """Cell with (nearly) zero signed area."""


class IndexOutOfRangeError(MeshError):
    """Cell refers to a vertex index outside the vertex list."""


_AREA_TOL = 1e-14


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a polygonal domain.

    Attributes
    ----------
    vertices : (V, 2) float array
    cells : (T, 3) int array, positively oriented
    edges : (E, 2) int array, canonical lower-to-higher vertex order
    cell_edges : (T, 3) int array; entry i is the edge opposite vertex i
    edge_cells : (E, 2) int array of incident cells, -1 for missing side
    boundary_edge : (E,) bool array
    h_cell : (T,) longest side per cell
    h_edge : (E,) edge lengths
    area : (T,) cell areas
    """

    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    edge_cells: np.ndarray
    boundary_edge: np.ndarray
    h_cell: np.ndarray
    h_edge: np.ndarray
    area: np.ndarray

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def h_max(self):
        return float(self.h_cell.max())

    def cell_centroids(self):
        return self.vertices[self.cells].mean(axis=1)

    def edge_tangents(self):
        """Unit tangents along the canonical edge direction, shape (E, 2)."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return d / self.h_edge[:, None]

    def edge_normals(self):
        """Unit normals obtained by rotating the tangent by -90 degrees."""
        t = self.edge_tangents()
        return np.column_stack([t[:, 1], -t[:, 0]])

    def __str__(self):
        return "Mesh with {} vertices, {} cells, {} edges".format(
            self.num_vertices, self.num_cells, self.num_edges
        )


@dataclass(frozen=True)
class RefinementResult:
    child_mesh: Mesh
    parent_of_cell: np.ndarray = field(repr=False)


def _signed_areas(vertices, cells):
    v0 = vertices[cells[:, 0]]
    v1 = vertices[cells[:, 1]]
    v2 = vertices[cells[:, 2]]
    d1 = v1 - v0
    d2 = v2 - v0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _check_hanging_vertices(vertices, edges, boundary_edge):
    """Raise if any vertex lies strictly inside an edge.

    In a mesh whose cells do not overlap, an edge with a vertex inside
    it has a cell on one side only, and that vertex lies on a boundary
    edge too; so only boundary-edge vertices are tested, against
    boundary edges.
    """
    bnd = np.flatnonzero(boundary_edge)
    cand = np.unique(edges[bnd])
    pts = vertices[cand]
    a = vertices[edges[bnd, 0]]
    d = vertices[edges[bnd, 1]] - a
    tol = 1e-12
    # chunk over edges to keep memory bounded
    chunk = max(1, 10_000_000 // max(1, len(cand)))
    for s in range(0, len(bnd), chunk):
        ae, de = a[s : s + chunk], d[s : s + chunk]
        le2 = (de * de).sum(axis=1)
        rel = pts[None, :, :] - ae[:, None, :]
        t = (rel * de[:, None, :]).sum(axis=2) / le2[:, None]
        perp = np.abs(rel[:, :, 0] * de[:, None, 1] - rel[:, :, 1] * de[:, None, 0])
        le = np.sqrt(le2)
        on_line = perp < tol * le[:, None]
        strictly_inside = (t > tol) & (t < 1.0 - tol)
        if np.any(on_line & strictly_inside):
            ei, vi = np.argwhere(on_line & strictly_inside)[0]
            raise NonConformingError(
                "vertex {} hangs on edge {}".format(cand[vi], bnd[s + ei])
            )


def _boundary_loops(num_vertices, boundary_edges):
    """Connected components of the boundary-edge graph, by min-label hooking."""
    a, b = boundary_edges.T
    label = np.arange(num_vertices)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, label[a], low)
        np.minimum.at(new, label[b], low)
        new = new[new]
        if np.array_equal(new, label):
            return len(np.unique(label[boundary_edges]))
        label = new


def build_mesh(vertices, cell_list, check_hanging=True):
    """Build a conforming Mesh from vertex coordinates and cell triples.

    Cells listed clockwise are reordered to positive orientation.
    Raises NonConformingError, DegenerateCellError or IndexOutOfRangeError.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cell_list, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (V, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex coordinates must be finite")
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise MeshError("cells must be an (T, 3) array")
    if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
        raise IndexOutOfRangeError("cell vertex index out of range")
    orphans = np.flatnonzero(np.bincount(cells.ravel(), minlength=len(vertices)) == 0)
    if len(orphans):
        raise NonConformingError(
            "vertex {} belongs to no cell".format(int(orphans[0]))
        )

    areas = _signed_areas(vertices, cells)
    flip = areas < 0
    cells = cells.copy()
    cells[flip] = cells[flip][:, [0, 2, 1]]
    areas = np.abs(areas)
    scale = np.max(np.abs(vertices)) ** 2 + 1.0
    if np.any(areas <= _AREA_TOL * scale):
        raise DegenerateCellError(
            "cell {} has near-zero area".format(int(np.argmin(areas)))
        )

    # local edge i is opposite local vertex i: (i+1, i+2) mod 3
    raw = np.stack(
        [cells[:, [1, 2]], cells[:, [2, 0]], cells[:, [0, 1]]], axis=1
    )  # (T, 3, 2)
    canon = np.sort(raw, axis=2).reshape(-1, 2)
    edges, inverse = np.unique(canon, axis=0, return_inverse=True)
    cell_edges = inverse.reshape(-1, 3)

    counts = np.bincount(inverse, minlength=len(edges))
    if counts.max(initial=0) > 2:
        raise NonConformingError(
            "edge shared by more than two cells (edge {})".format(
                int(np.argmax(counts))
            )
        )
    # a stable sort of the edge index keeps each edge's cells in
    # increasing order: slot 0 is the lower cell index
    cell_of = np.argsort(inverse, kind="stable") // 3
    first = np.cumsum(counts) - counts
    boundary_edge = counts == 1
    edge_cells = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_cells[:, 0] = cell_of[first]
    edge_cells[~boundary_edge, 1] = cell_of[first[~boundary_edge] + 1]

    h_edge = np.linalg.norm(
        vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1
    )
    h_cell = h_edge[cell_edges].max(axis=1)

    if check_hanging:
        _check_hanging_vertices(vertices, edges, boundary_edge)

    # a connected planar mesh whose boundary has b loops has
    # V - E + T = 2 - b; disconnected meshes fail this count
    euler = len(vertices) - len(edges) + len(cells)
    loops = _boundary_loops(len(vertices), edges[boundary_edge])
    if euler != 2 - loops:
        raise NonConformingError(
            "Euler relation V - E + T = 2 - {} boundary loops violated "
            "(got {})".format(loops, euler)
        )

    for arr in (vertices, cells, edges, cell_edges, edge_cells):
        arr.setflags(write=False)
    return Mesh(
        vertices=vertices,
        cells=cells,
        edges=edges,
        cell_edges=cell_edges,
        edge_cells=edge_cells,
        boundary_edge=boundary_edge,
        h_cell=h_cell,
        h_edge=h_edge,
        area=areas,
    )


def refine_uniform(mesh):
    """Red refinement: each triangle split into 4 congruent children."""
    V = mesh.num_vertices
    mid_index = V + np.arange(mesh.num_edges)
    midpoints = 0.5 * (
        mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]
    )
    vertices = np.vstack([mesh.vertices, midpoints])

    c = mesh.cells
    m = mid_index[mesh.cell_edges]  # m[:, i] is midpoint opposite vertex i
    children = np.empty((mesh.num_cells, 4, 3), dtype=np.int64)
    children[:, 0] = np.stack([c[:, 0], m[:, 2], m[:, 1]], axis=1)
    children[:, 1] = np.stack([c[:, 1], m[:, 0], m[:, 2]], axis=1)
    children[:, 2] = np.stack([c[:, 2], m[:, 1], m[:, 0]], axis=1)
    children[:, 3] = np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1)
    parent = np.repeat(np.arange(mesh.num_cells), 4)
    child = build_mesh(vertices, children.reshape(-1, 3), check_hanging=False)
    return RefinementResult(child_mesh=child, parent_of_cell=parent)


def unit_square_mesh(n):
    """n x n grid of the unit square, each square split by one diagonal."""
    if n < 1:
        raise MeshError("grid parameter n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # square (i, j), in row-major order, has lower-left vertex i (n + 1) + j
    # and gives cells (a, b, c) and (a, c, d), counterclockwise from a
    I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a = (I * (n + 1) + J).ravel()
    b, c, d = a + n + 1, a + n + 2, a + 1
    cells = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return build_mesh(vertices, cells, check_hanging=False)


def two_triangle_square():
    """Unit square split into 2 triangles: the smallest conforming mesh."""
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    return build_mesh(vertices, [[0, 1, 2], [0, 2, 3]])


def _read_table(path, width):
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split()
                if len(header) != 2 or int(header[1]) != width:
                    raise MeshError(
                        "bad header in {}: expected '<count> {}'".format(path, width)
                    )
                continue
            parts = line.split()
            if len(parts) != width:
                raise MeshError("bad row in {}: {!r}".format(path, line))
            rows.append(parts)
    if header is None:
        raise MeshError("empty file {}".format(path))
    if len(rows) != int(header[0]):
        raise MeshError(
            "{}: header announces {} rows, found {}".format(
                path, header[0], len(rows)
            )
        )
    return rows


def read_mesh(node_path, ele_path):
    """Read a mesh from a node/element plain-text file pair.

    Node file: header line ``<V> 2`` then V lines ``x y``.  Element file:
    header ``<T> 3`` then T lines of three 0-based vertex indices.
    Comment lines start with ``#``.
    """
    node_rows = _read_table(node_path, 2)
    ele_rows = _read_table(ele_path, 3)
    vertices = np.array([[float(x) for x in r] for r in node_rows])
    cells = np.array([[int(x) for x in r] for r in ele_rows])
    return build_mesh(vertices, cells)


def write_mesh(mesh, node_path, ele_path):
    with open(node_path, "w") as fh:
        fh.write("{} 2\n".format(mesh.num_vertices))
        for x, y in mesh.vertices:
            fh.write("{:.17g} {:.17g}\n".format(x, y))
    with open(ele_path, "w") as fh:
        fh.write("{} 3\n".format(mesh.num_cells))
        for a, b, c in mesh.cells:
            fh.write("{} {} {}\n".format(a, b, c))
