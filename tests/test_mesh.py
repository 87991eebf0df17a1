import numpy as np
import pytest

from mixedwave import mesh as msh
from mixedwave import reconstruction as rec
from mixedwave import solver
from mixedwave.assembly import assemble_system
from mixedwave.spaces import MixedSpace
from mixedwave.verification import energy_drift


def test_two_triangle_square_counts():
    m = msh.two_triangle_square()
    assert m.num_vertices == 4
    assert m.num_cells == 2
    assert m.num_edges == 5
    assert int((~m.boundary_edge).sum()) == 1


def test_clockwise_cell_is_reordered():
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    a = msh.build_mesh(vertices, [[0, 1, 2], [0, 2, 3]])
    b = msh.build_mesh(vertices, [[0, 2, 1], [0, 2, 3]])
    assert np.all(b.area > 0)
    assert a.num_edges == b.num_edges
    assert np.array_equal(a.edges, b.edges)


def _loop_unit_square_cells(n):
    """Reference cell list of unit_square_mesh, built square by square."""
    cells = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            c, d = (i + 1) * (n + 1) + j + 1, i * (n + 1) + j + 1
            cells.append([a, b, c])
            cells.append([a, c, d])
    return cells


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unit_square_mesh_matches_loop_reference(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    ref = msh.build_mesh(vertices, _loop_unit_square_cells(n))
    got = msh.unit_square_mesh(n)
    for name in ("vertices", "cells", "edges", "cell_edges", "edge_cells"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_euler_formula_on_grid():
    m = msh.unit_square_mesh(4)
    assert m.num_cells == 32
    assert m.num_edges == m.num_vertices + m.num_cells - 1


def test_orientation_positive_areas():
    m = msh.unit_square_mesh(3)
    assert np.all(m.area > 0)
    assert abs(m.area.sum() - 1.0) < 1e-13


def test_h_cell_is_longest_side():
    m = msh.unit_square_mesh(2)
    assert np.allclose(m.h_cell, np.sqrt(2.0) / 2)


def test_refine_uniform_counts_and_areas():
    m = msh.two_triangle_square()
    res = msh.refine_uniform(m)
    child = res.child_mesh
    assert child.num_cells == 8
    assert abs(child.h_max - m.h_max / 2) < 1e-14
    assert abs(child.area.sum() - m.area.sum()) < 1e-13
    # each parent's children tile it
    for p in range(m.num_cells):
        kids = np.flatnonzero(res.parent_of_cell == p)
        assert len(kids) == 4
        assert abs(child.area[kids].sum() - m.area[p]) < 1e-13


def test_three_refinements_cell_count():
    m = msh.two_triangle_square()
    for _ in range(3):
        m = msh.refine_uniform(m).child_mesh
    assert m.num_cells == 128


def test_degenerate_cell_rejected():
    vertices = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(msh.DegenerateCellError):
        msh.build_mesh(vertices, [[0, 1, 2]])


def test_index_out_of_range_rejected():
    with pytest.raises(msh.IndexOutOfRangeError):
        msh.build_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 5]])


def test_hanging_vertex_rejected():
    # vertex 4 hangs on the diagonal edge (1, 3) of the left triangle
    vertices = [
        [0.0, 0.0],
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
        [0.5, 0.5],
    ]
    cells = [[0, 1, 3], [1, 2, 4], [2, 3, 4]]
    with pytest.raises(msh.NonConformingError):
        msh.build_mesh(vertices, cells)


def test_hanging_vertex_inside_the_domain_rejected():
    # one cell of a 4 x 4 grid, all of whose edges are interior, split
    # into four at its edge midpoints, its neighbours left as they are:
    # the midpoints hang on edges inside the square
    base = msh.unit_square_mesh(4)
    a, b, c = base.cells[10]
    mids = 0.5 * (base.vertices[[b, c, a]] + base.vertices[[c, a, b]])
    ma, mb, mc = base.num_vertices + np.arange(3)
    kids = [[a, mc, mb], [b, ma, mc], [c, mb, ma], [ma, mb, mc]]
    cells = np.vstack([np.delete(base.cells, 10, axis=0), kids])
    with pytest.raises(msh.NonConformingError, match="hangs"):
        msh.build_mesh(np.vstack([base.vertices, mids]), cells)


def test_orphan_vertex_rejected():
    # an 8 x 8 grid with its four centre squares removed leaves the
    # centre vertex in no cell; the orphan check names it first
    m = msh.unit_square_mesh(8)
    centre = m.vertices[m.cells].mean(axis=1)
    hole = np.all(np.abs(centre - 0.5) < 0.125, axis=1)
    assert hole.sum() == 8
    cells = m.cells[~hole]
    with pytest.raises(msh.NonConformingError, match="vertex 40 belongs to no cell"):
        msh.build_mesh(m.vertices, cells)


def _holed_grid():
    # an 8 x 8 grid without the two cells of one interior square
    m = msh.unit_square_mesh(8)
    square = 2 * (3 * 8 + 4)
    return m.vertices, np.delete(m.cells, [square, square + 1], axis=0)


def test_disjoint_triangles_rejected():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]
    with pytest.raises(msh.NonConformingError, match="Euler"):
        msh.build_mesh(vertices, [[0, 1, 2], [3, 4, 5]])


def test_mesh_with_a_hole_builds_and_runs():
    mesh = msh.build_mesh(*_holed_grid())
    assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 0
    assert int(mesh.boundary_edge.sum()) == 32 + 4
    system = assemble_system(MixedSpace(mesh, 0))
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    u1 = lambda x, y: np.zeros(np.shape(x))
    traj = solver.run(system, None, u0, u1, solver.uniform_grid(0.2, 4))
    assert energy_drift(traj) <= 1e-10
    recon = rec.reconstruct_trajectory(traj)
    for n in range(traj.grid.num_steps + 1):
        scale = max(1.0, np.abs(traj.Sigma[n]).max())
        r1, r2 = rec.galerkin_orthogonality(recon, n)
        assert r1 < 1e-9 * scale
        assert r2 < 1e-9 * scale


def test_edge_cells_on_a_jittered_mesh():
    base = msh.unit_square_mesh(6)
    v = np.array(base.vertices)
    inner = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[inner] += np.random.default_rng(3).uniform(-0.015, 0.015, (int(inner.sum()), 2))
    cells = base.cells[np.random.default_rng(4).permutation(base.num_cells)]
    m = msh.build_mesh(v, cells)
    interior = ~m.boundary_edge
    left, right = m.edge_cells[interior].T
    assert np.all(left < right)
    assert np.all(m.edge_cells[m.boundary_edge, 1] == -1)
    for e in range(m.num_edges):
        for c in m.edge_cells[e]:
            if c >= 0:
                assert e in m.cell_edges[c]
                assert set(m.edges[e]) <= set(m.cells[c])


def test_overshared_edge_rejected():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]
    cells = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(msh.NonConformingError):
        msh.build_mesh(vertices, cells)


def test_edge_normals_are_rotated_tangents():
    m = msh.unit_square_mesh(2)
    t = m.edge_tangents()
    n = m.edge_normals()
    assert np.allclose(np.einsum("ec,ec->e", t, n), 0.0)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0)


def test_mesh_io_roundtrip(tmp_path):
    m = msh.unit_square_mesh(3)
    node, ele = tmp_path / "m.node", tmp_path / "m.ele"
    msh.write_mesh(m, node, ele)
    m2 = msh.read_mesh(node, ele)
    assert np.allclose(m.vertices, m2.vertices)
    assert np.array_equal(m.cells, m2.cells)


def test_mesh_io_bad_header(tmp_path):
    node = tmp_path / "bad.node"
    node.write_text("4 3\n0 0\n1 0\n1 1\n0 1\n")
    ele = tmp_path / "bad.ele"
    ele.write_text("1 3\n0 1 2\n")
    with pytest.raises(msh.MeshError):
        msh.read_mesh(node, ele)


def test_mesh_io_row_count_mismatch(tmp_path):
    node = tmp_path / "bad.node"
    node.write_text("5 2\n0 0\n1 0\n1 1\n0 1\n")
    ele = tmp_path / "bad.ele"
    ele.write_text("1 3\n0 1 2\n")
    with pytest.raises(msh.MeshError):
        msh.read_mesh(node, ele)


@pytest.mark.parametrize(
    "node_text, ele_text, bad, line",
    [
        ("4 x\n0 0\n1 0\n1 1\n0 1\n", "2 3\n0 1 2\n0 2 3\n", "node", 1),
        ("4 2\n0 0\n1 0\n1 q\n0 1\n", "2 3\n0 1 2\n0 2 3\n", "node", 4),
        ("4 2\n0 0\n1 0\n1 1\n0 1\n", "2 3\n# cells\n0 1 2\n0 2 q\n", "ele", 4),
    ],
    ids=["header", "vertex", "cell"],
)
def test_mesh_io_non_numeric_token(tmp_path, node_text, ele_text, bad, line):
    node, ele = tmp_path / "q.node", tmp_path / "q.ele"
    node.write_text(node_text)
    ele.write_text(ele_text)
    # the message names the file and the line
    with pytest.raises(msh.MeshError, match=r"q\.{}, line {}".format(bad, line)):
        msh.read_mesh(node, ele)
