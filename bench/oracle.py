"""Reference computations for the benchmark's output checks.

Everything here is written apart from the package: the exact solutions
are closed forms in numpy, the cell quadrature is a collapsed
Gauss-Legendre rule built from numpy alone, and rates and effectivities
are plain arithmetic on the per-level figures.  The package is used
only to evaluate its own discrete fields at the points chosen here.
"""

import numpy as np

PI = np.pi


class ExactSolution:
    """u = sin(pi x) sin(pi y) cos(omega t) with A = diag(a11, a22).

    `a_diag(x, y)` returns the two diagonal entries of A.  Every field
    is a space part times a time factor: u = S c(t), u_t = S c'(t) and
    sigma = -A grad S c(t); alpha = A^-1 weights the stress norm.
    """

    def __init__(self, omega, a_diag):
        self.omega = omega
        self.a_diag = a_diag

    def space_parts(self, x, y):
        """(S, sigma / c(t), alpha diagonal) at the points (x, y)."""
        a11, a22 = self.a_diag(x, y)
        S = np.sin(PI * x) * np.sin(PI * y)
        gx = PI * np.cos(PI * x) * np.sin(PI * y)
        gy = PI * np.sin(PI * x) * np.cos(PI * y)
        return S, np.stack([-a11 * gx, -a22 * gy], axis=-1), (1.0 / a11, 1.0 / a22)

    def c(self, t):
        return np.cos(self.omega * np.asarray(t, dtype=float))

    def c_t(self, t):
        return -self.omega * np.sin(self.omega * np.asarray(t, dtype=float))


def _unit(x, y):
    one = np.ones_like(x)
    return one, one


EXACT = {
    "standing-wave": ExactSolution(np.sqrt(2.0) * PI, _unit),
    "variable-coefficient": ExactSolution(
        np.sqrt(2.0) * PI, lambda x, y: (1.0 + x / 2.0, 1.0 + y / 2.0)
    ),
    "forced-cos20": ExactSolution(20.0, _unit),
}


def cell_rule(mesh, m=6):
    """Collapsed m x m Gauss-Legendre rule on every cell.

    The reference point (u (1 - v), v) carries weight w_u w_v (1 - v),
    which integrates total degree <= 2m - 2 exactly.  Returns points
    (T, m*m, 2) and weights (T, m*m) that include the cell Jacobians.
    """
    g, wg = np.polynomial.legendre.leggauss(m)
    g, wg = 0.5 * (g + 1.0), 0.5 * wg
    U, V = np.meshgrid(g, g, indexing="ij")
    WU, WV = np.meshgrid(wg, wg, indexing="ij")
    rx, ry = (U * (1.0 - V)).ravel(), V.ravel()
    rw = (WU * WV * (1.0 - V)).ravel()
    v = np.asarray(mesh.vertices)[np.asarray(mesh.cells)]  # (T, 3, 2)
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = v[:, None, 0] + rx[None, :, None] * e1[:, None] + ry[None, :, None] * e2[:, None]
    return pts, det[:, None] * rw[None, :]


def _node_chunks(count, size=8):
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def true_errors(space, exact, nodes, U, Sigma, dtU0):
    """Node errors ||U^n - u(t_n)|| and ||Sigma^n - sigma(t_n)||_{A^-1}.

    Also returns the initial errors (e_u(0), e_{u,t}(0), e_sigma(0)) in
    the order the package's `initial_errors` uses.  Nodes are taken a
    few at a time so that the check adds little to peak memory.
    """
    pts, w = cell_rule(space.mesh)
    cells = np.arange(space.mesh.num_cells)
    S, G, (a11, a22) = exact.space_parts(pts[..., 0], pts[..., 1])
    T, nq = w.shape
    disp_basis = space.eval_disp_basis(cells, pts)  # (T, nq, nd)
    stress_basis = space.eval_stress_basis(cells, pts)  # (T, nq, nl, 2)
    stress_basis = stress_basis.transpose(0, 1, 3, 2).reshape(T, 2 * nq, -1)
    dd, sd = space.cell_disp_dofs, space.cell_stress_dofs
    wa = np.stack([w * a11, w * a22], axis=-1).reshape(T, 2 * nq, 1)
    G = G.reshape(T, 2 * nq, 1)

    def disp(coeffs):  # (m, n_disp) -> (T, nq, m)
        return disp_basis @ coeffs[:, dd].transpose(1, 2, 0)

    err_u = np.empty(len(nodes))
    err_s = np.empty(len(nodes))
    for part in _node_chunks(len(nodes)):
        c = exact.c(nodes[part])
        du = disp(U[part]) - S[..., None] * c
        err_u[part] = np.sqrt(np.einsum("tq,tqm->m", w, du * du))
        ds = stress_basis @ Sigma[part][:, sd].transpose(1, 2, 0) - G * c
        err_s[part] = np.sqrt(np.sum(wa * ds * ds, axis=(0, 1)))
    dut = disp(dtU0[None])[..., 0] - S * exact.c_t(0.0)
    initial = (err_u[0], float(np.sqrt(np.sum(w * dut * dut))), err_s[0])
    return err_u, err_s, initial


def relative_gap(ours, theirs):
    ours, theirs = np.asarray(ours, float), np.asarray(theirs, float)
    return float(np.abs(ours - theirs).max() / max(np.abs(theirs).max(), 1e-300))


def rates(h, e):
    """Observed orders log(e_{i-1}/e_i) / log(h_{i-1}/h_i), i >= 1."""
    h, e = np.asarray(h, float), np.asarray(e, float)
    return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])


def step_residuals(system, nodes, U, Sigma, dtU, f_bar):
    """Largest relative residual of the two discrete equations over all steps.

    r1 = M_sigma Sigma^n - B^T U^n and
    r2 = M_u (U^n - U^{n-1} - k dtU^{n-1}) / k^2 + B Sigma^n - f_bar^n,
    each relative to the largest of its terms.
    """
    worst = 0.0
    for part in _node_chunks(len(nodes) - 1, 16):
        now = slice(part.start + 1, part.stop + 1)
        k = np.diff(nodes)[part, None]
        ms = (system.M_sigma @ Sigma[now].T).T
        btu = (system.B.T @ U[now].T).T
        mu = (system.M_u @ ((U[now] - U[part] - k * dtU[part]) / k ** 2).T).T
        bs = (system.B @ Sigma[now].T).T
        r1 = np.abs(ms - btu).max(axis=1) / _largest(ms, btu)
        r2 = np.abs(mu + bs - f_bar[now]).max(axis=1) / _largest(mu, bs, f_bar[now])
        worst = max(worst, r1.max(), r2.max())
    return float(worst)


def _largest(*rows):
    """Row-wise largest magnitude over several (m, n) arrays."""
    return np.maximum(np.max([np.abs(r).max(axis=1) for r in rows], axis=0), 1e-300)


def reconstruction_orthogonality(recon):
    """Largest relative Galerkin-orthogonality defect over all nodes.

    With ds = sigma_tilde - P Sigma and du = u_tilde - P U on the
    enriched space, P_stress^T (M_sigma ds - B^T du) and
    P_disp^T (B ds) vanish because the run spaces are subspaces of the
    enriched ones.  Each is taken relative to its largest term.
    """
    e, fs = recon.enriched, recon.fine_system
    Ps, Pd = e.P_stress.T, e.P_disp.T
    worst = 0.0
    for part in _node_chunks(len(recon.u_tilde), 16):
        st, uu = recon.sigma_tilde[part].T, recon.u_tilde[part].T
        Sf, Uf = recon.Sigma_fine[part].T, recon.U_fine[part].T
        ms, bu = Ps @ (fs.M_sigma @ st), Ps @ (fs.B.T @ uu)
        msf, buf = Ps @ (fs.M_sigma @ Sf), Ps @ (fs.B.T @ Uf)
        c, d = Pd @ (fs.B @ st), Pd @ (fs.B @ Sf)
        r1 = np.abs((ms - bu) - (msf - buf)).max(axis=0) / _largest(ms.T, bu.T)
        r2 = np.abs(c - d).max(axis=0) / _largest(c.T, d.T)
        worst = max(worst, r1.max(), r2.max())
    return float(worst)
