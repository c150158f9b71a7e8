"""References for `plateau.DiskMesh`, `plateau.discrete_geometry` and the
surfaces of H^{2,n}.

The mesh and geometry references work one vertex (or face) at a time,
with scalar loops and `np.linalg.lstsq`, the way the mesh tables and the
geometry were computed before they were built from arrays. The analytic
oracles are the totally geodesic disk, the finite-radius points over a
loop and the closed-form second fundamental form of a flat orbit surface.
The flattening references are a Gauss-Newton that always factors the
normal matrix J^T J, and a development that starts from the surface's H^2
projection instead of a ring-by-ring placement. Tests compare the program
against them.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from pseudoplateau import diagnostics as diag

from pseudoplateau import hspace as hs
from pseudoplateau import plateau as pl
from pseudoplateau.einstein import LipschitzLoop
from pseudoplateau.qcore import BilinearForm


def geodesic_disk_point(form, r, theta):
    """Polar point of the standard totally geodesic plane."""
    f = np.zeros(form.dim - 2)
    f[0] = 1.0
    return hs.cylinder_point(form, r, theta, f)


def geodesic_disk_state(form, m, s, R):
    """The exact totally geodesic disk on the polar mesh."""
    thetas = np.linspace(0.0, 2.0 * np.pi, s, endpoint=False)
    fiber = np.zeros(form.dim - 2)
    fiber[0] = 1.0
    loop = LipschitzLoop(thetas, np.tile(fiber, (s, 1)), c1=True)
    return pl.build_state(loop, m, s, R)


def boundary_ray_point(loop, theta, R):
    """Finite-radius representative of the ideal loop point at angle theta:
    converges projectively to the loop point as R grows."""
    return hs.cylinder_point(BilinearForm(loop.n), R, theta, loop.fibers_at(theta))


def barbot_second_fundamental(crown, s, t):
    """Closed-form second fundamental form in the orthonormal frame of
    `hspace.barbot_tangent_frame`: returns (alpha, beta) = (II(e1, e1),
    II(e1, e2)); beta vanishes and II(e2, e2) = -alpha by maximality."""
    z = crown.zreps
    x = hs.barbot_surface_point(crown, s, t).rep
    xss2 = 2.0 * (np.exp(s) * z[0] + np.exp(-s) * z[2])
    alpha = xss2 - x
    beta = np.zeros_like(x)
    return alpha, beta


def reference_faces(mesh):
    """The center fan, then two triangles per quad between consecutive
    rings, ring by ring and sector by sector."""
    m, s = mesh.rings, mesh.sectors
    faces = []
    for j in range(s):
        faces.append((0, mesh.vertex(1, j), mesh.vertex(1, j + 1)))
    for i in range(2, m + 1):
        for j in range(s):
            v00 = mesh.vertex(i - 1, j)
            v10 = mesh.vertex(i, j)
            v11 = mesh.vertex(i, j + 1)
            v01 = mesh.vertex(i - 1, j + 1)
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return np.asarray(faces, dtype=np.int64)


def reference_cotan_matrix(grams, mesh):
    """`plateau._cotan_matrix` from a COO matrix of the six corner-pair
    weights of every face, converted to CSR (which sums the duplicates),
    and vertex areas accumulated one corner column at a time."""
    faces = mesh.faces
    a, b, c, det = grams
    s = np.sqrt(det)
    area = 0.5 * s
    cot0, cot1, cot2 = b / s, (a - b) / s, (c - b) / s
    nv = mesh.vertex_count
    rows = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0], faces[:, 2], faces[:, 0], faces[:, 1]])
    cols = np.concatenate([faces[:, 2], faces[:, 1], faces[:, 2], faces[:, 0], faces[:, 1], faces[:, 0]])
    w = 0.5 * np.concatenate([cot0, cot0, cot1, cot1, cot2, cot2])
    W = sp.coo_matrix((w, (rows, cols)), shape=(nv, nv)).tocsr()
    deg = np.asarray(W.sum(axis=1)).ravel()
    omega = np.zeros(nv)
    for k in range(3):
        np.add.at(omega, faces[:, k], area / 3.0)
    return W, deg, omega


def reference_polar_grid(mesh):
    """Radii and angles of every vertex, center first, one ring at a time."""
    m, s = mesh.rings, mesh.sectors
    r = np.zeros(mesh.vertex_count)
    th = np.zeros(mesh.vertex_count)
    thetas = 2.0 * np.pi * np.arange(s) / s
    for i in range(1, m + 1):
        base = mesh.vertex(i, 0)
        r[base: base + s] = mesh.radius * i / m
        th[base: base + s] = thetas
    return r, th


def balanced_star(mesh, i, j):
    """Cyclically ordered stencil around vertex (i, j) of an interior ring."""
    s = mesh.sectors
    if i == 0:
        stride = max(1, round(s / 6))
        return [mesh.vertex(1, k * stride) for k in range(s // stride)]
    sigma = int(np.clip(round(s / (2.0 * np.pi * i)), 1, s // 4))
    raw = [
        (i + 1, j), (i + 1, j + sigma), (i, j + sigma), (i - 1, j + sigma),
        (i - 1, j), (i - 1, j - sigma), (i, j - sigma), (i + 1, j - sigma),
    ]
    star = []
    for (a, b) in raw:
        v = mesh.vertex(a, b)
        if not star or (v != star[-1] and v != star[0]):
            star.append(v)
    return star


def reference_geometry(state):
    """The fields K, ii_gauss, ii_fit and ii_frame, keyed by name."""
    form, mesh, X = state.form, state.mesh, state.positions
    nv, s = mesh.vertex_count, mesh.sectors
    e1, e2 = pl.tangent_frames(form, X, mesh)

    def ip(u, v):
        # the same summation as the batched code: lengths come from arccosh
        # near 1, which turns one rounding step of a pairing into 1e-14
        return form.inner_rows(u, v)

    def q(u):
        return ip(u, u)

    interior = mesh.interior_mask(0)
    out = {
        "K": np.full(nv, np.nan), "ii_fit": np.full(nv, np.nan),
        "ii_frame": np.zeros((nv, 2, 2, form.dim)),
    }
    stars, uv = {}, {}
    for v in np.flatnonzero(interior):
        i, j = (0, 0) if v == 0 else (1 + (v - 1) // s, (v - 1) % s)
        star = stars[v] = balanced_star(mesh, i, j)
        x = X[v]
        rows, normals, us = [], [], []
        for w in star:
            d = X[w] - x
            d = d + ip(d, x) * x
            u1, u2 = ip(d, e1[v]), ip(d, e2[v])
            rows.append((0.5 * u1 * u1, u1 * u2, 0.5 * u2 * u2))
            normals.append(d - u1 * e1[v] - u2 * e2[v])
            us.append((u1, u2))
        uv[v] = us
        a11, a12, a22 = np.linalg.lstsq(np.array(rows), np.array(normals), rcond=None)[0]
        out["ii_frame"][v] = [[a11, a12], [a12, a22]]
        out["ii_fit"][v] = -(q(a11) + 2.0 * q(a12) + q(a22))

    for v, star in stars.items():
        x, A, L = X[v], out["ii_frame"][v], len(star)

        def kappa_sq(du1, du2):
            nrm = np.hypot(du1, du2)
            c1, c2 = du1 / nrm, du2 / nrm
            vec = c1 * c1 * A[0, 0] + 2.0 * c1 * c2 * A[0, 1] + c2 * c2 * A[1, 1]
            return max(-q(vec), 0.0)

        angle_sum = area = 0.0
        for k in range(L):
            w, wn = star[k], star[(k + 1) % L]
            (u1, u2), (n1, n2) = uv[v][k], uv[v][(k + 1) % L]
            la = np.arccosh(max(abs(ip(X[w], x)), 1.0))
            lb = np.arccosh(max(abs(ip(X[wn], x)), 1.0))
            lc = np.arccosh(max(abs(ip(X[w], X[wn])), 1.0))
            la *= 1.0 - kappa_sq(u1, u2) * la**2 / 24.0
            lb *= 1.0 - kappa_sq(n1, n2) * lb**2 / 24.0
            lc *= 1.0 - kappa_sq(n1 - u1, n2 - u2) * lc**2 / 24.0
            angle_sum += np.arccos(np.clip((la**2 + lb**2 - lc**2) / (2.0 * la * lb), -1.0, 1.0))
            h = 0.5 * (la + lb + lc)
            area += np.sqrt(max(h * (h - la) * (h - lb) * (h - lc), 0.0))
        out["K"][v] = (2.0 * np.pi - angle_sum) / (area / 3.0)
    out["ii_gauss"] = 2.0 * (out["K"] + 1.0)
    return out


def gauss_newton_normal(residual, x):
    """`diagnostics._gauss_newton` with the normal-matrix step
    splu(J^T J).solve(J^T r) for every J, square or not."""
    r, J = residual(x)
    step = None
    for _ in range(diag.GAUSS_NEWTON_TRIALS):
        if np.max(np.abs(r)) < diag.GAUSS_NEWTON_TOL:
            return x
        if step is None:
            Jt = J.T.tocsc()
            step, t = splu((Jt @ J).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True}).solve(Jt @ r), 1.0
        try:
            r_t, J_t = residual(x - t * step)
        except diag.FlatteningError:
            r_t = None
        if r_t is not None and r_t @ r_t < r @ r:
            x, r, J, step = x - t * step, r_t, J_t, None
        else:
            t *= 0.5
    raise diag.FlatteningError(f"Gauss-Newton solve stalled at max residual {np.max(np.abs(r)):.2e}")


def develop_from_projection(state, lengths):
    """`diagnostics._develop_h2` from the surface's own H^2 projection
    (X_0, X_1, |X_{2:}|), moved by an isometry that puts vertex 0 at the
    origin and v(1, 0) on the +x axis, then Gauss-Newton on the edge
    lengths with `gauss_newton_normal`. Returns the (x, y) rows."""
    mesh = state.mesh
    faces = mesh.faces
    nv = mesh.vertex_count
    sides = np.sort(np.concatenate([faces[:, side] for side in diag.FACE_SIDES]), axis=1)
    edges, first = np.unique(sides, axis=0, return_index=True)
    target = np.concatenate(lengths)[first]
    a, b = edges[:, 0], edges[:, 1]
    rows = np.repeat(np.arange(len(edges)), 4)
    cols = np.column_stack([2 * a, 2 * a + 1, 2 * b, 2 * b + 1]).ravel()

    X = state.positions
    z = np.linalg.norm(X[:, 2:], axis=1)
    # the boost taking the projection (w, z_0) of vertex 0 to the origin
    w = X[0, :2]
    xy = X[:, :2] + np.outer(X[:, :2] @ w / (z[0] + 1.0) - z, w)
    v10 = mesh.vertex(1, 0)
    c, s = xy[v10] / np.hypot(*xy[v10])
    xy = (xy @ np.array([[c, -s], [s, c]])).ravel()
    pinned = [0, 1, 2 * v10 + 1]
    xy[pinned] = 0.0
    free = np.ones(2 * nv, dtype=bool)
    free[pinned] = False

    def residual(q):
        p = xy.copy()
        p[free] = q
        p = p.reshape(nv, 2)
        z = np.sqrt(1.0 + np.sum(p * p, axis=1))
        pair = np.maximum(z[a] * z[b] - np.sum(p[a] * p[b], axis=1), 1.0 + 1e-15)
        root = np.sqrt(pair * pair - 1.0)[:, None]
        grad_a = (p[a] * (z[b] / z[a])[:, None] - p[b]) / root
        grad_b = (p[b] * (z[a] / z[b])[:, None] - p[a]) / root
        J = sp.csc_matrix((np.column_stack([grad_a, grad_b]).ravel(), (rows, cols)),
                          shape=(len(edges), 2 * nv))
        return np.arccosh(pair) - target, J[:, free]

    xy[free] = gauss_newton_normal(residual, xy[free])
    return xy.reshape(nv, 2)
