"""Quantitative audits of solved or analytic surfaces.

Each audit reports measured extremes against fixed thresholds and is
deterministic given its seed. Interior measurements exclude the two
outermost rings, where the Dirichlet truncation pollutes the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .qcore import BilinearForm, GeometryError, standardize_triple
from .einstein import (
    BarbotCrown,
    LipschitzLoop,
    boundary_point,
    from_graph_sample,
    loop_classify,
)
from .crossratio import SampledBoundaryMap, qs_certify
from .hspace import HPoint, gradient_norm_sq, horofunction, spatial_distance
from .plateau import SurfaceState, discrete_geometry


class UnconvergedStateError(GeometryError):
    pass


class FlatteningError(GeometryError):
    pass


AUDIT_EXCLUDE_RINGS = 2


@dataclass
class AuditReport:
    name: str
    values: dict
    thresholds: dict
    passed: bool
    samples: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "values": self.values,
            "thresholds": self.thresholds,
            "passed": bool(self.passed),
            "samples": int(self.samples),
            "seed": int(self.seed),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _require_converged(state: SurfaceState) -> None:
    if not state.converged:
        raise UnconvergedStateError("audit requires a converged state")


def _boundary_points(state: SurfaceState, count: int, rng: np.random.Generator):
    """Ideal boundary samples: from the attached loop when present, else the
    projective classes of the outer ring."""
    if state.loop is not None:
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return [state.loop.boundary_point(t) for t in thetas]
    mesh = state.mesh
    base = mesh.vertex(mesh.rings, 0)
    idx = rng.integers(0, mesh.sectors, size=count)
    return [boundary_point(state.form, state.positions[base + i]) for i in idx]


# ---------------------------------------------------------------------------


def rigidity_audit(state: SurfaceState, k_threshold: float = 5e-2,
                   ii_threshold: float = 2.1) -> AuditReport:
    """Maximum interior curvature and second-form norm against the rigidity
    bounds K <= 0 and |II|^2 <= 2."""
    _require_converged(state)
    geo = discrete_geometry(state)
    inter = state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS)
    max_k = float(np.nanmax(geo.K[inter]))
    min_k = float(np.nanmin(geo.K[inter]))
    max_ii = float(np.nanmax(geo.ii_fit[inter]))
    passed = max_k <= k_threshold and max_ii <= ii_threshold
    return AuditReport(
        name="rigidity",
        values={"max_K": max_k, "min_K": min_k, "max_II_sq": max_ii,
                "max_II_sq_gauss": float(np.nanmax(geo.ii_gauss[inter]))},
        thresholds={"max_K": k_threshold, "max_II_sq": ii_threshold},
        passed=bool(passed),
        samples=int(np.sum(inter)),
    )


def gradient_audit(state: SurfaceState, boundary_samples: int = 24, seed: int = 0,
                   min_threshold: float = 1.0 - 1e-2,
                   max_threshold: float = 2.0 + 5e-2) -> AuditReport:
    """Squared tangential gradient of horofunctions over sampled
    (vertex, boundary point) pairs: bounded below by 1 and above by 2."""
    _require_converged(state)
    rng = np.random.default_rng(seed)
    form = state.form
    zs = _boundary_points(state, boundary_samples, rng)
    geo = discrete_geometry(state)
    e1, e2 = geo.frames
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    per_z = max(1, 600 // len(zs))
    vals = []
    skipped = 0
    for z in zs:
        h = horofunction(form, z.rep)
        verts = rng.choice(inter, size=min(per_z, len(inter)), replace=False)
        for v in verts:
            x = HPoint(state.positions[v])
            pairing = abs(form.inner(x.rep, h.z0))
            if pairing < 1e-10:
                skipped += 1
                continue
            frame = np.vstack([e1[v], e2[v]])
            vals.append(gradient_norm_sq(form, h, x, frame))
    vals = np.array(vals)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    max_k = float(np.nanmax(geo.K[state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS)]))
    c = -max_k
    passed = vmin >= min_threshold and vmax <= max_threshold
    return AuditReport(
        name="gradient",
        values={"min_grad_sq": vmin, "max_grad_sq": vmax,
                "two_minus_c": 2.0 - c, "skipped": skipped},
        thresholds={"min_grad_sq": min_threshold, "max_grad_sq": max_threshold},
        passed=bool(passed),
        samples=len(vals),
        seed=seed,
    )


def _edge_graph(state: SurfaceState) -> sp.csr_matrix:
    """Shortest-path graph: mesh edges plus the balanced-star chords. The
    raw polar mesh offers few edge directions (skinny triangles), which
    overestimates the induced distance by up to ~30%; the star chords
    restore directional coverage."""
    form = state.form
    X = state.positions
    mesh = state.mesh
    faces = mesh.faces
    nv = mesh.vertex_count
    rows, cols, vals = [], [], []
    for a in range(3):
        i = faces[:, a]
        j = faces[:, (a + 1) % 3]
        pair = np.abs(form.inner_rows(X[i], X[j]))
        lengths = np.arccosh(np.maximum(pair, 1.0))
        rows.append(i)
        cols.append(j)
        vals.append(lengths)
    table = mesh.stencil
    src = np.broadcast_to(np.arange(nv)[:, None], table.star.shape)
    extra_i, extra_j = [src[table.mask]], [table.star[table.mask]]
    # steep and shallow chords to cover directions between the star's:
    # several radial steps per sector step and vice versa
    s = mesh.sectors
    js = np.arange(s)
    for i0 in range(1, mesh.rings):
        sigma = int(np.clip(round(s / (2.0 * np.pi * i0)), 1, s // 4))
        fan = [(k, 1) for k in (2, 3, 4)] + [(k, -1) for k in (2, 3, 4)]
        fan += [(1, k * sigma) for k in (2, 3, 4)] + [(1, -k * sigma) for k in (2, 3, 4)]
        for (di, dj) in fan:
            if i0 + di <= mesh.rings:
                extra_i.append(mesh.vertex(i0, 0) + js)
                extra_j.append(mesh.vertex(i0 + di, 0) + (js + dj) % s)
    extra_i = np.concatenate(extra_i)
    extra_j = np.concatenate(extra_j)
    pair = np.abs(form.inner_rows(X[extra_i], X[extra_j]))
    rows.append(extra_i)
    cols.append(extra_j)
    vals.append(np.arccosh(np.maximum(pair, 1.0)))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    # symmetrise and deduplicate by key (duplicate coo entries would sum)
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    keep = lo != hi
    keys = lo[keep] * nv + hi[keep]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    v_sorted = vals[keep][order]
    uniq, start = np.unique(keys, return_index=True)
    edge_len = np.minimum.reduceat(v_sorted, start)
    ei = (uniq // nv).astype(np.int64)
    ej = (uniq % nv).astype(np.int64)
    G = sp.coo_matrix(
        (np.concatenate([edge_len, edge_len]), (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
        shape=(nv, nv),
    )
    return G.tocsr()


def distance_ratio_audit(state: SurfaceState, pairs: int = 300, seed: int = 0,
                         mesh_slack: float | None = None) -> AuditReport:
    """Spatial distance over graph distance on random vertex pairs: pinched
    between 1 and sqrt(2) up to the graph-metric overestimation allowance
    (0.1 from 24 rings up, growing on coarser meshes)."""
    _require_converged(state)
    if mesh_slack is None:
        mesh_slack = 0.1 * max(1.0, (24.0 / state.mesh.rings) ** 1.5)
    rng = np.random.default_rng(seed)
    form = state.form
    G = _edge_graph(state)
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    n_src = max(4, min(24, pairs // 12))
    sources = rng.choice(inter, size=n_src, replace=False)
    dist = dijkstra(G, directed=False, indices=sources)
    ratios = []
    for row, src in enumerate(sources):
        targets = rng.choice(inter, size=max(2, pairs // n_src), replace=False)
        for t in targets:
            if t == src:
                continue
            d_graph = dist[row, t]
            if not np.isfinite(d_graph) or d_graph < 0.3:
                continue
            eth = spatial_distance(form, HPoint(state.positions[src]), HPoint(state.positions[t]))
            ratios.append(eth / d_graph)
    ratios = np.array(ratios)
    rmin, rmax = float(np.min(ratios)), float(np.max(ratios))
    hi = np.sqrt(2.0) * (1.0 + mesh_slack)
    lo = 1.0 / (1.0 + mesh_slack)
    passed = rmax <= hi and rmin >= lo
    return AuditReport(
        name="distance_ratio",
        values={"min_ratio": rmin, "max_ratio": rmax},
        thresholds={"min_ratio": lo, "max_ratio": hi},
        passed=bool(passed),
        samples=len(ratios),
        seed=seed,
    )


def gromov_audit(state: SurfaceState, triples: int = 400, seed: int = 0) -> AuditReport:
    """Gromov-product control: the normalised pairing |<z,w>/(<z,x><x,w>)|
    stays bounded, and the triangle slack of the spatial distance obeys the
    log(2 M1) bound triple by triple."""
    _require_converged(state)
    rng = np.random.default_rng(seed)
    form = state.form
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    bd = _boundary_points(state, 16, rng)
    max_m1 = 0.0
    max_slack = -np.inf
    ok = True
    for _ in range(triples):
        x = HPoint(state.positions[rng.choice(inter)])
        pick = rng.integers(0, 2)
        if pick == 0:
            z = state.positions[rng.choice(inter)]
            w = state.positions[rng.choice(inter)]
        else:
            z = bd[rng.integers(0, len(bd))].rep
            w = bd[rng.integers(0, len(bd))].rep
        num = form.inner(z, w)
        den = form.inner(z, x.rep) * form.inner(x.rep, w)
        if abs(den) < 1e-12:
            continue
        ratio = abs(num / den)
        max_m1 = max(max_m1, ratio)
        if pick == 0:
            zp, wp = HPoint(z), HPoint(w)
            slack = (
                spatial_distance(form, zp, wp)
                - spatial_distance(form, zp, x)
                - spatial_distance(form, x, wp)
            )
            max_slack = max(max_slack, slack)
            if slack > np.log(2.0 * max(ratio, 1e-300)) + 1e-6:
                ok = False
    passed = ok and np.isfinite(max_m1) and max_slack <= np.log(2.0 * max_m1) + 1e-6
    return AuditReport(
        name="gromov",
        values={"M1": max_m1, "max_slack": float(max_slack),
                "slack_bound": float(np.log(2.0 * max_m1))},
        thresholds={"slack_bound": float(np.log(2.0 * max_m1))},
        passed=bool(passed),
        samples=triples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Conformal flattening and boundary extension


def _hyperbolic_angles(a, b, c):
    """Angles of hyperbolic triangles with side arrays (a, b, c); the angle
    returned at each position is opposite the corresponding side."""
    ca = np.cosh(a)
    cb = np.cosh(b)
    cc = np.cosh(c)
    sb = np.sinh(b)
    sc = np.sinh(c)
    sa = np.sinh(a)
    cosA = np.clip((cb * cc - ca) / (sb * sc), -1.0, 1.0)
    cosB = np.clip((ca * cc - cb) / (sa * sc), -1.0, 1.0)
    cosC = np.clip((ca * cb - cc) / (sa * sb), -1.0, 1.0)
    return np.arccos(cosA), np.arccos(cosB), np.arccos(cosC)


def yamabe_flatten(state: SurfaceState, tol: float = 1e-10, max_iter: int = 400):
    """Per-vertex log conformal factors making the mesh a cone-free
    hyperbolic surface (interior angle sums 2 pi; boundary factors fixed).

    Lengths scale by sinh(l'/2) = e^{(u_i+u_j)/2} sinh(l/2).
    """
    form = state.form
    mesh = state.mesh
    X = state.positions
    faces = mesh.faces
    nv = mesh.vertex_count
    pair = np.abs(
        np.stack(
            [
                form.inner_rows(X[faces[:, 1]], X[faces[:, 2]]),
                form.inner_rows(X[faces[:, 0]], X[faces[:, 2]]),
                form.inner_rows(X[faces[:, 0]], X[faces[:, 1]]),
            ],
            axis=1,
        )
    )
    L0 = np.arccosh(np.maximum(pair, 1.0))
    half0 = np.sinh(L0 / 2.0)
    interior = ~mesh.boundary_mask()
    u = np.zeros(nv)

    def angle_sums(uv):
        scale = np.exp(0.5 * (uv[faces[:, 1]] + uv[faces[:, 2]]))
        l0 = 2.0 * np.arcsinh(half0[:, 0] * scale)
        scale = np.exp(0.5 * (uv[faces[:, 0]] + uv[faces[:, 2]]))
        l1 = 2.0 * np.arcsinh(half0[:, 1] * scale)
        scale = np.exp(0.5 * (uv[faces[:, 0]] + uv[faces[:, 1]]))
        l2 = 2.0 * np.arcsinh(half0[:, 2] * scale)
        bad = (l0 + l1 <= l2) | (l0 + l2 <= l1) | (l1 + l2 <= l0)
        if np.any(bad):
            raise FlatteningError("conformal factors broke a triangle inequality")
        a0, a1, a2 = _hyperbolic_angles(l0, l1, l2)
        sums = np.zeros(nv)
        np.add.at(sums, faces[:, 0], a0)
        np.add.at(sums, faces[:, 1], a1)
        np.add.at(sums, faces[:, 2], a2)
        return sums, (l0, l1, l2)

    # damped Jacobi pre-smoothing, then Newton-Krylov on the interior defect
    eta = 0.5
    sums, lengths = angle_sums(u)
    defect = np.where(interior, 2.0 * np.pi - sums, 0.0)
    worst = float(np.max(np.abs(defect)))
    for _ in range(60):
        if worst < tol:
            break
        trial = u - eta * defect
        try:
            sums_t, lengths_t = angle_sums(trial)
        except FlatteningError:
            eta *= 0.5
            if eta < 1e-6:
                raise
            continue
        defect_t = np.where(interior, 2.0 * np.pi - sums_t, 0.0)
        worst_t = float(np.max(np.abs(defect_t)))
        if worst_t > worst:
            eta *= 0.5
            if eta < 1e-6:
                raise FlatteningError("Yamabe relaxation stalled")
            continue
        u, defect, worst, lengths = trial, defect_t, worst_t, lengths_t
        eta = min(eta * 1.05, 0.9)
    if worst >= tol:
        from scipy.optimize import newton_krylov

        idx = np.flatnonzero(interior)

        def reduced(ui):
            uv = np.zeros(nv)
            uv[idx] = ui
            sums_r, _ = angle_sums(uv)
            return 2.0 * np.pi - sums_r[idx]

        try:
            sol = newton_krylov(reduced, u[idx], f_tol=tol, maxiter=60)
        except Exception as exc:
            raise FlatteningError(f"Yamabe solve did not converge: {exc}") from exc
        u = np.zeros(nv)
        u[idx] = sol
        sums, lengths = angle_sums(u)
        defect = np.where(interior, 2.0 * np.pi - sums, 0.0)
        worst = float(np.max(np.abs(defect)))
        if worst >= 10.0 * tol:
            raise FlatteningError(f"Yamabe solve did not reach tolerance (defect {worst:.2e})")
    return u, lengths


def _edge_targets(mesh, lengths) -> dict:
    faces = mesh.faces
    l0, l1, l2 = lengths
    target: dict[tuple[int, int], float] = {}
    for fi, f in enumerate(faces):
        a, b, c = int(f[0]), int(f[1]), int(f[2])
        target[(min(b, c), max(b, c))] = float(l0[fi])
        target[(min(a, c), max(a, c))] = float(l1[fi])
        target[(min(a, b), max(a, b))] = float(l2[fi])
    return target


def _two_anchor_candidates(A, B, dA, dB):
    """The two hyperboloid points at given distances from two anchors."""
    def q3(p, q_):
        return p[0] * q_[0] + p[1] * q_[1] - p[2] * q_[2]

    gAB = q3(A, B)
    M = np.array([[-1.0, gAB], [gAB, -1.0]])
    rhs = np.array([-np.cosh(dA), -np.cosh(dB)])
    ab = np.linalg.solve(M, rhs)
    base = ab[0] * A + ab[1] * B
    qb = q3(base, base)
    N = np.array([
        A[1] * B[2] - A[2] * B[1],
        A[2] * B[0] - A[0] * B[2],
        -(A[0] * B[1] - A[1] * B[0]),
    ])
    qn = q3(N, N)
    if qn <= 0:
        raise FlatteningError("development lost a spacelike normal")
    N = N / np.sqrt(qn)
    gamma = np.sqrt(max(-1.0 - qb, 0.0))
    return base + gamma * N, base - gamma * N


def _lsq_place(p, anchors, iters: int = 4):
    """Damped Gauss-Newton placement against all anchors."""
    x, y = p[0], p[1]
    for _ in range(iters):
        z = np.sqrt(1.0 + x * x + y * y)
        rows, res = [], []
        for (q_, ell) in anchors:
            pair = -(x * q_[0] + y * q_[1] - z * q_[2])
            pair = max(pair, 1.0 + 1e-15)
            d = np.arccosh(pair)
            denom = np.sqrt(max(pair * pair - 1.0, 1e-30))
            rows.append((-(q_[0] - q_[2] * x / z) / denom, -(q_[1] - q_[2] * y / z) / denom))
            res.append(d - ell)
        J = np.array(rows)
        r = np.array(res)
        try:
            step = np.linalg.solve(J.T @ J + 1e-12 * np.eye(2), J.T @ r)
        except np.linalg.LinAlgError:
            break
        norm = np.hypot(step[0], step[1])
        if norm > 0.5:
            step *= 0.5 / norm
        x -= step[0]
        y -= step[1]
    return np.array([x, y, np.sqrt(1.0 + x * x + y * y)])


def _develop_h2(mesh, lengths):
    """Lay the flattened mesh out in the hyperboloid model of H^2, ring by
    ring, placing every vertex against all already-placed neighbours. Pure
    two-anchor propagation amplifies rounding exponentially through thin
    triangles; the redundant anchors keep the layout rigid."""
    nv = mesh.vertex_count
    target = _edge_targets(mesh, lengths)
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(nv)]
    for (a, b), ell in target.items():
        nbrs[a].append((b, ell))
        nbrs[b].append((a, ell))
    # deterministic anchor order; with two anchors (A, B, candidate) is then
    # an even permutation of a positively oriented face, so one global sign
    # disambiguates every two-anchor placement
    for lst in nbrs:
        lst.sort()
    pos = np.full((nv, 3), np.nan)
    placed = np.zeros(nv, dtype=bool)
    m, s = mesh.rings, mesh.sectors
    pos[0] = (0.0, 0.0, 1.0)
    placed[0] = True
    v10 = mesh.vertex(1, 0)
    ell0 = target[(0, v10)]
    pos[v10] = (np.sinh(ell0), 0.0, np.cosh(ell0))
    placed[v10] = True
    ref_sign = None
    for i in range(1, m + 1):
        for j in range(s):
            v = mesh.vertex(i, j)
            if placed[v]:
                continue
            anchors = [(pos[w], ell) for (w, ell) in nbrs[v] if placed[w]]
            anchor_ids = [w for (w, _) in nbrs[v] if placed[w]]
            if len(anchors) < 2:
                raise FlatteningError("development ordering left a vertex underdetermined")
            cand_p, cand_m = _two_anchor_candidates(anchors[0][0], anchors[1][0],
                                                    anchors[0][1], anchors[1][1])
            if len(anchors) >= 3:
                def resid(c):
                    return sum(
                        (np.arccosh(max(-(c[0] * a_[0][0] + c[1] * a_[0][1] - c[2] * a_[0][2]), 1.0)) - a_[1]) ** 2
                        for a_ in anchors
                    )

                cand = cand_p if resid(cand_p) <= resid(cand_m) else cand_m
            else:
                # orientation disambiguation against the first placed face
                A, B = pos[anchor_ids[0]], pos[anchor_ids[1]]
                det_p = np.linalg.det(np.array([A, B, cand_p]))
                if ref_sign is None:
                    # the fan face (0, v(1, j-1), v(1, j)) is positively
                    # oriented; fix the global sign from the first placement
                    ref_sign = 1.0 if det_p >= 0 else -1.0
                    cand = cand_p
                else:
                    cand = cand_p if det_p * ref_sign > 0 else cand_m
            pos[v] = _lsq_place(cand, anchors)
            placed[v] = True
    if not np.all(placed):
        raise FlatteningError("development left unplaced vertices")
    return _refine_layout(mesh, lengths, pos)


def _refine_layout(mesh, lengths, pos, sweeps: int = 60, tol: float = 1e-9):
    """Gauss-Newton sweeps equalising developed edge lengths with their
    targets. Sequential placement amplifies rounding through thin triangles
    (exponentially, in hyperbolic geometry); the defect-free metric is
    exactly developable, so local refinement drives the edge errors to
    rounding level."""
    nv = mesh.vertex_count
    target = _edge_targets(mesh, lengths)
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(nv)]
    for (a, b), ell in target.items():
        nbrs[a].append((b, ell))
        nbrs[b].append((a, ell))

    def edge_error():
        worst = 0.0
        for (a, b), ell in target.items():
            val = -(pos[a, 0] * pos[b, 0] + pos[a, 1] * pos[b, 1] - pos[a, 2] * pos[b, 2])
            worst = max(worst, abs(np.arccosh(max(val, 1.0)) - ell))
        return worst

    order = np.argsort(mesh.ring_of(), kind="stable")
    for _ in range(sweeps):
        for v in order:
            data = nbrs[v]
            if len(data) < 2:
                continue
            p = pos[v]
            for _inner in range(3):
                x, y = p[0], p[1]
                z = np.sqrt(1.0 + x * x + y * y)
                rows = []
                res = []
                for (w, ell) in data:
                    q_ = pos[w]
                    pair = -(x * q_[0] + y * q_[1] - z * q_[2])
                    pair = max(pair, 1.0 + 1e-15)
                    d = np.arccosh(pair)
                    denom = np.sqrt(pair * pair - 1.0)
                    gx = -(q_[0] - q_[2] * x / z) / denom
                    gy = -(q_[1] - q_[2] * y / z) / denom
                    rows.append((gx, gy))
                    res.append(d - ell)
                J = np.array(rows)
                r = np.array(res)
                JtJ = J.T @ J + 1e-12 * np.eye(2)
                try:
                    step = np.linalg.solve(JtJ, J.T @ r)
                except np.linalg.LinAlgError:
                    break
                x -= step[0]
                y -= step[1]
                p = np.array([x, y, np.sqrt(1.0 + x * x + y * y)])
            pos[v] = p
        if edge_error() < tol:
            break
    worst = edge_error()
    if worst > 1e-6:
        raise FlatteningError(f"layout refinement stalled (edge error {worst:.2e})")
    return pos


def boundary_extension(state: SurfaceState, rays: int = 0, A: float = 2.0,
                       n_quadruples: int = 1500, seed: int = 0):
    """Boundary correspondence of the discrete uniformisation: flatten the
    mesh to constant curvature -1, develop it in the hyperbolic plane, read
    the induced boundary angles, compose with the loop, and certify the
    resulting boundary map."""
    _require_converged(state)
    if state.loop is None:
        raise GeometryError("boundary extension needs the loop attached to the state")
    if loop_classify(state.loop) != "positive":
        raise GeometryError("boundary extension requires a positive loop")
    _, lengths = yamabe_flatten(state)
    pos = _develop_h2(state.mesh, lengths)
    mesh = state.mesh
    base = mesh.vertex(mesh.rings, 0)
    thetas_disk = []
    thetas_loop = 2.0 * np.pi * np.arange(mesh.sectors) / mesh.sectors
    for j in range(mesh.sectors):
        p = pos[base + j]
        thetas_disk.append(float(np.arctan2(p[1], p[0]) % (2.0 * np.pi)))
    thetas_disk = np.array(thetas_disk)
    images = [state.loop.boundary_point(t) for t in thetas_loop]
    bmap = SampledBoundaryMap(thetas_disk, images, defined_on="flattened boundary")
    cert = qs_certify(state.form, bmap, A=A, n_quadruples=n_quadruples, rng_seed=seed)
    return bmap, cert


# ---------------------------------------------------------------------------
# Loop-level probes


def _pair_ratios(loop: LipschitzLoop, floor: float) -> np.ndarray:
    """Fiber/circle distance ratio of every sample pair i < j, with 0 where
    j <= i or where the circle distance falls below the floor."""
    dn = np.arccos(np.clip(loop.fibers @ loop.fibers.T, -1.0, 1.0))
    d = np.abs(loop.thetas[:, None] - loop.thetas[None, :]) % (2.0 * np.pi)
    d1 = np.minimum(d, 2.0 * np.pi - d)
    keep = np.triu(d1 >= floor, 1)
    return np.where(keep, dn / np.where(keep, d1, 1.0), 0.0)


def loop_margin(loop: LipschitzLoop, floor: float = 1e-4) -> float:
    """Relative contraction margin: 1 - max fiber/circle distance ratio over
    sampled pairs (pairs below the floor are skipped as pure noise)."""
    return 1.0 - float(np.max(_pair_ratios(loop, floor)))


def quasiperiodicity_probe(loop: LipschitzLoop, triples: int = 50, seed: int = 0) -> dict:
    """Renormalise the loop over sampled positive triples -- half spread at
    random, half concentrating on shrinking arcs -- and report the minimum
    contraction margin; a margin bounded away from zero is the numeric
    proxy for quasiperiodicity."""
    if loop_classify(loop) != "positive":
        raise GeometryError("quasiperiodicity probe requires a positive loop")
    form = BilinearForm(loop.n)
    rng = np.random.default_rng(seed)
    k = loop.size
    margins = []
    reps = np.column_stack([np.cos(loop.thetas), np.sin(loop.thetas), loop.fibers])
    # concentrating triples probe the renormalisation dynamics; aim half of
    # them at the least-contracting spot of the graph, the first worst pair
    # in row-major order
    ratios = _pair_ratios(loop, 1e-4)
    top = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    worst_center = 0.5 * (loop.thetas[top[0]] + loop.thetas[top[1]]) if ratios[top] > 0.0 else 0.0
    tried = 0
    while len(margins) < triples and tried < 30 * triples:
        tried += 1
        mode = tried % 4
        if mode in (0, 1):
            sel = np.sort(rng.choice(k, size=3, replace=False))
        else:
            center = rng.uniform(0.0, 2.0 * np.pi) if mode == 2 else \
                worst_center + rng.normal(scale=0.05)
            delta = np.pi * 10.0 ** rng.uniform(-1.7, -0.2)
            angles = (center + np.array([-delta, 0.0, delta])) % (2.0 * np.pi)
            sel = np.unique([int(np.argmin(np.abs((loop.thetas - a + np.pi) % (2 * np.pi) - np.pi)))
                             for a in angles])
            if len(sel) < 3:
                continue
        triple = [reps[i] for i in sel]
        try:
            g = standardize_triple(triple, form)
        except GeometryError:
            continue
        moved = reps @ g.matrix.T
        nu = np.linalg.norm(moved[:, :2], axis=1)
        nv = np.linalg.norm(moved[:, 2:], axis=1)
        thetas = np.arctan2(moved[:, 1] / nu, moved[:, 0] / nu) % (2.0 * np.pi)
        fibers = moved[:, 2:] / nv[:, None]
        try:
            renorm = LipschitzLoop(thetas, fibers)
        except GeometryError:
            continue
        margins.append(loop_margin(renorm))
    if not margins:
        raise GeometryError("no positive triple produced a renormalisable graph")
    return {
        "min_margin": float(np.min(margins)),
        "median_margin": float(np.median(margins)),
        "base_margin": float(loop_margin(loop)),
        "renormalizations": len(margins),
        "seed": int(seed),
    }


def _loop_points_product(loop: LipschitzLoop) -> np.ndarray:
    pts = [from_graph_sample(t, f).rep for t, f in zip(loop.thetas, loop.fibers)]
    return np.array(pts)


def _distance_to_crown(crown: BarbotCrown, pts: np.ndarray) -> float:
    """Sup over the sample points of the exact auxiliary distance to the
    crown (each edge minimised over its arc parameter by golden section,
    which reaches machine precision where library minimisers floor their
    tolerance at sqrt(eps)). The searches of all points on all four edges
    run in lock step."""
    z = crown.zreps
    zi, zj = z, np.roll(z, -1, axis=0)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    p = pts[:, None, None, :]

    def dist(t):
        # t has shape (points, 4, m); the edge points broadcast against p
        vec = np.cos(t)[..., None] * zi[:, None, :] + np.sin(t)[..., None] * zj[:, None, :]
        nu = np.linalg.norm(vec[..., :2], axis=-1, keepdims=True)
        nv = np.linalg.norm(vec[..., 2:], axis=-1, keepdims=True)
        e = np.concatenate([vec[..., :2] / nu, vec[..., 2:] / nv], axis=-1)
        return np.minimum(np.linalg.norm(e - p, axis=-1), np.linalg.norm(e + p, axis=-1))

    coarse = np.linspace(1e-9, np.pi / 2.0 - 1e-9, 24)
    t0 = coarse[np.argmin(dist(np.broadcast_to(coarse, (len(pts), 4, 24))), axis=-1)]
    lo, hi = np.maximum(t0 - 0.1, 0.0), np.minimum(t0 + 0.1, np.pi / 2.0)
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    f1, f2 = dist(np.stack([x1, x2], axis=-1)).transpose(2, 0, 1)
    for _ in range(70):
        left = f1 < f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x = np.where(left, hi - golden * (hi - lo), lo + golden * (hi - lo))
        f = dist(x[..., None])[..., 0]
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, f, f2), np.where(left, f1, f)
    return float(max(0.0, np.max(np.min(np.minimum(f1, f2), axis=1))))


def barbot_degeneration(loop: LipschitzLoop, crown: BarbotCrown, iters: int = 60,
                        snap: float = 1e-13) -> dict:
    """Iterate the crown's contracting diagonal element on the loop samples
    and report, per iteration, how far the samples sit from the crown (the
    crown is the limit set; sample coverage of it is resolution-limited, so
    the distance is directed).

    The dynamics runs in the crown's eigenbasis, where the group element is
    exactly diagonal; coefficients at pure-rounding level (relative snap)
    are zeroed so that invariant subspaces stay exactly invariant instead
    of being destroyed by amplified rounding noise.
    """
    form = BilinearForm(loop.n)
    if loop_classify(loop) == "positive":
        raise GeometryError("degeneration dynamics need a photon arc; loop is positive")
    z = crown.zreps
    QZ = z * form.signs
    _, _, vh = np.linalg.svd(QZ)
    comp = vh[4:]
    B = np.vstack([z, comp]).T
    Binv = np.linalg.inv(B)
    eig = np.ones(form.dim)
    eig[:4] = (0.25, 0.5, 4.0, 2.0)
    pts = _loop_points_product(loop)
    coeffs = pts @ Binv.T
    history = []
    for _ in range(iters + 1):
        history.append(_distance_to_crown(crown, pts))
        coeffs = coeffs * eig
        scale = np.max(np.abs(coeffs), axis=1)
        coeffs = np.where(np.abs(coeffs) < snap * scale[:, None], 0.0, coeffs)
        moved = coeffs @ B.T
        nu = np.linalg.norm(moved[:, :2], axis=1)
        nv = np.linalg.norm(moved[:, 2:], axis=1)
        pts = np.column_stack([moved[:, :2] / nu[:, None], moved[:, 2:] / nv[:, None]])
        lead = np.where(np.abs(pts[:, 0]) > 1e-12, np.sign(pts[:, 0]), np.sign(pts[:, 1]))
        pts = pts * lead[:, None]
    return {
        "hausdorff": [float(h) for h in history],
        "final": float(history[-1]),
        "iterations": iters,
    }


def asymptotic_hyperbolicity_audit(state: SurfaceState, tol_outer: float = 0.1,
                                   noise: float = 2e-2) -> AuditReport:
    """Ring profile of the curvature: the outermost audited ring must sit
    near -1 and |K+1| must not grow outward over the outer half."""
    _require_converged(state)
    geo = discrete_geometry(state)
    mesh = state.mesh
    ring = mesh.stencil.ring
    m = mesh.rings
    ring_means = {}
    for i in range(0, m - 1):
        sel = ring == i
        if np.any(sel):
            ring_means[i] = float(np.nanmean(geo.K[sel]))
    outer_ring = m - 2
    outer_val = ring_means[outer_ring]
    outer_ok = abs(outer_val + 1.0) <= tol_outer
    half = [i for i in sorted(ring_means) if i >= m // 2 and i <= outer_ring]
    mono_ok = True
    prev = None
    for i in half:
        cur = abs(ring_means[i] + 1.0)
        if prev is not None and cur > prev + noise:
            mono_ok = False
        prev = cur
    passed = outer_ok and mono_ok
    return AuditReport(
        name="asymptotic_hyperbolicity",
        values={"outer_ring_mean_K": outer_val,
                "ring_means": {str(k): v for k, v in ring_means.items()},
                "monotone": mono_ok,
                "c1_loop": bool(state.loop.c1) if state.loop is not None else False},
        thresholds={"outer_ring_mean_K": -1.0, "outer_tol": tol_outer, "noise": noise},
        passed=bool(passed),
        samples=len(ring_means),
    )


def hessian_audit(state: SurfaceState, z, samples: int = 200, seed: int = 0,
                  threshold: float = 0.15) -> AuditReport:
    """Second differences of a horofunction along near-geodesic vertex
    triples against phi_z (g - dh dh + beta) with beta from the fitted
    second fundamental form."""
    _require_converged(state)
    form = state.form
    rng = np.random.default_rng(seed)
    z0 = z.rep if hasattr(z, "rep") else np.asarray(z, dtype=float)
    h = horofunction(form, z0)
    geo = discrete_geometry(state)
    e1, e2 = geo.frames
    mesh = state.mesh
    ring, sec = mesh.stencil.ring, mesh.stencil.sector
    inter = np.flatnonzero(mesh.interior_mask(AUDIT_EXCLUDE_RINGS) & (ring >= 1))
    X = state.positions
    errors = []
    skipped = 0
    chosen = rng.choice(inter, size=min(samples, len(inter)), replace=False)
    for v in chosen:
        i, j = int(ring[v]), int(sec[v])
        if i + 1 > mesh.rings:
            continue
        vp = mesh.vertex(i + 1, j)
        vm = mesh.vertex(i - 1, j) if i > 1 else 0
        x = X[v]
        pairs3 = [abs(form.inner(x, h.z0)), abs(form.inner(X[vp], h.z0)),
                  abs(form.inner(X[vm], h.z0))]
        if min(pairs3) < 1e-8:
            skipped += 1
            continue
        # second difference along the radial near-geodesic triple
        lp = np.arccosh(max(abs(form.inner(X[vp], x)), 1.0))
        lm = np.arccosh(max(abs(form.inner(X[vm], x)), 1.0))
        hv = np.log(pairs3[0])
        hp = np.log(pairs3[1])
        hm = np.log(pairs3[2])
        second = 2.0 * ((hp - hv) / lp + (hm - hv) / lm) / (lp + lm)
        # direction of the segment in the tangent frame
        d = X[vp] - X[vm]
        d = d + form.inner(d, x) * x
        c1 = form.inner(d, e1[v])
        c2 = form.inner(d, e2[v])
        nrm = np.hypot(c1, c2)
        if nrm < 1e-12:
            skipped += 1
            continue
        c1, c2 = c1 / nrm, c2 / nrm
        u_vec = c1 * e1[v] + c2 * e2[v]
        dh = form.inner(u_vec, h.z0) / form.inner(x, h.z0)
        A = geo.ii_frame[v]
        ii_dir = c1 * c1 * A[0, 0] + 2.0 * c1 * c2 * A[0, 1] + c2 * c2 * A[1, 1]
        beta = form.inner(ii_dir, h.z0) / form.inner(x, h.z0)
        rhs = 1.0 - dh * dh + beta
        # the three terms are O(1) individually but may cancel exactly, so
        # errors are measured against the metric scale g(u, u) = 1
        errors.append(abs(second - rhs) / max(abs(rhs), 1.0))
    if not errors:
        raise GeometryError("no usable geodesic segments for the Hessian audit")
    med = float(np.median(errors))
    return AuditReport(
        name="hessian",
        values={"median_rel_error": med, "skipped": skipped},
        thresholds={"median_rel_error": threshold},
        passed=bool(med <= threshold),
        samples=len(errors),
        seed=seed,
    )


ALL_AUDITS = {
    "rigidity": rigidity_audit,
    "gradient": gradient_audit,
    "distance_ratio": distance_ratio_audit,
    "gromov": gromov_audit,
    "asymptotic_hyperbolicity": asymptotic_hyperbolicity_audit,
}
