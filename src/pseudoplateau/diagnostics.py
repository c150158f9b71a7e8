"""Quantitative audits of solved or analytic surfaces.

Each audit reports measured extremes against fixed thresholds and is
deterministic given its seed. Interior measurements exclude the two
outermost rings, where the Dirichlet truncation pollutes the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

from .qcore import BilinearForm, GeometryError, standardize_triple
from .einstein import (
    BarbotCrown,
    LipschitzLoop,
    boundary_point,
    from_graph_sample,
    loop_classify,
    _circle_dist_matrix,
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
    # the text of the audit's extra file, if it writes one; not in the report
    artifact_text: str | None = field(default=None, repr=False)

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
    # a rim vertex lies on q = -1; its class (u/|u|, v/|v|) is isotropic
    X = state.positions[base + idx]
    classes = np.hstack([X[:, :2] / np.linalg.norm(X[:, :2], axis=1)[:, None],
                         X[:, 2:] / np.linalg.norm(X[:, 2:], axis=1)[:, None]])
    return [boundary_point(state.form, x) for x in classes]


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


def _gradient_samples(state: SurfaceState, geo, rng: np.random.Generator,
                      points: int, per_point: int):
    """Squared tangential horofunction gradients: `points` boundary points,
    then for each one `per_point` interior vertices drawn without
    replacement. Returns the values and the number of pairs skipped because
    the vertex lies on the boundary point's light cone."""
    form = state.form
    e1, e2 = geo.frames
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    vals = []
    skipped = 0
    for z in _boundary_points(state, points, rng):
        h = horofunction(form, z.rep)
        for v in rng.choice(inter, size=min(per_point, len(inter)), replace=False):
            x = HPoint(state.positions[v])
            if abs(form.inner(x.rep, h.z0)) < 1e-10:
                skipped += 1
                continue
            vals.append(gradient_norm_sq(form, h, x, np.vstack([e1[v], e2[v]])))
    return np.array(vals), skipped


def gradient_audit(state: SurfaceState, boundary_samples: int = 24, seed: int = 0,
                   min_threshold: float = 1.0 - 1e-2,
                   max_threshold: float = 2.0 + 5e-2) -> AuditReport:
    """Squared tangential gradient of horofunctions over sampled
    (vertex, boundary point) pairs: bounded below by 1 and above by 2."""
    _require_converged(state)
    geo = discrete_geometry(state)
    vals, skipped = _gradient_samples(state, geo, np.random.default_rng(seed),
                                      boundary_samples, max(1, 600 // boundary_samples))
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


def _distance_pairs(state: SurfaceState, rng: np.random.Generator, sources: int,
                    per_source: int) -> np.ndarray:
    """(graph distance, spatial distance) rows over interior vertex pairs:
    `sources` sources drawn without replacement, then `per_source` targets
    for each. A target equal to its source, or under 0.3 from it in the
    graph, is skipped."""
    form = state.form
    X = state.positions
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    drawn = rng.choice(inter, size=sources, replace=False)
    dist = dijkstra(_edge_graph(state), directed=False, indices=drawn)
    rows = []
    for row, src in enumerate(drawn):
        for t in rng.choice(inter, size=per_source, replace=False):
            d_graph = dist[row, t]
            if t == src or not np.isfinite(d_graph) or d_graph < 0.3:
                continue
            rows.append((d_graph, spatial_distance(form, HPoint(X[src]), HPoint(X[t]))))
    return np.array(rows).reshape(-1, 2)


def distance_ratio_audit(state: SurfaceState, pairs: int = 300, seed: int = 0,
                         mesh_slack: float | None = None) -> AuditReport:
    """Spatial distance over graph distance on random vertex pairs: pinched
    between 1 and sqrt(2) up to the graph-metric overestimation allowance
    (0.1 from 24 rings up, growing on coarser meshes)."""
    _require_converged(state)
    if mesh_slack is None:
        mesh_slack = 0.1 * max(1.0, (24.0 / state.mesh.rings) ** 1.5)
    n_src = max(4, min(24, pairs // 12))
    d_graph, eth = _distance_pairs(state, np.random.default_rng(seed), n_src,
                                   max(2, pairs // n_src)).T
    ratios = eth / d_graph
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


# The corners at the ends of side k of a face, which is opposite corner k.
FACE_SIDES = ([1, 2], [0, 2], [0, 1])

# Residual evaluations one Gauss-Newton solve may spend, rejected trial steps
# included; the flattening and the development each converge in a handful.
GAUSS_NEWTON_TRIALS = 40


def _gauss_newton(residual, x: np.ndarray, tol: float) -> np.ndarray:
    """Sparse Gauss-Newton: steps splu(J^T J).solve(J^T r), halved until the
    squared residual drops, until max |r| < tol.

    `residual(x)` returns the residual vector and its sparse Jacobian, or
    raises FlatteningError at an inadmissible x, which rejects the trial
    step like a residual increase does.

    J^T J is symmetric positive definite, so it is factored in symmetric
    mode: minimum degree on its own pattern and diagonal pivots."""
    r, J = residual(x)
    step = None
    for _ in range(GAUSS_NEWTON_TRIALS):
        if np.max(np.abs(r)) < tol:
            return x
        if step is None:
            Jt = J.T.tocsc()
            # the factor is not kept: held into the next step, two would be alive at once
            step, t = splu((Jt @ J).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True}).solve(Jt @ r), 1.0
        try:
            r_t, J_t = residual(x - t * step)
        except FlatteningError:
            r_t = None
        if r_t is not None and r_t @ r_t < r @ r:
            x, r, J, step = x - t * step, r_t, J_t, None
        else:
            t *= 0.5
    raise FlatteningError(f"Gauss-Newton solve stalled at max residual {np.max(np.abs(r)):.2e}")


def yamabe_flatten(state: SurfaceState, tol: float = 1e-10):
    """Per-vertex log conformal factors making the mesh a cone-free
    hyperbolic surface (interior angle sums 2 pi; boundary factors fixed),
    by Gauss-Newton on the interior angle defects.

    Lengths scale by sinh(l'/2) = e^{(u_i+u_j)/2} sinh(l/2), so
    dl'/du_i = tanh(l'/2). The angle A_k opposite side l_k comes from the
    half-angle formula tan^2(A_k/2) = sinh(s-l_a) sinh(s-l_b) / (sinh s sinh(s-l_k)),
    s the half perimeter, which keeps its precision on the short sides near
    the center where the law of cosines cancels, and varies as
    dA_k = sinh l_k / (sinh l_a sinh l_b sin A_k) (dl_k - cos A_b dl_a - cos A_a dl_b).
    Returns the factors and the side lengths per face, side k opposite
    corner k.
    """
    form = state.form
    X = state.positions
    faces = state.mesh.faces
    nv = state.mesh.vertex_count
    # the rim is the last ring, so the free interior factors come first
    ni = nv - state.mesh.sectors
    ends = [faces[:, side] for side in FACE_SIDES]
    pairs = [np.abs(form.inner_rows(X[e[:, 0]], X[e[:, 1]])) for e in ends]
    half0 = [np.sinh(0.5 * np.arccosh(np.maximum(pair, 1.0))) for pair in pairs]

    def lengths_of(ui):
        u = np.concatenate([ui, np.zeros(nv - ni)])
        l0, l1, l2 = ls = [2.0 * np.arcsinh(h * np.exp(0.5 * (u[e[:, 0]] + u[e[:, 1]])))
                           for h, e in zip(half0, ends)]
        if np.any((l0 + l1 <= l2) | (l0 + l2 <= l1) | (l1 + l2 <= l0)):
            raise FlatteningError("conformal factors broke a triangle inequality")
        return ls

    def residual(ui):
        ls = np.asarray(lengths_of(ui))
        sh = np.sinh(ls)
        s = 0.5 * ls.sum(axis=0)
        sh_gap = np.sinh(s - ls)
        angles = 2.0 * np.arctan2(np.sqrt(np.roll(sh_gap, 1, axis=0) * np.roll(sh_gap, 2, axis=0)),
                                  np.sqrt(np.sinh(s) * sh_gap))
        cos = np.cos(angles)
        sums = np.bincount(faces.T.ravel(), weights=angles.ravel(), minlength=nv)
        dl_du = np.tanh(0.5 * ls)
        rows, cols, vals = [], [], []
        for k in range(3):
            a, b = (k + 1) % 3, (k + 2) % 3
            g = sh[k] / (sh[a] * sh[b] * np.sin(angles[k]))
            for side, dA_dl in ((k, g), (a, -g * cos[b]), (b, -g * cos[a])):
                for end in range(2):
                    rows.append(faces[:, k])
                    cols.append(ends[side][:, end])
                    vals.append(-dA_dl * dl_du[side])
        J = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(nv, nv))
        return 2.0 * np.pi - sums[:ni], J[:ni, :ni]

    ui = _gauss_newton(residual, np.zeros(ni), tol)
    return np.concatenate([ui, np.zeros(nv - ni)]), tuple(lengths_of(ui))


def _develop_h2(state: SurfaceState, lengths) -> np.ndarray:
    """Lay the flattened mesh out on the hyperboloid x^2 + y^2 - z^2 = -1 by
    Gauss-Newton on the edge lengths over the (x, y) of every vertex, until
    every edge is within 1e-10 of its length.

    The start is the surface's own H^2 projection (X_0, X_1, |X_{2:}|), the
    graph coordinate of `build_state`, so the layout keeps the surface's
    orientation. It is moved by an isometry that puts vertex 0 at the
    origin and v(1, 0) on the +x axis, where x, y of vertex 0 and y of
    v(1, 0) stay pinned. Returns the (x, y) rows."""
    mesh = state.mesh
    faces = mesh.faces
    nv = mesh.vertex_count
    sides = np.sort(np.concatenate([faces[:, side] for side in FACE_SIDES]), axis=1)
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

    xy[free] = _gauss_newton(residual, xy[free], 1e-10)
    return xy.reshape(nv, 2)


def boundary_extension(state: SurfaceState, A: float = 2.0, n_quadruples: int = 1500,
                       seed: int = 0):
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
    mesh = state.mesh
    rim = _develop_h2(state, lengths)[mesh.vertex(mesh.rings, 0):]
    thetas_disk = np.arctan2(rim[:, 1], rim[:, 0]) % (2.0 * np.pi)
    thetas_loop = 2.0 * np.pi * np.arange(mesh.sectors) / mesh.sectors
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
    d1 = _circle_dist_matrix(loop.thetas)
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


def _ring_mean_K(state: SurfaceState, geo) -> np.ndarray:
    """Mean Gauss curvature of each ring 0 .. rings - 2, NaN samples
    ignored."""
    ring = state.mesh.stencil.ring
    return np.array([np.nanmean(geo.K[ring == i]) for i in range(state.mesh.rings - 1)])


def asymptotic_hyperbolicity_audit(state: SurfaceState, tol_outer: float = 0.1,
                                   noise: float = 2e-2) -> AuditReport:
    """Ring profile of the curvature: the outermost audited ring must sit
    near -1 and |K+1| must not grow outward over the outer half."""
    _require_converged(state)
    means = _ring_mean_K(state, discrete_geometry(state))
    outer_val = float(means[-1])
    outer_ok = abs(outer_val + 1.0) <= tol_outer
    gap = np.abs(means[state.mesh.rings // 2:] + 1.0)
    mono_ok = not np.any(gap[1:] > gap[:-1] + noise)
    passed = outer_ok and mono_ok
    return AuditReport(
        name="asymptotic_hyperbolicity",
        values={"outer_ring_mean_K": outer_val,
                "ring_means": {str(i): float(v) for i, v in enumerate(means)},
                "monotone": mono_ok,
                "c1_loop": bool(state.loop.c1) if state.loop is not None else False},
        thresholds={"outer_ring_mean_K": -1.0, "outer_tol": tol_outer, "noise": noise},
        passed=bool(passed),
        samples=len(means),
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


@dataclass(frozen=True)
class RegisteredAudit:
    """An audit as `audit` runs it from a state and a seed.

    `run(state, seed)` returns the AuditReport. It reaches the audit through
    this module's global name at call time, so a function patched on the
    module is the one that runs. `needs_loop` marks audits that need the
    loop attached to the state; `artifact` names the extra file the audit
    writes, whose text is the report's `artifact_text`."""

    run: Callable[[SurfaceState, int], AuditReport]
    needs_loop: bool = False
    artifact: str | None = None


def boundary_extension_audit(state: SurfaceState, seed: int) -> AuditReport:
    """`boundary_extension` as an audit: passes when the certificate's B is
    finite; the certificate itself is the report's artifact."""
    _, cert = boundary_extension(state, seed=seed)
    return AuditReport(
        name="boundary_extension",
        values={"A": cert.A, "B_measured": cert.B,
                "quadruples_tested": cert.quadruples_tested},
        thresholds={"B_finite": True},
        passed=bool(np.isfinite(cert.B)),
        samples=cert.quadruples_tested,
        seed=seed,
        artifact_text=cert.to_json() + "\n",
    )


# Every audit the CLI can run, by name.
AUDITS = {
    "rigidity": RegisteredAudit(lambda state, seed: rigidity_audit(state)),
    "gradient": RegisteredAudit(lambda state, seed: gradient_audit(state, seed=seed)),
    "distance_ratio": RegisteredAudit(lambda state, seed: distance_ratio_audit(state, seed=seed)),
    "gromov": RegisteredAudit(lambda state, seed: gromov_audit(state, seed=seed)),
    "asymptotic_hyperbolicity": RegisteredAudit(
        lambda state, seed: asymptotic_hyperbolicity_audit(state)),
    "hessian": RegisteredAudit(
        lambda state, seed: hessian_audit(state, state.loop.boundary_point(0.0), seed=seed),
        needs_loop=True),
    "boundary_extension": RegisteredAudit(
        lambda state, seed: boundary_extension_audit(state, seed),
        needs_loop=True, artifact="qs_certificate.json"),
}
