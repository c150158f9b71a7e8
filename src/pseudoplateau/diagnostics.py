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

from .qcore import BilinearForm, GeometryError, standardize_triples
from .einstein import (
    BarbotCrown,
    LipschitzLoop,
    boundary_points,
    graph_points,
    loop_classify,
    _pair_distances,
)
from .crossratio import SampledBoundaryMap, qs_certify
from .hspace import gradient_norm_sq, horofunction, spatial_distance
from .plateau import SurfaceState, _factor, discrete_geometry


class UnconvergedStateError(GeometryError):
    pass


class FlatteningError(GeometryError):
    pass


AUDIT_EXCLUDE_RINGS = 2

# The audits' thresholds; each report's `thresholds` shows the ones it used.
RIGIDITY_MAX_K = 5e-2
RIGIDITY_MAX_II_SQ = 2.1
GRADIENT_MIN_SQ = 1.0 - 1e-2
GRADIENT_MAX_SQ = 2.0 + 5e-2
OUTER_RING_TOL = 0.1
RING_PROFILE_NOISE = 2e-2
HESSIAN_MAX_MEDIAN_ERROR = 0.15


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


def _boundary_points(state: SurfaceState, count: int, rng: np.random.Generator) -> np.ndarray:
    """Ideal boundary samples as (count, dim) representatives: from the
    attached loop when present, else the classes of the outer ring."""
    if state.loop is not None:
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return state.loop.boundary_points(thetas)
    mesh = state.mesh
    base = mesh.vertex(mesh.rings, 0)
    idx = rng.integers(0, mesh.sectors, size=count)
    # a rim vertex lies on q = -1; its class (u/|u|, v/|v|) is isotropic
    X = state.positions[base + idx]
    classes = np.hstack([X[:, :2] / np.linalg.norm(X[:, :2], axis=1)[:, None],
                         X[:, 2:] / np.linalg.norm(X[:, 2:], axis=1)[:, None]])
    return boundary_points(state.form, classes)


# ---------------------------------------------------------------------------


def rigidity_audit(state: SurfaceState) -> AuditReport:
    """Maximum interior curvature and second-form norm against the rigidity
    bounds K <= 0 and |II|^2 <= 2."""
    _require_converged(state)
    geo = discrete_geometry(state)
    inter = state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS)
    max_k = float(np.nanmax(geo.K[inter]))
    min_k = float(np.nanmin(geo.K[inter]))
    max_ii = float(np.nanmax(geo.ii_fit[inter]))
    passed = max_k <= RIGIDITY_MAX_K and max_ii <= RIGIDITY_MAX_II_SQ
    return AuditReport(
        name="rigidity",
        values={"max_K": max_k, "min_K": min_k, "max_II_sq": max_ii,
                "max_II_sq_gauss": float(np.nanmax(geo.ii_gauss[inter]))},
        thresholds={"max_K": RIGIDITY_MAX_K, "max_II_sq": RIGIDITY_MAX_II_SQ},
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
    X = state.positions
    frames = np.stack(geo.frames, axis=1)
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    vals = []
    skipped = 0
    for z in _boundary_points(state, points, rng):
        h = horofunction(form, z)
        v = rng.choice(inter, size=min(per_point, len(inter)), replace=False)
        usable = np.abs(form.inner_rows(X[v], h.z0)) >= 1e-10
        skipped += int(np.sum(~usable))
        v = v[usable]
        vals.append(gradient_norm_sq(form, h, X[v], frames[v]))
    return np.concatenate(vals), skipped


def gradient_audit(state: SurfaceState, seed: int = 0) -> AuditReport:
    """Squared tangential gradient of horofunctions over sampled
    (vertex, boundary point) pairs: bounded below by 1 and above by 2."""
    _require_converged(state)
    geo = discrete_geometry(state)
    vals, skipped = _gradient_samples(state, geo, np.random.default_rng(seed), 24, 25)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    max_k = float(np.nanmax(geo.K[state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS)]))
    passed = vmin >= GRADIENT_MIN_SQ and vmax <= GRADIENT_MAX_SQ
    return AuditReport(
        name="gradient",
        values={"min_grad_sq": vmin, "max_grad_sq": vmax,
                "two_minus_c": 2.0 + max_k, "skipped": skipped},
        thresholds={"min_grad_sq": GRADIENT_MIN_SQ, "max_grad_sq": GRADIENT_MAX_SQ},
        passed=bool(passed),
        samples=len(vals),
        seed=seed,
    )


def _edge_graph(state: SurfaceState) -> sp.csr_matrix:
    """Shortest-path graph: mesh edges plus the balanced-star chords. The
    raw polar mesh offers few edge directions (skinny triangles), which
    overestimates the induced distance by up to ~30%; the star chords
    restore directional coverage.

    The graph is built once per state, like its geometry, and shared by
    the audit and the plot export, so none may write to it."""
    return state.derived("edge_graph", _build_edge_graph)


def _build_edge_graph(state: SurfaceState) -> sp.csr_matrix:
    X = state.positions
    mesh = state.mesh
    faces = mesh.faces
    nv = mesh.vertex_count
    table = mesh.stencil
    src = np.broadcast_to(np.arange(nv)[:, None], table.star.shape)
    # steep and shallow chords to cover directions between the star's:
    # 2, 3, 4 radial steps per sector step and 2, 3, 4 star widths sigma per
    # radial step, from every vertex of the rings 1 .. rings - 1
    m, s = mesh.rings, mesh.sectors
    ring = np.arange(1, m)[:, None]
    k = np.array([2, 3, 4])
    wide = np.clip(np.round(s / (2.0 * np.pi * ring)), 1, s // 4).astype(np.int64) * k
    di = np.concatenate([k, k, np.ones(6, dtype=np.int64)])
    dj = np.hstack([np.broadcast_to([1, 1, 1, -1, -1, -1], (m - 1, 6)), wide, -wide])
    js = np.arange(s)
    fan_rows = np.broadcast_to(1 + (ring[..., None] - 1) * s + js, dj.shape + (s,))
    fan_cols = 1 + (ring + di - 1)[..., None] * s + (js + dj[..., None]) % s
    on_mesh = ring + di <= m
    rows = np.concatenate([faces.ravel(), src[table.mask], fan_rows[on_mesh].ravel()])
    cols = np.concatenate([np.roll(faces, -1, axis=1).ravel(), table.star[table.mask],
                           fan_cols[on_mesh].ravel()])
    # each edge once, as its sorted key lo * nv + hi; its length is
    # symmetric in the two ends to the bit, so no duplicate is shorter
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    keys = np.sort((lo * nv + hi)[lo != hi])
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    ei, ej = keys // nv, keys % nv
    edge_len = np.arccosh(np.maximum(np.abs(state.form.inner_rows(np.take(X, ei, axis=0),
                                                                  np.take(X, ej, axis=0))), 1.0))
    G = sp.csr_matrix((np.concatenate([edge_len, edge_len]),
                       (np.concatenate([ei, ej]), np.concatenate([ej, ei]))), shape=(nv, nv))
    for arr in (G.data, G.indices, G.indptr):
        arr.flags.writeable = False
    return G


def _distance_pairs(state: SurfaceState, rng: np.random.Generator, sources: int,
                    per_source: int) -> np.ndarray:
    """(graph distance, spatial distance) rows over interior vertex pairs:
    `sources` sources drawn without replacement, then `per_source` targets
    for each. A target equal to its source, or under 0.3 from it in the
    graph, is skipped."""
    X = state.positions
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    drawn = rng.choice(inter, size=sources, replace=False)
    # the edge graph holds both directions of every edge with equal lengths,
    # so the directed search gives the undirected distances
    dist = dijkstra(_edge_graph(state), directed=True, indices=drawn)
    targets = np.array([rng.choice(inter, size=per_source, replace=False) for _ in drawn])
    row = np.repeat(np.arange(sources), per_source)
    src, tgt = drawn[row], targets.ravel()
    d_graph = dist[row, tgt]
    keep = (tgt != src) & np.isfinite(d_graph) & (d_graph >= 0.3)
    return np.column_stack([d_graph[keep],
                            spatial_distance(state.form, X[src[keep]], X[tgt[keep]])])


def distance_ratio_audit(state: SurfaceState, seed: int = 0,
                         mesh_slack: float | None = None) -> AuditReport:
    """Spatial distance over graph distance on 24 x 12 random vertex pairs:
    pinched between 1 and sqrt(2) up to the graph-metric overestimation
    allowance (0.1 from 24 rings up, growing on coarser meshes)."""
    _require_converged(state)
    if mesh_slack is None:
        mesh_slack = 0.1 * max(1.0, (24.0 / state.mesh.rings) ** 1.5)
    d_graph, eth = _distance_pairs(state, np.random.default_rng(seed), 24, 12).T
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


def gromov_audit(state: SurfaceState, seed: int = 0) -> AuditReport:
    """Gromov-product control: the normalised pairing |<z,w>/(<z,x><x,w>)|
    stays bounded, and the triangle slack of the spatial distance obeys the
    log(2 M1) bound triple by triple."""
    _require_converged(state)
    rng = np.random.default_rng(seed)
    form = state.form
    X = state.positions
    inter = np.flatnonzero(state.mesh.interior_mask(AUDIT_EXCLUDE_RINGS))
    bd = _boundary_points(state, 16, rng)
    # x is a vertex; z and w are two vertices or two boundary points, and
    # index the rows of `points`
    points = np.vstack([X, bd])
    draws = []
    for _ in range(400):
        x = rng.choice(inter)
        if rng.integers(0, 2) == 0:
            draws.append((x, rng.choice(inter), rng.choice(inter)))
        else:
            draws.append((x, len(X) + rng.integers(0, len(bd)), len(X) + rng.integers(0, len(bd))))
    xi, zi, wi = np.array(draws).T
    x, z, w = X[xi], points[zi], points[wi]
    den = form.inner_rows(z, x) * form.inner_rows(x, w)
    usable = np.abs(den) >= 1e-12
    ratio = np.abs(form.inner_rows(z, w)[usable] / den[usable])
    max_m1 = float(np.max(ratio, initial=0.0))
    # the triangle slack is measured on the triples of vertices
    inside = zi[usable] < len(X)
    x, z, w = (a[usable][inside] for a in (x, z, w))
    slack = (spatial_distance(form, z, w) - spatial_distance(form, z, x)
             - spatial_distance(form, x, w))
    max_slack = float(np.max(slack, initial=-np.inf))
    ok = not np.any(slack > np.log(2.0 * np.maximum(ratio[inside], 1e-300)) + 1e-6)
    passed = ok and np.isfinite(max_m1) and max_slack <= np.log(2.0 * max_m1) + 1e-6
    return AuditReport(
        name="gromov",
        values={"M1": max_m1, "max_slack": max_slack,
                "slack_bound": float(np.log(2.0 * max_m1))},
        thresholds={"slack_bound": float(np.log(2.0 * max_m1))},
        passed=bool(passed),
        samples=len(draws),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Conformal flattening and boundary extension


# The corners at the ends of side k of a face, which is opposite corner k.
FACE_SIDES = ([1, 2], [0, 2], [0, 1])

# Residual evaluations the flattening's Newton solve may spend, rejected
# trial steps included; it converges in a handful.
GAUSS_NEWTON_TRIALS = 40

# The largest angle defect at which the flattening's Newton solve stops. It
# sits below LAYOUT_TOL: the ring placement carries the defects out to the
# rim, and at 1e-10 they made it miss rim sides by up to 6e-9 at n = 2.
GAUSS_NEWTON_TOL = 1e-12

# The largest gap between a side of the developed layout and its flattened
# length.
LAYOUT_TOL = 1e-10


def _gauss_newton(residual, x: np.ndarray) -> np.ndarray:
    """Damped Newton, until max |r| < GAUSS_NEWTON_TOL: the step J^-1 r is
    factored once at each accepted x, and a trial that does not lower the
    squared residual halves its length on that factor.

    `residual(x)` returns the residual vector and its sparse square
    Jacobian, or raises FlatteningError at an inadmissible x, which rejects
    the trial step like a residual increase does. J is the flattening's
    Hessian, so it is symmetric, and `plateau._factor` factors it."""
    r, J = residual(x)
    step = None
    for _ in range(GAUSS_NEWTON_TRIALS):
        if np.max(np.abs(r)) < GAUSS_NEWTON_TOL:
            return x
        if step is None:
            # the factor is not kept: held into the next step, two would be alive at once
            step, t = _factor(J).solve(r), 1.0
        try:
            r_t, J_t = residual(x - t * step)
        except FlatteningError:
            r_t = None
        if r_t is not None and r_t @ r_t < r @ r:
            x, r, J, step = x - t * step, r_t, J_t, None
        else:
            t *= 0.5
    raise FlatteningError(f"Gauss-Newton solve stalled at max residual {np.max(np.abs(r)):.2e}")


def _face_angles(ls: np.ndarray) -> np.ndarray:
    """The corner angles of hyperbolic triangles with sides `ls` (3, faces),
    side k opposite corner k, from the half-angle formula
    tan^2(A_k/2) = sinh(s-l_a) sinh(s-l_b) / (sinh s sinh(s-l_k)), s the half
    perimeter, which keeps its precision on the short sides near the center
    where the law of cosines cancels."""
    s = 0.5 * ls.sum(axis=0)
    sh_gap = np.sinh(s - ls)
    return 2.0 * np.arctan2(np.sqrt(np.roll(sh_gap, 1, axis=0) * np.roll(sh_gap, 2, axis=0)),
                            np.sqrt(np.sinh(s) * sh_gap))


def yamabe_flatten(state: SurfaceState):
    """Per-vertex log conformal factors making the mesh a cone-free
    hyperbolic surface (interior angle sums 2 pi; boundary factors fixed),
    by Newton on the interior angle defects, to within GAUSS_NEWTON_TOL.

    Lengths scale by sinh(l'/2) = e^{(u_i+u_j)/2} sinh(l/2), so
    dl'/du_i = tanh(l'/2). The angle A_k opposite side l_k comes from
    `_face_angles` and varies as
    dA_k = sinh l_k / (sinh l_a sinh l_b sin A_k) (dl_k - cos A_b dl_a - cos A_a dl_b).
    The Jacobian is the Hessian of the convex functional of Bobenko,
    Pinkall and Springborn (Geom. Topol. 19, 2015), so it is square and
    symmetric. Returns the factors and the side lengths per face, side k
    opposite corner k.
    """
    form = state.form
    X = state.positions
    faces = state.mesh.faces
    nv = state.mesh.vertex_count
    # the rim is the last ring, so the free interior factors come first
    ni = nv - state.mesh.sectors
    ends = [faces[:, side] for side in FACE_SIDES]
    pairs = [np.abs(form.inner_rows(np.take(X, e[:, 0], axis=0), np.take(X, e[:, 1], axis=0)))
             for e in ends]
    half0 = [np.sinh(0.5 * np.arccosh(np.maximum(pair, 1.0))) for pair in pairs]

    def lengths_of(ui):
        u = np.concatenate([ui, np.zeros(nv - ni)])
        l0, l1, l2 = ls = [2.0 * np.arcsinh(h * np.exp(0.5 * (u[e[:, 0]] + u[e[:, 1]])))
                           for h, e in zip(half0, ends)]
        if np.any((l0 + l1 <= l2) | (l0 + l2 <= l1) | (l1 + l2 <= l0)):
            raise FlatteningError("conformal factors broke a triangle inequality")
        return ls

    # the Jacobian's pattern is fixed by the mesh: the entries (corner k, each end of each side)
    # of every face, ordered (k, side, end, face), on interior rows and columns, and their CSR slots
    sides = np.array(FACE_SIDES)[(np.arange(3)[:, None] + np.arange(3)) % 3]
    rows, cols = faces.T[np.repeat(np.arange(3), 6)].ravel(), faces.T[sides.ravel()].ravel()
    keep = (rows < ni) & (cols < ni)
    keys, slot = np.unique(rows[keep] * ni + cols[keep], return_inverse=True)
    pattern = (keys % ni, np.searchsorted(keys, ni * np.arange(ni + 1)))

    def residual(ui):
        ls = np.asarray(lengths_of(ui))
        sh = np.sinh(ls)
        angles = _face_angles(ls)
        cos = np.cos(angles)
        sums = np.bincount(faces.T.ravel(), weights=angles.ravel(), minlength=nv)
        dl_du = np.tanh(0.5 * ls)
        # -dA_k/du through side k, then the sides a = k + 1 and b = k + 2 (mod 3)
        g = sh / (np.roll(sh, -1, axis=0) * np.roll(sh, -2, axis=0) * np.sin(angles))
        jac = np.stack([-g * dl_du, g * np.roll(cos, -2, axis=0) * np.roll(dl_du, -1, axis=0),
                        g * np.roll(cos, -1, axis=0) * np.roll(dl_du, -2, axis=0)], axis=1)
        data = np.bincount(slot, np.repeat(jac, 2, axis=1).ravel()[keep], minlength=keys.size)
        return 2.0 * np.pi - sums[:ni], sp.csr_matrix((data, *pattern), shape=(ni, ni))

    ui = _gauss_newton(residual, np.zeros(ni))
    return np.concatenate([ui, np.zeros(nv - ni)]), tuple(lengths_of(ui))


def _place_rings(state: SurfaceState, lengths) -> np.ndarray:
    """Lay the flattened mesh out on the hyperboloid x^2 + y^2 - z^2 = -1
    ring by ring from its side lengths and `_face_angles`, as in Springborn,
    Schroeder and Pinkall (SIGGRAPH 2008). Returns the (x, y) rows.

    Vertex 0 sits at the origin and ring 1 round it at the cumulative fan
    angles, v(1, 0) on the +x axis. Every later vertex v(i, j) is shot from
    v(i-1, j) along their edge, in the direction towards v(i-2, j) turned by
    the three face angles at v(i-1, j) on the side of sector j+1. Each new
    ring is put back on the hyperboloid, which keeps the rounding from
    growing ring over ring. The turns go the way that gives the first fan
    face the orientation of the surface's H^2 projection (X_0, X_1, |X_{2:}|),
    the graph coordinate of `build_state`."""
    mesh = state.mesh
    m, s = mesh.rings, mesh.sectors
    ls = np.asarray(lengths)
    angles = _face_angles(ls)
    fan, quads = angles[:, :s], angles[:, s:].reshape(3, m - 1, s, 2)
    # the side v(i-1, j)-v(i, j) is side 2 of the fan face and of the first quad face
    radial = np.vstack([ls[2, :s], ls[2, s:].reshape(m - 1, s, 2)[:, :, 0]])
    X = state.positions
    corners = [0, mesh.vertex(1, 0), mesh.vertex(1, 1)]
    graph = np.column_stack([X[corners, :2], np.linalg.norm(X[corners, 2:], axis=1)])
    sense = 1.0 if np.linalg.det(graph) > 0 else -1.0

    p = np.zeros((mesh.vertex_count, 3))
    p[0, 2] = 1.0
    ring = p[1:].reshape(m, s, 3)  # ring[i - 1] is a view of the rows of v(i, .)
    phi = sense * np.concatenate([[0.0], np.cumsum(fan[0, :-1])])
    ring[0] = np.column_stack([np.sinh(radial[0]) * np.cos(phi),
                               np.sinh(radial[0]) * np.sin(phi), np.cosh(radial[0])])
    minkowski = np.array([1.0, 1.0, -1.0])
    for i in range(2, m + 1):
        at = ring[i - 2]
        back, inner = (p[:1], fan[1]) if i == 2 else (ring[i - 3], quads[1, i - 3, :, 0])
        turn = -sense * (inner + quads[0, i - 2, :, 1] + quads[0, i - 2, :, 0])
        # the unit tangent at `at` towards `back`, and its quarter turn
        t = back + (at * back * minkowski).sum(axis=1)[:, None] * at
        t /= np.sqrt((t * t * minkowski).sum(axis=1))[:, None]
        n = np.cross(at, t) * minkowski
        d = np.cos(turn)[:, None] * t + np.sin(turn)[:, None] * n
        new = np.cosh(radial[i - 1])[:, None] * at + np.sinh(radial[i - 1])[:, None] * d
        new[:, 2] = np.sqrt(1.0 + new[:, 0] ** 2 + new[:, 1] ** 2)
        ring[i - 1] = new
    return p[:, :2]


def _develop_h2(state: SurfaceState, lengths) -> np.ndarray:
    """Lay the flattened mesh out on the hyperboloid x^2 + y^2 - z^2 = -1
    with `_place_rings`, and check the layout: FlatteningError unless every
    face side is within LAYOUT_TOL of its flattened length. Returns the
    (x, y) rows."""
    xy = _place_rings(state, lengths)
    p = np.column_stack([xy, np.sqrt(1.0 + np.sum(xy * xy, axis=1))])
    ends = state.mesh.faces[:, FACE_SIDES]
    pa, pb = p[ends[..., 0]], p[ends[..., 1]]
    pair = pa[..., 2] * pb[..., 2] - pa[..., 0] * pb[..., 0] - pa[..., 1] * pb[..., 1]
    # one array max, tested with `not <=`, so that a NaN side fails the check
    err = np.max(np.abs(np.arccosh(np.maximum(pair, 1.0)) - np.transpose(lengths)))
    if not err <= LAYOUT_TOL:
        raise FlatteningError(f"the ring layout misses a flattened side length by {err:.2e}")
    return xy


def boundary_extension(state: SurfaceState, seed: int = 0):
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
    bmap = SampledBoundaryMap(thetas_disk, state.loop.boundary_points(thetas_loop))
    cert = qs_certify(state.form, bmap, A=2.0, n_quadruples=1500, rng_seed=seed)
    return bmap, cert


# ---------------------------------------------------------------------------
# Loop-level probes


def _pair_ratios(loop: LipschitzLoop) -> np.ndarray:
    """Fiber/circle distance ratio of every sample pair i < j, in the order of
    `_pair_distances`, with 0 where the circle distance is below 1e-4 (noise)."""
    circle, fiber = _pair_distances(loop)
    keep = circle >= 1e-4
    return np.where(keep, fiber / np.where(keep, circle, 1.0), 0.0)


def quasiperiodicity_probe(loop: LipschitzLoop, triples: int = 50, seed: int = 0) -> dict:
    """Renormalise the loop over sampled positive triples -- half spread at
    random, half concentrating on shrinking arcs -- and report the minimum
    contraction margin, 1 minus the largest pair ratio; a margin bounded
    away from zero is the numeric proxy for quasiperiodicity.

    The candidates are drawn in rounds, each as many as the margins still
    missing (within the budget of 30 * triples draws), so a round never
    overshoots `triples` and the margins are those of drawing one candidate
    at a time. Each round standardises its triples in one
    `standardize_triples` call and renormalises the loop by all of them in
    one stacked product; the pair scan then runs per renormalised loop."""
    if loop_classify(loop) != "positive":
        raise GeometryError("quasiperiodicity probe requires a positive loop")
    form = BilinearForm(loop.n)
    rng = np.random.default_rng(seed)
    k = loop.size
    margins = []
    reps = np.column_stack([np.cos(loop.thetas), np.sin(loop.thetas), loop.fibers])
    # concentrating triples probe the renormalisation dynamics; aim half of
    # them at the least-contracting spot of the graph, the first worst pair
    # in pair order
    ratios = _pair_ratios(loop)
    top = int(np.argmax(ratios))
    i, j = np.triu_indices(k, 1)
    worst_center = 0.5 * (loop.thetas[i[top]] + loop.thetas[j[top]]) if ratios[top] > 0.0 else 0.0
    tried = 0
    while len(margins) < triples and tried < 30 * triples:
        sels = []
        for _ in range(min(triples - len(margins), 30 * triples - tried)):
            tried += 1
            mode = tried % 4
            if mode in (0, 1):
                sels.append(np.sort(rng.choice(k, size=3, replace=False)))
                continue
            center = rng.uniform(0.0, 2.0 * np.pi) if mode == 2 else \
                worst_center + rng.normal(scale=0.05)
            delta = np.pi * 10.0 ** rng.uniform(-1.7, -0.2)
            angles = (center + np.array([-delta, 0.0, delta])) % (2.0 * np.pi)
            # the nearest sample to each angle
            offsets = (loop.thetas - angles[:, None] + np.pi) % (2 * np.pi) - np.pi
            sel = np.unique(np.argmin(np.abs(offsets), axis=1))
            if len(sel) == 3:
                sels.append(sel)
        G, ok = standardize_triples(reps[np.array(sels, dtype=np.intp).reshape(-1, 3)], form)
        moved = reps @ G[ok].transpose(0, 2, 1)
        nu = np.linalg.norm(moved[..., :2], axis=-1)
        nv = np.linalg.norm(moved[..., 2:], axis=-1)
        thetas = np.arctan2(moved[..., 1] / nu, moved[..., 0] / nu) % (2.0 * np.pi)
        fibers = moved[..., 2:] / nv[..., None]
        for th, fib in zip(thetas, fibers):
            try:
                renorm = LipschitzLoop(th, fib)
            except GeometryError:
                continue
            margins.append(1.0 - float(np.max(_pair_ratios(renorm))))
    if not margins:
        raise GeometryError("no positive triple produced a renormalisable graph")
    return {
        "min_margin": float(np.min(margins)),
        "median_margin": float(np.median(margins)),
        "base_margin": 1.0 - float(ratios[top]),
        "renormalizations": len(margins),
        "seed": int(seed),
    }


def _distance_to_crown(crown: BarbotCrown, pts: np.ndarray) -> float:
    """Sup over the sample points of the exact auxiliary distance to the
    crown, each edge minimised over its arc parameter in closed form.

    An edge is the photon vec(t) = cos t z_i + sin t z_j, t in [0, pi/2],
    so |u(t)| = |v(t)| and its normalised point e(t) = vec(t) / |u(t)|
    gives |e(t) -+ p|^2 = 4 -+ 2 (c.w) / sqrt(c^T M c), with c = (cos t,
    sin t), w = (z_i.p, z_j.p) and M the Gram matrix of u_i, u_j. That
    ratio is stationary only at c ~ +-M^-1 w, so the minimum over the edge
    is at an end or at one of those two angles. The distance is evaluated
    directly at each candidate: the form 4 -+ 2 (...) loses half the digits
    near the crown."""
    z = crown.zreps
    zi, zj = z, np.roll(z, -1, axis=0)
    ui, uj = zi[:, :2], zj[:, :2]
    alpha, beta, gamma = np.sum(ui * ui, axis=1), np.sum(ui * uj, axis=1), np.sum(uj * uj, axis=1)
    wi, wj = pts @ zi.T, pts @ zj.T
    # the adjugate of M applied to +-w, as two angles in (-pi, pi]: no
    # shift by pi or 2 pi, which would round a small angle absolutely
    y, x = alpha * wj - beta * wi, gamma * wi - beta * wj
    end = np.zeros_like(y)
    cand = np.stack([end, end + np.pi / 2.0, np.arctan2(y, x), np.arctan2(-y, -x)], axis=-1)
    # t has shape (points, 4, 4); a stationary angle off the edge is
    # replaced by its end t = 0, and the edge points broadcast against p
    t = np.where((cand >= 0.0) & (cand <= np.pi / 2.0), cand, 0.0)
    vec = np.cos(t)[..., None] * zi[:, None, :] + np.sin(t)[..., None] * zj[:, None, :]
    nu = np.linalg.norm(vec[..., :2], axis=-1, keepdims=True)
    nv = np.linalg.norm(vec[..., 2:], axis=-1, keepdims=True)
    e = np.concatenate([vec[..., :2] / nu, vec[..., 2:] / nv], axis=-1)
    p = pts[:, None, None, :]
    d = np.minimum(np.linalg.norm(e - p, axis=-1), np.linalg.norm(e + p, axis=-1))
    return float(max(0.0, np.max(np.min(d, axis=(1, 2)))))


def barbot_degeneration(loop: LipschitzLoop, crown: BarbotCrown, iters: int = 60) -> dict:
    """Iterate the crown's contracting diagonal element on the loop samples
    and report, per iteration, how far the samples sit from the crown (the
    crown is the limit set; sample coverage of it is resolution-limited, so
    the distance is directed).

    The dynamics runs in the crown's eigenbasis, where the group element is
    exactly diagonal; coefficients at pure-rounding level (1e-13 relative)
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
    pts = graph_points(loop.thetas, loop.fibers)
    coeffs = pts @ Binv.T
    history = []
    for _ in range(iters + 1):
        history.append(_distance_to_crown(crown, pts))
        coeffs = coeffs * eig
        scale = np.max(np.abs(coeffs), axis=1)
        coeffs = np.where(np.abs(coeffs) < 1e-13 * scale[:, None], 0.0, coeffs)
        pts = boundary_points(form, coeffs @ B.T)
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


def asymptotic_hyperbolicity_audit(state: SurfaceState) -> AuditReport:
    """Ring profile of the curvature: the outermost audited ring must sit
    near -1 and |K+1| must not grow outward over the outer half."""
    _require_converged(state)
    means = _ring_mean_K(state, discrete_geometry(state))
    outer_val = float(means[-1])
    outer_ok = abs(outer_val + 1.0) <= OUTER_RING_TOL
    gap = np.abs(means[state.mesh.rings // 2:] + 1.0)
    mono_ok = not np.any(gap[1:] > gap[:-1] + RING_PROFILE_NOISE)
    passed = outer_ok and mono_ok
    return AuditReport(
        name="asymptotic_hyperbolicity",
        values={"outer_ring_mean_K": outer_val,
                "ring_means": {str(i): float(v) for i, v in enumerate(means)},
                "monotone": mono_ok,
                "c1_loop": bool(state.loop.c1) if state.loop is not None else False},
        thresholds={"outer_ring_mean_K": -1.0, "outer_tol": OUTER_RING_TOL,
                    "noise": RING_PROFILE_NOISE},
        passed=bool(passed),
        samples=len(means),
    )


def hessian_audit(state: SurfaceState, z, samples: int = 200, seed: int = 0) -> AuditReport:
    """Second differences of a horofunction along near-geodesic vertex
    triples against phi_z (g - dh dh + beta) with beta from the fitted
    second fundamental form."""
    _require_converged(state)
    form = state.form
    rng = np.random.default_rng(seed)
    h = horofunction(form, z)
    geo = discrete_geometry(state)
    mesh = state.mesh
    ring = mesh.stencil.ring
    inter = np.flatnonzero(mesh.interior_mask(AUDIT_EXCLUDE_RINGS) & (ring >= 1))
    X = state.positions
    drawn = rng.choice(inter, size=min(samples, len(inter)), replace=False)
    # the radial neighbours one ring out and one ring in (the center for ring 1)
    vp = drawn + mesh.sectors
    vm = np.where(ring[drawn] > 1, drawn - mesh.sectors, 0)
    pairs3 = np.abs(form.inner_rows(X[np.stack([drawn, vp, vm])], h.z0))
    usable = np.min(pairs3, axis=0) >= 1e-8
    v, vp, vm, pairs3 = drawn[usable], vp[usable], vm[usable], pairs3[:, usable]
    x = X[v]
    # second difference along the radial near-geodesic triple
    lp, lm = np.arccosh(np.maximum(np.abs(form.inner_rows(X[np.stack([vp, vm])], x)), 1.0))
    hv, hp, hm = np.log(pairs3)
    second = 2.0 * ((hp - hv) / lp + (hm - hv) / lm) / (lp + lm)
    # unit direction c of the segment in the tangent frame
    d = X[vp] - X[vm]
    d = d + form.inner_rows(d, x)[:, None] * x
    frames = np.stack(geo.frames, axis=1)[v]
    c = form.inner_rows(d[:, None], frames)
    nrm = np.hypot(c[:, 0], c[:, 1])
    usable = nrm >= 1e-12
    c = c[usable] / nrm[usable, None]
    x, frames, second = x[usable], frames[usable], second[usable]
    x_z0 = form.inner_rows(x, h.z0)
    dh = form.inner_rows(np.einsum("ni,nid->nd", c, frames), h.z0) / x_z0
    ii_dir = np.einsum("ni,nj,nijd->nd", c, c, geo.ii_frame[v[usable]])
    beta = form.inner_rows(ii_dir, h.z0) / x_z0
    rhs = 1.0 - dh * dh + beta
    # the three terms are O(1) individually but may cancel exactly, so
    # errors are measured against the metric scale g(u, u) = 1
    errors = np.abs(second - rhs) / np.maximum(np.abs(rhs), 1.0)
    if errors.size == 0:
        raise GeometryError("no usable geodesic segments for the Hessian audit")
    med = float(np.median(errors))
    return AuditReport(
        name="hessian",
        values={"median_rel_error": med, "skipped": len(drawn) - errors.size},
        thresholds={"median_rel_error": HESSIAN_MAX_MEDIAN_ERROR},
        passed=bool(med <= HESSIAN_MAX_MEDIAN_ERROR),
        samples=int(errors.size),
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
        lambda state, seed: hessian_audit(state, state.loop.boundary_points(0.0), seed=seed),
        needs_loop=True),
    "boundary_extension": RegisteredAudit(
        lambda state, seed: boundary_extension_audit(state, seed),
        needs_loop=True, artifact="qs_certificate.json"),
}
