"""Per-sample references for the sampled audits of `diagnostics`.

They evaluate one (vertex, boundary point) pair, one vertex pair, one
triple or one radial segment at a time, with scalar calls into `hspace`,
the way the gradient, distance-ratio, Gromov and Hessian audits were
computed before they were evaluated on arrays. They draw from the
generator in the same order as the audits, so tests can compare the two
sample by sample.
"""

import numpy as np
from scipy.sparse.csgraph import dijkstra

from pseudoplateau import diagnostics as diag
from pseudoplateau.hspace import HPoint, gradient_norm_sq, horofunction, spatial_distance
from pseudoplateau.plateau import discrete_geometry

from boundary_reference import boundary_point_reference, loop_point_reference


def _interior(state):
    return np.flatnonzero(state.mesh.interior_mask(diag.AUDIT_EXCLUDE_RINGS))


def boundary_points_reference(state, count, rng):
    """The ideal boundary samples as a list of boundary points, from the
    scalar references of `boundary_reference`."""
    if state.loop is not None:
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return [loop_point_reference(state.loop, t) for t in thetas]
    mesh = state.mesh
    base = mesh.vertex(mesh.rings, 0)
    idx = rng.integers(0, mesh.sectors, size=count)
    X = state.positions[base + idx]
    classes = np.hstack([X[:, :2] / np.linalg.norm(X[:, :2], axis=1)[:, None],
                         X[:, 2:] / np.linalg.norm(X[:, 2:], axis=1)[:, None]])
    return [boundary_point_reference(state.form, x) for x in classes]


def gradient_samples_reference(state, geo, rng, points, per_point):
    form = state.form
    e1, e2 = geo.frames
    inter = _interior(state)
    vals = []
    skipped = 0
    for z in boundary_points_reference(state, points, rng):
        h = horofunction(form, z)
        for v in rng.choice(inter, size=min(per_point, len(inter)), replace=False):
            x = HPoint(state.positions[v])
            if abs(form.inner(x.rep, h.z0)) < 1e-10:
                skipped += 1
                continue
            vals.append(gradient_norm_sq(form, h, x, np.vstack([e1[v], e2[v]])))
    return np.array(vals), skipped


def gradient_reference(state, seed):
    geo = discrete_geometry(state)
    vals, skipped = gradient_samples_reference(state, geo, np.random.default_rng(seed), 24, 25)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    max_k = float(np.nanmax(geo.K[state.mesh.interior_mask(diag.AUDIT_EXCLUDE_RINGS)]))
    return {
        "values": {"min_grad_sq": vmin, "max_grad_sq": vmax,
                   "two_minus_c": 2.0 + max_k, "skipped": skipped},
        "passed": vmin >= diag.GRADIENT_MIN_SQ and vmax <= diag.GRADIENT_MAX_SQ,
        "samples": len(vals),
    }


def distance_pairs_reference(state, rng, sources, per_source):
    form = state.form
    X = state.positions
    inter = _interior(state)
    drawn = rng.choice(inter, size=sources, replace=False)
    dist = dijkstra(diag._edge_graph(state), directed=False, indices=drawn)
    rows = []
    for row, src in enumerate(drawn):
        for t in rng.choice(inter, size=per_source, replace=False):
            d_graph = dist[row, t]
            if t == src or not np.isfinite(d_graph) or d_graph < 0.3:
                continue
            rows.append((d_graph, spatial_distance(form, HPoint(X[src]), HPoint(X[t]))))
    return np.array(rows).reshape(-1, 2)


def distance_ratio_reference(state, seed):
    mesh_slack = 0.1 * max(1.0, (24.0 / state.mesh.rings) ** 1.5)
    d_graph, eth = distance_pairs_reference(state, np.random.default_rng(seed), 24, 12).T
    ratios = eth / d_graph
    rmin, rmax = float(np.min(ratios)), float(np.max(ratios))
    return {
        "values": {"min_ratio": rmin, "max_ratio": rmax},
        "passed": rmax <= np.sqrt(2.0) * (1.0 + mesh_slack) and rmin >= 1.0 / (1.0 + mesh_slack),
        "samples": len(ratios),
    }


def gromov_reference(state, seed):
    rng = np.random.default_rng(seed)
    form = state.form
    inter = _interior(state)
    bd = boundary_points_reference(state, 16, rng)
    max_m1 = 0.0
    max_slack = -np.inf
    ok = True
    for _ in range(400):
        x = HPoint(state.positions[rng.choice(inter)])
        pick = rng.integers(0, 2)
        if pick == 0:
            z = state.positions[rng.choice(inter)]
            w = state.positions[rng.choice(inter)]
        else:
            z = bd[rng.integers(0, len(bd))]
            w = bd[rng.integers(0, len(bd))]
        num = form.inner(z, w)
        den = form.inner(z, x.rep) * form.inner(x.rep, w)
        if abs(den) < 1e-12:
            continue
        ratio = abs(num / den)
        max_m1 = max(max_m1, ratio)
        if pick == 0:
            zp, wp = HPoint(z), HPoint(w)
            slack = (spatial_distance(form, zp, wp) - spatial_distance(form, zp, x)
                     - spatial_distance(form, x, wp))
            max_slack = max(max_slack, slack)
            if slack > np.log(2.0 * max(ratio, 1e-300)) + 1e-6:
                ok = False
    return {
        "values": {"M1": max_m1, "max_slack": float(max_slack),
                   "slack_bound": float(np.log(2.0 * max_m1))},
        "passed": ok and np.isfinite(max_m1) and max_slack <= np.log(2.0 * max_m1) + 1e-6,
        "samples": 400,
    }


def hessian_reference(state, z, samples, seed):
    form = state.form
    rng = np.random.default_rng(seed)
    h = horofunction(form, z)
    geo = discrete_geometry(state)
    e1, e2 = geo.frames
    mesh = state.mesh
    ring, sec = mesh.stencil.ring, mesh.stencil.sector
    inter = np.flatnonzero(mesh.interior_mask(diag.AUDIT_EXCLUDE_RINGS) & (ring >= 1))
    X = state.positions
    errors = []
    skipped = 0
    for v in rng.choice(inter, size=min(samples, len(inter)), replace=False):
        i, j = int(ring[v]), int(sec[v])
        vp = mesh.vertex(i + 1, j)
        vm = mesh.vertex(i - 1, j) if i > 1 else 0
        x = X[v]
        pairs3 = [abs(form.inner(x, h.z0)), abs(form.inner(X[vp], h.z0)),
                  abs(form.inner(X[vm], h.z0))]
        if min(pairs3) < 1e-8:
            skipped += 1
            continue
        lp = np.arccosh(max(abs(form.inner(X[vp], x)), 1.0))
        lm = np.arccosh(max(abs(form.inner(X[vm], x)), 1.0))
        hv, hp, hm = np.log(pairs3)
        second = 2.0 * ((hp - hv) / lp + (hm - hv) / lm) / (lp + lm)
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
        errors.append(abs(second - rhs) / max(abs(rhs), 1.0))
    med = float(np.median(errors))
    return {
        "values": {"median_rel_error": med, "skipped": skipped},
        "passed": med <= diag.HESSIAN_MAX_MEDIAN_ERROR,
        "samples": len(errors),
    }
