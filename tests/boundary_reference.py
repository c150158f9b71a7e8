"""Scalar references for the batched boundary kernels.

They work one quadruple, one point or one pair at a time, the way
`crossratio.qs_certify`, `crossratio.circle_map_test`, the loop pair scans,
`einstein.photon_arc` and the boundary points of loops and of the standard
circle were computed before they were batched.
`quadruple_positive` is the scalar positivity certificate of one
quadruple, built on the triple classification `triple_class`; the
program checks positivity once for the whole map instead, and is tested
against it on every 4-subset of small maps.
`quasiperiodicity_probe_reference` and `loop_classify_reference` are the
loop scans as they were before the pair kernel: full k x k matrices, one
nearest-sample search per angle.
`distance_to_crown_reference` minimises over each crown edge by a
golden-section search, one point and one edge at a time; the program
takes the closed-form minimiser of `diagnostics._distance_to_crown`
instead, so the two share only the evaluation of an edge point. Tests
compare the batched kernels against them. Boundary points are
representative rows, as in `einstein`.
"""

import numpy as np

from pseudoplateau import crossratio as cr
from pseudoplateau import einstein as ein
from pseudoplateau.qcore import (BilinearForm, DegenerateTripleError, GeometryError,
                                 standardize_triple, subspace_signature)


def sign_rule_reference(rep):
    """Negate a representative whose first nonzero coordinate of u is negative."""
    lead = rep[0] if rep[0] != 0.0 else rep[1]
    return -rep if lead < 0 else rep


def boundary_point_reference(form, raw):
    """One isotropic vector normalised in product coordinates, with the sign
    rule; rejects vectors too far from the null cone."""
    x = np.asarray(raw, dtype=float)
    if x.shape[0] != form.dim:
        raise ein.GeometryError(f"expected length {form.dim}, got {x.shape[0]}")
    nu = np.linalg.norm(x[:2])
    nv = np.linalg.norm(x[2:])
    if nu == 0.0 or nv == 0.0:
        raise ein.GeometryError("vector is not isotropic (a product factor vanishes)")
    if abs(nu - nv) > ein.ISOTROPY_RTOL * max(nu, nv):
        raise ein.GeometryError(f"vector is not isotropic: |u| = {nu:.3e}, |v| = {nv:.3e}")
    return sign_rule_reference(np.concatenate([x[:2] / nu, x[2:] / nv]))


def graph_point_reference(theta, fiber):
    """The boundary point of one loop-graph sample, keeping the graph lift."""
    return sign_rule_reference(np.concatenate([[np.cos(theta), np.sin(theta)], fiber]))


def circle_point_reference(form, theta):
    """The standard circle's point at theta: cos t e1 + sin t e2 + e3, with
    both factors divided by |u|."""
    basis = np.eye(form.dim)[:3]
    rep = np.cos(theta) * basis[0] + np.sin(theta) * basis[1] + basis[2]
    nu = np.linalg.norm(rep[:2])
    return sign_rule_reference(np.concatenate([rep[:2] / nu, rep[2:] / nu]))


def sphere_dist_reference(f, g):
    """Great-circle distance between two unit fibers."""
    return float(np.arccos(np.clip(np.dot(f, g), -1.0, 1.0)))


def slerp_reference(f, g, t):
    ang = sphere_dist_reference(f, g)
    if ang < 1e-12:
        out = (1.0 - t) * f + t * g
        return out / np.linalg.norm(out)
    return (np.sin((1.0 - t) * ang) * f + np.sin(t * ang) * g) / np.sin(ang)


def fiber_at_reference(loop, theta):
    """Geodesic interpolation of the fiber between bracketing samples, one
    angle at a time."""
    theta = theta % (2.0 * np.pi)
    k = loop.size
    idx = int(np.searchsorted(loop.thetas, theta))
    i = (idx - 1) % k
    j = idx % k
    ti, tj = loop.thetas[i], loop.thetas[j]
    gap = (tj - ti) % (2.0 * np.pi)
    if gap < 1e-12:
        return loop.fibers[i]
    t = ((theta - ti) % (2.0 * np.pi)) / gap
    return slerp_reference(loop.fibers[i], loop.fibers[j], t)


def loop_point_reference(loop, theta):
    """The loop's boundary point at one angle."""
    return graph_point_reference(theta, fiber_at_reference(loop, theta))


def triple_class(form, a, b, c, tol=1e-9):
    """Classify span(a, b, c): 'positive' for signature (2,1), 'negative'
    for (1,2), 'nonnegative_degenerate' otherwise."""
    if (ein.projectively_equal(a, b) or ein.projectively_equal(a, c)
            or ein.projectively_equal(b, c)):
        raise ein.CoincidentPointsError("triple contains coincident points")
    sig = subspace_signature(form, [a, b, c], tol=tol)
    if sig == (2, 1, 0):
        return "positive"
    if sig == (1, 2, 0):
        return "negative"
    return "nonnegative_degenerate"


def quadruple_positive(form, a, b, c, d):
    """Whether b and d sit in opposite diamonds of the pair (a, c), i.e. the
    quadruple is cyclically ordered; requires all sub-triples positive."""
    for t in ([a, b, c], [a, b, d], [a, c, d], [b, c, d]):
        if triple_class(form, *t) != "positive":
            raise DegenerateTripleError("quadruple has a non-positive sub-triple")
    chart = ein.tau_chart(form, (a, b, c))
    ud = ein.minkowski_chart_inverse(form, chart, d)
    e1 = np.zeros(chart.n + 1)
    e1[0] = 1.0
    rel = ud - e1
    return bool(ein.q1n(rel) > 0 and rel[0] > 0)


def certify_reference(form, bmap, A=2.0, n_quadruples=2000, rng_seed=0):
    """`qs_certify` with `quadruple_positive` and `cross_ratio_b` called on
    each quadruple of the same draw, in draw order. It tests only the drawn
    quadruples, so it can certify a map that is not positive where the draw
    misses every bad quadruple; `qs_certify` checks the whole map."""
    quads = cr._window_quadruples(np.random.default_rng(rng_seed), bmap.domain, A, n_quadruples)
    if len(quads) == 0:
        raise cr.InsufficientSamplesError("rejection sampling accepted no quadruple")
    best = 1.0
    worst = None
    for sel in quads:
        pts = bmap.reps[sel]
        if not quadruple_positive(form, *pts):
            raise cr.NonPositiveMapError("sampled quadruple is not positive")
        b = cr.cross_ratio_b(form, pts)
        score = max(abs(b), 1.0 / abs(b))
        if score > best:
            best = score
            worst = tuple(float(bmap.domain[t]) for t in sel)
    return cr.QSCertificate(A=float(A), B=float(best), quadruples_tested=len(quads),
                            worst_quadruple=worst or (0.0, 0.0, 0.0, 0.0), seed=int(rng_seed))


def circle_map_test_reference(form, bmap, tol=1e-10):
    """`circle_map_test` with `cross_ratio_angles`, `cross_ratio_b` and one
    Gram determinant per quadruple."""
    k = bmap.size
    if k < 4:
        raise cr.InsufficientSamplesError("need at least four samples")
    sig_ok = False
    for shift in range(min(k // 3, 16)):
        idx = (shift, (shift + k // 3) % k, (shift + (2 * k) // 3) % k)
        sig = subspace_signature(form, [bmap.reps[t] for t in idx])
        if sig == (2, 1, 0):
            sig_ok = True
            break
    if not sig_ok:
        raise cr.NonPositiveMapError("image contains no positive triple")
    for (i, j, l, m) in cr._quadruple_indices(k, cr.CIRCLE_TEST_QUADRUPLES):
        r = cr.cross_ratio_angles(*(bmap.domain[t] for t in (i, j, l, m)))
        reps = bmap.reps[[i, j, l, m]]
        try:
            b = cr.cross_ratio_b(form, reps)
        except ein.NonTransverseError:
            return False
        if abs(b - r * r) > tol * (1.0 + r * r):
            return False
        gram = (reps * form.signs) @ reps.T
        scale = np.prod(np.linalg.norm(gram, axis=1))
        if scale > 0 and abs(np.linalg.det(gram)) > cr.GRAM_DET_RTOL * scale:
            return False
    return True


def circle_dist_reference(a, b):
    """Distance on the circle between two angles."""
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def lipschitz_margin_reference(loop):
    """`LipschitzLoop.lipschitz_margin` one consecutive pair at a time."""
    k = loop.size
    return min(circle_dist_reference(loop.thetas[i], loop.thetas[(i + 1) % k])
               - sphere_dist_reference(loop.fibers[i], loop.fibers[(i + 1) % k])
               for i in range(k))


def distance_to_crown_reference(crown, pts):
    """Sup over the points of the distance to the crown, each point and
    each edge searched by a scalar golden section."""
    z = crown.zreps
    edges = [(z[i], z[(i + 1) % 4]) for i in range(4)]
    golden = (np.sqrt(5.0) - 1.0) / 2.0

    def edge_point(zi, zj, t):
        vec = np.cos(t) * zi + np.sin(t) * zj
        nu = np.linalg.norm(vec[:2])
        nv = np.linalg.norm(vec[2:])
        return np.concatenate([vec[:2] / nu, vec[2:] / nv])

    worst = 0.0
    for p in pts:
        best = np.inf
        for (zi, zj) in edges:
            def dist(t):
                e = edge_point(zi, zj, t)
                return min(np.linalg.norm(e - p), np.linalg.norm(e + p))

            coarse = np.linspace(1e-9, np.pi / 2.0 - 1e-9, 24)
            vals = [dist(t) for t in coarse]
            t0 = coarse[int(np.argmin(vals))]
            lo, hi = max(t0 - 0.1, 0.0), min(t0 + 0.1, np.pi / 2.0)
            x1 = hi - golden * (hi - lo)
            x2 = lo + golden * (hi - lo)
            f1, f2 = dist(x1), dist(x2)
            for _ in range(70):
                if f1 < f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - golden * (hi - lo)
                    f1 = dist(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + golden * (hi - lo)
                    f2 = dist(x2)
            best = min(best, min(f1, f2))
        worst = max(worst, best)
    return worst


def worst_pair_reference(loop, floor=1e-4):
    """Largest fiber/circle distance ratio over pairs i < j above the floor,
    with the first pair in row-major order that attains it (None if none
    exceeds zero)."""
    dn = np.arccos(np.clip(loop.fibers @ loop.fibers.T, -1.0, 1.0))
    worst = 0.0
    pair = None
    for i in range(loop.size):
        for j in range(i + 1, loop.size):
            d = abs(loop.thetas[i] - loop.thetas[j]) % (2.0 * np.pi)
            d1 = min(d, 2.0 * np.pi - d)
            if d1 < floor:
                continue
            r = dn[i, j] / d1
            if r > worst:
                worst = r
                pair = (i, j)
    return worst, pair


def photon_arc_reference(loop, tol=1e-8):
    """`photon_arc` growing each start's window one sample at a time and
    testing the whole window's submatrix of the rigidity matrix."""
    k = loop.size
    dots = np.clip(loop.fibers @ loop.fibers.T, -1.0, 1.0)
    rigid = np.arccos(dots) >= circle_dist_matrix_reference(loop.thetas) - tol

    def window_rigid(i, length):
        idx = [(i + t) % k for t in range(length + 1)]
        return bool(np.all(rigid[np.ix_(idx, idx)]))

    best = np.zeros(k, dtype=int)
    for i in range(k):
        ln = 0
        while ln + 1 < k and window_rigid(i, ln + 1):
            ln += 1
        best[i] = ln
    arcs = []
    for i in range(k):
        if best[i] == 0 or best[(i - 1) % k] >= best[i] + 1:
            continue
        arcs.append((i, (i + best[i]) % k))
    return arcs


def circle_dist_matrix_reference(thetas):
    """The circle distance matrix, reduced mod 2 pi as it was before the
    pair kernel."""
    d = np.abs(thetas[:, None] - thetas[None, :]) % (2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


def loop_classify_reference(loop):
    """`einstein.loop_classify` on full k x k matrices, read at the pairs
    i < j."""
    dots = np.clip(loop.fibers @ loop.fibers.T, -1.0, 1.0)
    iu = np.triu_indices(loop.size, 1)
    gaps = circle_dist_matrix_reference(loop.thetas)[iu] - np.arccos(dots)[iu]
    if np.all(gaps > ein.LIPSCHITZ_TOL):
        return "positive"
    if np.all(gaps >= -ein.LIPSCHITZ_TOL):
        if np.all(np.abs(gaps) <= ein.LIPSCHITZ_TOL):
            return "invalid"  # a sampled global isometry traces a photon
        return "semipositive"
    return "invalid"


def pair_ratio_matrix_reference(loop):
    """Fiber/circle distance ratio of every sample pair i < j as a k x k
    matrix, with 0 where j <= i or where the circle distance falls below
    1e-4."""
    dn = np.arccos(np.clip(loop.fibers @ loop.fibers.T, -1.0, 1.0))
    d1 = circle_dist_matrix_reference(loop.thetas)
    keep = np.triu(d1 >= 1e-4, 1)
    return np.where(keep, dn / np.where(keep, d1, 1.0), 0.0)


def loop_margin_reference(loop):
    """Relative contraction margin: 1 - max fiber/circle distance ratio over
    sampled pairs (pairs below 1e-4 are skipped as pure noise)."""
    return 1.0 - float(np.max(pair_ratio_matrix_reference(loop)))


def quasiperiodicity_probe_reference(loop, triples=50, seed=0):
    """`diagnostics.quasiperiodicity_probe` one triple at a time, on full
    ratio matrices and with one nearest-sample search per angle."""
    if loop_classify_reference(loop) != "positive":
        raise GeometryError("quasiperiodicity probe requires a positive loop")
    form = BilinearForm(loop.n)
    rng = np.random.default_rng(seed)
    k = loop.size
    margins = []
    reps = np.column_stack([np.cos(loop.thetas), np.sin(loop.thetas), loop.fibers])
    # concentrating triples probe the renormalisation dynamics; aim half of
    # them at the least-contracting spot of the graph, the first worst pair
    # in row-major order
    ratios = pair_ratio_matrix_reference(loop)
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
        try:
            g = standardize_triple(reps[sel], form)
        except GeometryError:
            continue
        moved = reps @ g.matrix.T
        nu = np.linalg.norm(moved[:, :2], axis=1)
        nv = np.linalg.norm(moved[:, 2:], axis=1)
        thetas = np.arctan2(moved[:, 1] / nu, moved[:, 0] / nu) % (2.0 * np.pi)
        fibers = moved[:, 2:] / nv[:, None]
        try:
            renorm = ein.LipschitzLoop(thetas, fibers)
        except GeometryError:
            continue
        margins.append(loop_margin_reference(renorm))
    if not margins:
        raise GeometryError("no positive triple produced a renormalisable graph")
    return {
        "min_margin": float(np.min(margins)),
        "median_margin": float(np.median(margins)),
        "base_margin": float(loop_margin_reference(loop)),
        "renormalizations": len(margins),
        "seed": int(seed),
    }
