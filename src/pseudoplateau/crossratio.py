"""Cross-ratios on the boundary and the quasisymmetry toolkit built on them.

The four-point invariant <x,y><z,t> / (<x,t><z,y>) generalises the squared
cross-ratio of the projective line: on circle maps the two agree exactly,
and uniform control of the invariant over a window of projective
cross-ratios is what certification measures.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .qcore import NULL_EIGENVALUE_RTOL, BilinearForm, DegenerateTripleError, GeometryError
from .einstein import (
    TRANSVERSALITY_RTOL,
    BoundaryPoint,
    ChartDomainError,
    CoincidentPointsError,
    MinkowskiChart,
    NonTransverseError,
    in_closed_diamond,
    minkowski_chart_apply,
    minkowski_chart_inverse,
    projectively_equal,
    standard_circle,
    tau_chart,
    transverse,
)


class NonPositiveMapError(GeometryError):
    pass


class InsufficientSamplesError(GeometryError):
    pass


def cross_ratio_b(form: BilinearForm, x: BoundaryPoint, y: BoundaryPoint,
                  z: BoundaryPoint, t: BoundaryPoint) -> float:
    """<x,y><z,t> / (<x,t><z,y>); independent of the representative scaling.
    Requires a pairwise transverse quadruple."""
    pts = (x, y, z, t)
    for i in range(4):
        for j in range(i + 1, 4):
            if not transverse(form, pts[i], pts[j]):
                raise NonTransverseError("cross-ratio needs pairwise transverse points")
    num = form.inner(x.rep, y.rep) * form.inner(z.rep, t.rep)
    den = form.inner(x.rep, t.rep) * form.inner(z.rep, y.rep)
    return float(num / den)


def _lift(value) -> np.ndarray:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return np.array([1.0, 0.0])
    return np.array([float(value), 1.0])


def _om(a, b):
    return a[0] * b[1] - a[1] * b[0]


def cross_ratio_real(x, y, z, t) -> float:
    """Classical cross-ratio of projective-line points given as real values
    (math.inf for the point at infinity); points must be pairwise distinct."""
    lifts = [_lift(v) for v in (x, y, z, t)]
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(_om(lifts[i], lifts[j])) < 1e-300:
                raise CoincidentPointsError("cross-ratio of coincident points")
    num = _om(lifts[0], lifts[1]) * _om(lifts[2], lifts[3])
    den = _om(lifts[0], lifts[3]) * _om(lifts[2], lifts[1])
    return float(num / den)


def angle_lift(theta: float) -> np.ndarray:
    """Lift of the circle parameter to the projective plane: the circle
    double-covers the projective line at half angle."""
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)])


def cross_ratio_angles(tx, ty, tz, tt):
    """Projective cross-ratio of four circle parameters, or elementwise of
    four arrays of them."""
    lx, ly, lz, lt = (angle_lift(t) for t in (tx, ty, tz, tt))
    den = _om(lx, lt) * _om(lz, ly)
    if np.any(np.abs(den) < 1e-300):
        raise CoincidentPointsError("cross-ratio of coincident angles")
    return _om(lx, ly) * _om(lz, lt) / den


def value_to_angle(value) -> float:
    """Circle parameter of a projective value, inverse to cot(theta/2)."""
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return 0.0
    return float(2.0 * np.arctan2(1.0, float(value)) % (2.0 * np.pi))


@dataclass
class SampledBoundaryMap:
    """A boundary map sampled on circle parameters of the projective line."""

    domain: np.ndarray
    images: list

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float) % (2.0 * np.pi)
        order = np.argsort(dom)
        self.domain = dom[order]
        self.images = [self.images[i] for i in order]
        if len(self.domain) != len(self.images):
            raise GeometryError("domain and image sample counts differ")
        if np.any(np.diff(self.domain) <= 1e-12):
            raise GeometryError("domain samples must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.domain)


def circle_map(form: BilinearForm, domain) -> SampledBoundaryMap:
    """The canonical embedding of the projective line onto the standard
    spacelike circle (sends circle parameters to circle points)."""
    circ = standard_circle(form)
    domain = np.asarray(domain, dtype=float)
    return SampledBoundaryMap(domain, [circ.point_at(t) for t in domain])


# How many quadruples `circle_map_test` tests, and the relative size below
# which their 4x4 Gram determinants count as vanishing.
CIRCLE_TEST_QUADRUPLES = 3000
GRAM_DET_RTOL = 1e-8


def circle_map_test(form: BilinearForm, bmap: SampledBoundaryMap, tol: float = 1e-10) -> bool:
    """Whether the sampled map satisfies the squared-cross-ratio identity on
    a deterministic spread of quadruples, cross-checked by the vanishing of
    their 4x4 Gram determinants. All quadruples are tested as arrays against
    one pairing matrix."""
    k = bmap.size
    if k < 4:
        raise InsufficientSamplesError("need at least four samples")
    from .qcore import subspace_signature

    sig_ok = False
    for shift in range(min(k // 3, 16)):
        idx = (shift, (shift + k // 3) % k, (shift + (2 * k) // 3) % k)
        sig = subspace_signature(form, [bmap.images[t].rep for t in idx]).as_tuple()
        if sig == (2, 1, 0):
            sig_ok = True
            break
    if not sig_ok:
        raise NonPositiveMapError("image contains no positive triple")
    quads = np.array(_quadruple_indices(k, CIRCLE_TEST_QUADRUPLES), dtype=np.intp)
    P = np.array([p.rep for p in bmap.images])
    G = (P * form.signs) @ P.T
    norms = np.linalg.norm(P, axis=1)
    i, j = quads[:, _PAIRS[0]], quads[:, _PAIRS[1]]
    # circle maps keep distinct points transverse, so a non-transverse pair
    # already refutes the identity
    if not np.all(np.abs(G[i, j]) > TRANSVERSALITY_RTOL * norms[i] * norms[j]):
        return False
    a, b, c, d = quads.T
    r = cross_ratio_angles(*bmap.domain[quads].T)
    ratios = (G[a, b] * G[c, d]) / (G[a, d] * G[c, b])
    if np.any(np.abs(ratios - r * r) > tol * (1.0 + r * r)):
        return False
    gram = G[quads[:, :, None], quads[:, None, :]]
    scale = np.prod(np.linalg.norm(gram, axis=2), axis=1)
    return not np.any((scale > 0) & (np.abs(np.linalg.det(gram)) > GRAM_DET_RTOL * scale))


def _quadruple_indices(k: int, cap: int) -> list[tuple[int, int, int, int]]:
    """Deterministic spread of ordered index quadruples."""
    return list(itertools.islice(itertools.combinations(range(0, k, max(1, k // 12)), 4), cap))


@dataclass
class QSCertificate:
    A: float
    B: float
    quadruples_tested: int
    worst_quadruple: tuple[float, float, float, float]
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "A": self.A,
                "B_measured": self.B,
                "quadruples_tested": self.quadruples_tested,
                "worst_quadruple": list(self.worst_quadruple),
                "seed": self.seed,
            },
            sort_keys=True,
        )


# The sub-triples of a quadruple (a, b, c, d) in the order positivity visits
# them, the pairs of a triple, and the pairs of a quadruple ((a, d) third).
_SUBTRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
_TRIPLE_PAIRS = ([0, 0, 1], [1, 2, 2])
_PAIRS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])


def _window_quadruples(rng: np.random.Generator, domain: np.ndarray, A: float,
                       target: int) -> np.ndarray:
    """Up to `target` sorted index quadruples, uniform over 4-subsets of the
    samples, whose projective cross-ratio lies in the window [1/A, A], in
    draw order. Rows of four indices are drawn in blocks; a row that repeats
    an index is dropped but counts as a draw, and at most 80 rows are drawn
    per target."""
    k = len(domain)
    budget = 80 * target
    drawn = 0
    blocks = []
    found = 0
    while found < target and drawn < budget:
        m = min(4 * (target - found), budget - drawn)
        rows = np.sort(rng.integers(0, k, size=(m, 4)), axis=1)
        drawn += m
        rows = rows[np.all(np.diff(rows, axis=1) > 0, axis=1)]
        r = np.abs(cross_ratio_angles(*domain[rows].T))
        rows = rows[(1.0 / A <= r) & (r <= A)]
        blocks.append(rows)
        found += len(rows)
    return np.concatenate(blocks)[:target] if blocks else np.empty((0, 4), dtype=np.intp)


def _quadruple_checks(P: np.ndarray, G: np.ndarray, norms: np.ndarray, quads: np.ndarray):
    """The positivity and transversality tests of each row of `quads`
    (indices into the representatives P with pairing matrix G and row norms
    `norms`), as arrays: per sub-triple whether it has coincident points and
    whether it fails to be positive, per pair whether it is transverse, and
    whether d lies in the future cone of c in the chart of (a, b, c)."""
    T = quads[:, _SUBTRIPLES]
    R = P[T]
    x, y = R[:, :, _TRIPLE_PAIRS[0]], R[:, :, _TRIPLE_PAIRS[1]]
    gap = np.minimum(np.max(np.abs(x - y), axis=-1), np.max(np.abs(x + y), axis=-1))
    coincident = np.any(gap <= 1e-9, axis=-1)
    # signature (2, 1, 0) of each sub-triple, with subspace_signature's cutoff
    eig = np.linalg.eigvalsh(G[T[..., :, None], T[..., None, :]])
    scale = np.maximum(np.max(np.abs(eig), axis=-1), np.max(norms[T], axis=-1) ** 2)
    cutoff = NULL_EIGENVALUE_RTOL * scale[..., None]
    positive = (np.sum(eig > cutoff, axis=-1) == 2) & (np.sum(eig < -cutoff, axis=-1) == 1)

    i, j = quads[:, _PAIRS[0]], quads[:, _PAIRS[1]]
    apart = np.abs(G[i, j]) > TRANSVERSALITY_RTOL * norms[i] * norms[j]
    # In the Minkowski chart of a, q(u_x - u_y) is a positive multiple of
    # D(x, y) = -<x,y> / (<x,a><y,a>). With u_b = -e1 and u_c = e1, d lies in
    # the future cone of c exactly when D(d,c) > 0 and
    # D(d,b) - D(d,c) - D(c,b) = 4 (u_d - e1)_0 > 0.
    a, b, c, d = quads.T

    def D(p, q):
        return -G[p, q] / (G[p, a] * G[q, a])

    with np.errstate(divide="ignore", invalid="ignore"):
        d_c = D(d, c)
        ordered = (d_c > 0) & (D(d, b) - d_c - D(c, b) > 0)
    return coincident, coincident | ~positive, apart, ordered


def _certified_ratios(P: np.ndarray, G: np.ndarray, norms: np.ndarray,
                      quads: np.ndarray) -> np.ndarray:
    """b(a, b, c, d) of each row of `quads`, in cyclic domain order, after
    checking that every quadruple is positive and pairwise transverse.

    The first failing row raises what the per-quadruple test raises: a
    coincident or non-positive sub-triple first, then d on the light cone of
    a or a wrong cyclic order, then a non-transverse pair.
    """
    coincident, bad_triple, apart, ordered = _quadruple_checks(P, G, norms, quads)
    on_cone = ~apart[:, 2]
    failed = np.any(bad_triple, axis=1) | on_cone | ~ordered | ~np.all(apart, axis=1)
    if np.any(failed):
        q = int(np.argmax(failed))
        if np.any(bad_triple[q]):
            if coincident[q, int(np.argmax(bad_triple[q]))]:
                raise CoincidentPointsError("triple contains coincident points")
            raise DegenerateTripleError("quadruple has a non-positive sub-triple")
        if on_cone[q]:
            raise ChartDomainError("point lies on the light cone of the chart")
        if not ordered[q]:
            raise NonPositiveMapError("sampled quadruple is not positive")
        raise NonTransverseError("cross-ratio needs pairwise transverse points")
    a, b, c, d = quads.T
    return (G[a, b] * G[c, d]) / (G[a, d] * G[c, b])


def qs_certify(form: BilinearForm, bmap: SampledBoundaryMap, A: float = 2.0,
               n_quadruples: int = 2000, rng_seed: int = 0) -> QSCertificate:
    """Measure the distortion constant B over sampled quadruples whose
    projective cross-ratio lies in the window [1/A, A]. Deterministic given
    the seed.

    Quadruples are drawn from one seed stream and tested as arrays against
    one pairing matrix. The worst quadruple is the first, in draw order,
    that attains B.
    """
    if A <= 1.0:
        raise GeometryError("the window parameter must exceed 1")
    if bmap.size < 8:
        raise InsufficientSamplesError("too few samples to certify")
    P = np.array([p.rep for p in bmap.images])
    G = (P * form.signs) @ P.T
    norms = np.linalg.norm(P, axis=1)
    quads = _window_quadruples(np.random.default_rng(rng_seed), bmap.domain, A, n_quadruples)
    if not len(quads):
        raise InsufficientSamplesError("rejection sampling accepted no quadruple")
    b = np.abs(_certified_ratios(P, G, norms, quads))
    score = np.maximum(b, 1.0 / b)
    top = int(np.argmax(score))
    best = 1.0
    worst = (0.0, 0.0, 0.0, 0.0)
    if score[top] > best:
        best = score[top]
        worst = tuple(float(bmap.domain[t]) for t in quads[top])
    return QSCertificate(A=float(A), B=float(best), quadruples_tested=len(score),
                         worst_quadruple=worst, seed=int(rng_seed))


# ---------------------------------------------------------------------------
# Contraction of nested diamonds


def _q1n(u: np.ndarray) -> float:
    return float(u[0] ** 2 - np.dot(u[1:], u[1:]))


@dataclass
class ContractionReport:
    max_ratio: float
    bound: float
    chord_ratio_measured: float
    chord_ratio_formula: float
    chord_bound: float
    samples: int


def _diamond_grid(n: int, per_axis: int) -> list[np.ndarray]:
    """Deterministic grid inside the standard diamond |s| + |w| < 1."""
    pts = []
    for s in np.linspace(-0.8, 0.8, per_axis):
        for w in np.linspace(-0.8, 0.8, per_axis):
            if abs(s) + abs(w) >= 0.95:
                continue
            u = np.zeros(n + 1)
            u[0] = s
            u[1] = w
            pts.append(u)
    return pts


def contraction_check(form: BilinearForm, tau, tau_prime, B: float,
                      per_axis: int = 7) -> ContractionReport:
    """Measured contraction of the diamond distance between nested diamonds
    with cross-ratio control B, against the bound (B-1)/(B+1), plus the
    lightlike chord length of the controlled region."""
    from scipy.spatial.distance import pdist

    a, b, c = tau
    a2, x, y = tau_prime
    if not projectively_equal(a, a2, atol=1e-8):
        raise GeometryError("the two triples must share their first point")
    if B <= 1.0:
        raise GeometryError("the cross-ratio control must exceed 1")
    for p in (x, y):
        if not in_closed_diamond(form, tau, p, tol=1e-7):
            raise ChartDomainError("inner diamond endpoints must lie in the outer diamond")
        val = cross_ratio_b(form, a, b, p, c)
        if not (1.0 / B - 1e-9 <= val <= B + 1e-9):
            raise GeometryError(f"cross-ratio control violated: b = {val:.6f}")
    chart_outer = tau_chart(form, (a, b, c))
    chart_inner = tau_chart(form, (a2, x, y))
    grid = _diamond_grid(form.n, per_axis)
    pts = [minkowski_chart_apply(form, chart_inner, u) for u in grid]
    inner_coords = np.array(grid)
    outer_coords = np.array([minkowski_chart_inverse(form, chart_outer, p) for p in pts])
    inner = pdist(inner_coords)
    apart = inner >= 1e-9
    ratios = pdist(outer_coords)[apart] / inner[apart]
    chord_measured, chord_formula = _lightlike_chord_ratio(form, chart_outer, B)
    bound = (B - 1.0) / (B + 1.0)
    return ContractionReport(
        max_ratio=float(np.max(ratios, initial=0.0)),
        bound=float(bound),
        chord_ratio_measured=float(chord_measured),
        chord_ratio_formula=float(chord_formula),
        chord_bound=float(bound * np.sqrt(2.0)),
        samples=len(ratios),
    )


def lightlike_chord_formula(B: float, lam: float) -> float:
    """Fraction of a lightlike chord of the diamond on which the anchored
    cross-ratio stays within [1/B, B]."""
    return (B * B - 1.0) * lam / ((B + lam) * (lam * B + 1.0))


# Where the measured lightlike chord crosses the second chart axis.
CHORD_OFFSET = 0.3


def _lightlike_chord_ratio(form: BilinearForm, chart: MinkowskiChart, B: float):
    """Measure the controlled fraction of one lightlike chord of the diamond
    in the given chart, and evaluate the closed form at the chord's lambda."""
    n = chart.n
    e1 = np.zeros(n + 1)
    e1[0] = 1.0
    u_dir = np.zeros(n + 1)
    u_dir[0] = 1.0
    u_dir[1] = 1.0
    x0 = np.zeros(n + 1)
    x0[1] = CHORD_OFFSET

    def t_hit(center):
        # line x0 + t u_dir meets the cone q(x - center) = 0 at a single t
        rel = x0 - center
        qrel = rel[0] ** 2 - np.dot(rel[1:], rel[1:])
        pair = rel[0] * u_dir[0] - np.dot(rel[1:], u_dir[1:])
        return -qrel / (2.0 * pair)

    tb = t_hit(-e1)
    tc = t_hit(e1)
    p = x0 + tb * u_dir
    qq = x0 + tc * u_dir
    seg = qq - p

    def bval(t):
        w = p + t * seg
        return _q1n(w - e1) / _q1n(w + e1)

    lam = bval(0.5)
    if not (1.0 / B < lam < B):
        raise GeometryError("chord offset places the midpoint outside the controlled region")
    formula = lightlike_chord_formula(B, lam)

    def solve(target, bracket):
        a_, b_ = bracket
        fa = bval(a_) - target
        for _ in range(200):
            m = 0.5 * (a_ + b_)
            fm = bval(m) - target
            if fa * fm <= 0:
                b_ = m
            else:
                a_, fa = m, fm
            if b_ - a_ < 1e-15:
                break
        return 0.5 * (a_ + b_)

    t_hi_end = solve(1.0 / B, (0.5, 1.0 - 1e-12))
    t_lo_end = solve(B, (1e-12, 0.5))
    measured = abs(t_hi_end - t_lo_end)
    return measured, formula
