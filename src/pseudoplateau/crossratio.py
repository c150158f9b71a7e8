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

from .qcore import (
    NULL_EIGENVALUE_RTOL,
    BilinearForm,
    DegenerateTripleError,
    GeometryError,
    _rows,
    norm_rows,
)
from .einstein import (
    ChartDomainError,
    CoincidentPointsError,
    NonTransverseError,
    circle_points,
    in_closed_diamond,
    minkowski_chart_apply,
    minkowski_chart_inverse,
    projectively_equal,
    q1n,
    tau_chart,
    transverse,
)


class NonPositiveMapError(GeometryError):
    pass


class InsufficientSamplesError(GeometryError):
    pass


# The pairs of a quadruple (x, y, z, t), with (x, t) third.
_PAIRS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])


def _apart(G: np.ndarray, norms: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Whether each of the six pairs of each quadruple is transverse. The
    rows of `quads` index the last axes of the pairing matrix G and of the
    representatives' norms."""
    i, j = quads[..., _PAIRS[0]], quads[..., _PAIRS[1]]
    return transverse(G[..., i, j], norms[..., i], norms[..., j])


def _ratios(G: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """b(x, y, z, t) = <x,y><z,t> / (<x,t><z,y>) of each quadruple, its
    indices read off the last axes of the pairing matrix G."""
    x, y, z, t = (quads[..., c] for c in range(4))
    return (G[..., x, y] * G[..., z, t]) / (G[..., x, t] * G[..., z, y])


def cross_ratio_b(form: BilinearForm, X):
    """b(x, y, z, t) = <x,y><z,t> / (<x,t><z,y>) of the boundary
    representatives in the rows of X (4, dim), or of each quadruple of a
    stack (m, 4, dim); one quadruple gives a float. Independent of the
    representatives' scaling. Requires pairwise transverse quadruples."""
    X = np.asarray(X, dtype=float)
    G = (X * form.signs) @ np.swapaxes(X, -1, -2)
    quad = np.arange(4)
    if not np.all(_apart(G, norm_rows(X), quad)):
        raise NonTransverseError("cross-ratio needs pairwise transverse points")
    return _rows(_ratios(G, quad))


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
    """A boundary map sampled on circle parameters of the projective line:
    `reps[i]` is the boundary representative of the image of `domain[i]`."""

    domain: np.ndarray
    reps: np.ndarray

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float) % (2.0 * np.pi)
        reps = np.asarray(self.reps, dtype=float)
        if dom.ndim != 1 or reps.ndim != 2 or len(dom) != len(reps):
            raise GeometryError(f"domain and image sample counts differ: {dom.shape} "
                                f"angles, {reps.shape} representatives")
        order = np.argsort(dom)
        self.domain = dom[order]
        self.reps = reps[order]
        if np.any(np.diff(self.domain) <= 1e-12):
            raise GeometryError("domain samples must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.domain)


def circle_map(form: BilinearForm, domain) -> SampledBoundaryMap:
    """The canonical embedding of the projective line onto the standard
    spacelike circle (sends circle parameters to circle points)."""
    return SampledBoundaryMap(domain, circle_points(form, domain))


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
    P = bmap.reps
    for shift in range(min(k // 3, 16)):
        idx = [shift, (shift + k // 3) % k, (shift + (2 * k) // 3) % k]
        if subspace_signature(form, P[idx]) == (2, 1, 0):
            sig_ok = True
            break
    if not sig_ok:
        raise NonPositiveMapError("image contains no positive triple")
    quads = np.array(_quadruple_indices(k, CIRCLE_TEST_QUADRUPLES), dtype=np.intp)
    G = (P * form.signs) @ P.T
    # circle maps keep distinct points transverse, so a non-transverse pair
    # already refutes the identity
    if not np.all(_apart(G, norm_rows(P), quads)):
        return False
    r = cross_ratio_angles(*bmap.domain[quads].T)
    ratios = _ratios(G, quads)
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
# them, and the pairs of a triple.
_SUBTRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
_TRIPLE_PAIRS = ([0, 0, 1], [1, 2, 2])


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
    coincident = np.any(projectively_equal(R[:, :, _TRIPLE_PAIRS[0]], R[:, :, _TRIPLE_PAIRS[1]]),
                        axis=-1)
    # signature (2, 1, 0) of each sub-triple, with subspace_signature's cutoff
    eig = np.linalg.eigvalsh(G[T[..., :, None], T[..., None, :]])
    scale = np.maximum(np.max(np.abs(eig), axis=-1), np.max(norms[T], axis=-1) ** 2)
    cutoff = NULL_EIGENVALUE_RTOL * scale[..., None]
    positive = (np.sum(eig > cutoff, axis=-1) == 2) & (np.sum(eig < -cutoff, axis=-1) == 1)

    apart = _apart(G, norms, quads)
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
    return _ratios(G, quads)


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
    P = bmap.reps
    G = (P * form.signs) @ P.T
    norms = norm_rows(P)
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


@dataclass
class ContractionReport:
    max_ratio: float
    bound: float
    chord_ratio_measured: float
    chord_ratio_formula: float
    chord_bound: float
    samples: int


def _diamond_grid(n: int, per_axis: int) -> np.ndarray:
    """Deterministic grid inside the standard diamond |s| + |w| < 1, as
    chart coordinate rows (k, n+1)."""
    s, w = np.meshgrid(np.linspace(-0.8, 0.8, per_axis), np.linspace(-0.8, 0.8, per_axis),
                       indexing="ij")
    keep = np.abs(s) + np.abs(w) < 0.95
    grid = np.zeros((int(np.sum(keep)), n + 1))
    grid[:, 0] = s[keep]
    grid[:, 1] = w[keep]
    return grid


def contraction_check(form: BilinearForm, tau, tau_prime, B: float,
                      per_axis: int = 7) -> ContractionReport:
    """Measured contraction of the diamond distance between nested diamonds
    with cross-ratio control B, against the bound (B-1)/(B+1), plus the
    lightlike chord length of the controlled region. tau and tau_prime are
    triples of boundary representatives, (3, dim) each."""
    from scipy.spatial.distance import pdist

    a, b, c = tau
    a2, x, y = tau_prime
    if not projectively_equal(a, a2, atol=1e-8):
        raise GeometryError("the two triples must share their first point")
    if B <= 1.0:
        raise GeometryError("the cross-ratio control must exceed 1")
    chart_outer = tau_chart(form, tau)
    for p in (x, y):
        if not in_closed_diamond(form, chart_outer, p, tol=1e-7):
            raise ChartDomainError("inner diamond endpoints must lie in the outer diamond")
        val = cross_ratio_b(form, np.stack([a, b, p, c]))
        if not (1.0 / B - 1e-9 <= val <= B + 1e-9):
            raise GeometryError(f"cross-ratio control violated: b = {val:.6f}")
    chart_inner = tau_chart(form, tau_prime)
    grid = _diamond_grid(form.n, per_axis)
    outer = minkowski_chart_inverse(form, chart_outer,
                                    minkowski_chart_apply(form, chart_inner, grid))
    inner = pdist(grid)
    apart = inner >= 1e-9
    ratios = pdist(outer)[apart] / inner[apart]
    chord_measured, chord_formula = _lightlike_chord_ratio(form.n, B)
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


def _lightlike_chord_ratio(n: int, B: float):
    """Measure the controlled fraction of one lightlike chord of the standard
    diamond of R^{1,n}, and evaluate the closed form at the chord's lambda.
    The chord is the same for every chart, so it is measured in the
    standard diamond."""
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
        pair = rel[0] * u_dir[0] - np.dot(rel[1:], u_dir[1:])
        return -q1n(rel) / (2.0 * pair)

    tb = t_hit(-e1)
    tc = t_hit(e1)
    p = x0 + tb * u_dir
    qq = x0 + tc * u_dir
    seg = qq - p

    corners = np.array([-e1, e1])
    to_c, to_b = q1n(p + 0.5 * seg + corners)
    lam = to_c / to_b
    if not (1.0 / B < lam < B):
        raise GeometryError("chord offset places the midpoint outside the controlled region")
    formula = lightlike_chord_formula(B, lam)

    # seg is lightlike, so both pairings are affine in t along the chord and
    # b(t) = to_c / to_b is a ratio of affine functions of t
    (c0, b0), (c1, b1) = q1n(p + corners), q1n(qq + corners)

    def crossing(target):
        return (target * b0 - c0) / ((c1 - c0) - target * (b1 - b0))

    measured = abs(crossing(1.0 / B) - crossing(B))
    return measured, formula
