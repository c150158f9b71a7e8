"""Boundary geometry of H^{2,n}: the projectivised null cone of the form.

A boundary point is a normalised representative row: in product
coordinates (u, v), u is a unit vector of R^2 and v a unit vector of
R^{n+1}, and the sign quotient is resolved by making the first nonzero
coordinate of u positive. A stack of k points is a (k, n+3) array of such
rows, and every boundary operation here works row by row. Loops are
sampled graphs of 1-Lipschitz maps from the circle to the sphere, with
geodesic interpolation between samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    BilinearForm,
    DegenerateCrownError,
    GeometryError,
    _rows,
    dot_rows,
    norm_rows,
    standardize_triple,
    subspace_signature,
)


class NonTransverseError(GeometryError):
    pass


class CoincidentPointsError(GeometryError):
    pass


class ChartDomainError(GeometryError):
    pass


class InvalidLoopError(GeometryError):
    pass


TRANSVERSALITY_RTOL = 1e-8
# The relative gap |u| - |v| up to which `boundary_points` accepts a vector
# as isotropic.
ISOTROPY_RTOL = 1e-8

# The slack with which `loop_classify` and `photon_arc` compare the fiber
# distance of two loop samples with their circle distance.
LIPSCHITZ_TOL = 1e-8


def _signed(rep: np.ndarray) -> np.ndarray:
    """The sign rule: negate each row whose first nonzero coordinate of u is
    negative."""
    lead = np.where(rep[..., 0] != 0.0, rep[..., 0], rep[..., 1])
    return np.where((lead < 0)[..., None], -rep, rep)


def boundary_points(form: BilinearForm, X) -> np.ndarray:
    """Normalise isotropic vectors, a row (dim,) or a stack (k, dim), into
    boundary representatives; rejects vectors too far from the null cone."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 0 or X.shape[-1] != form.dim:
        raise GeometryError(f"expected rows of length {form.dim}, got shape {X.shape}")
    nu = norm_rows(X[..., :2])
    nv = norm_rows(X[..., 2:])
    if np.any((nu == 0.0) | (nv == 0.0)):
        raise GeometryError("vector is not isotropic (a product factor vanishes)")
    off = np.abs(nu - nv) > ISOTROPY_RTOL * np.maximum(nu, nv)
    if np.any(off):
        raise GeometryError(f"vector is not isotropic: |u| = {nu[off][0]:.3e}, "
                            f"|v| = {nv[off][0]:.3e}")
    return _signed(np.concatenate([X[..., :2] / nu[..., None], X[..., 2:] / nv[..., None]],
                                  axis=-1))


def graph_points(thetas, fibers) -> np.ndarray:
    """The boundary points (cos t, sin t, f) of loop-graph samples (t, f), one
    or a stack, with the sign rule. (cos t, sin t) is kept as computed:
    normalising it again would move its last bits."""
    thetas = np.asarray(thetas, dtype=float)
    u = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    return _signed(np.concatenate([u, fibers], axis=-1))


def circle_points(form: BilinearForm, thetas) -> np.ndarray:
    """Boundary points of the standard spacelike circle, the boundary of the
    totally geodesic plane spanned by e1, e2 and e3: (cos t, sin t, 1, 0, ...)
    normalised, one row per angle, in the given order."""
    thetas = np.asarray(thetas, dtype=float)
    X = np.zeros(thetas.shape + (form.dim,))
    X[..., 0] = np.cos(thetas)
    X[..., 1] = np.sin(thetas)
    X[..., 2] = 1.0
    return boundary_points(form, X)


def projectively_equal(X, Y, atol: float = 1e-9):
    """Whether boundary representatives agree up to sign within atol in every
    coordinate: row by row for stacks, a bool for one pair."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    gap = np.minimum(np.max(np.abs(X - Y), axis=-1), np.max(np.abs(X + Y), axis=-1))
    return _rows(gap <= atol)


def transverse(pairing, norm_x, norm_y):
    """Whether boundary representatives x and y with pairing <x, y> and
    Euclidean norms |x| and |y| pair nontrivially under the form, so lie on
    no common photon; elementwise on arrays."""
    return np.abs(pairing) > TRANSVERSALITY_RTOL * norm_x * norm_y


# ---------------------------------------------------------------------------
# Minkowski charts


@dataclass(frozen=True)
class MinkowskiChart:
    """Conformal identification of the complement of a light cone with flat
    R^{1,n}. apply/inverse go through the canonical chart of (a0, b0) with an
    affine conformal adjustment (L, p) of the source."""

    a0: np.ndarray
    b0: np.ndarray
    fbasis: np.ndarray          # (n+1) x (n+3), q-orthonormal rows, signs (+,-,...,-)
    L: np.ndarray               # (n+1) x (n+1) conformal linear map
    p: np.ndarray               # translation in R^{1,n}

    @property
    def n(self) -> int:
        return self.fbasis.shape[0] - 1


def q1n(U) -> np.ndarray:
    """The form u_0^2 - |u_{1..n}|^2 of R^{1,n}, row by row."""
    U = np.asarray(U, dtype=float)
    return U[..., 0] ** 2 - dot_rows(U[..., 1:], U[..., 1:])


def _q1n_signs(n: int) -> np.ndarray:
    s = -np.ones(n + 1)
    s[0] = 1.0
    return s


def _orthonormal_lorentz_basis(form: BilinearForm, span_rows: np.ndarray) -> np.ndarray:
    """q-orthonormalise a basis of a (1, n) subspace; first row spacelike."""
    gram = (span_rows * form.signs) @ span_rows.T
    w, vecs = np.linalg.eigh(gram)
    order = np.argsort(-w)
    w = w[order]
    vecs = vecs[:, order]
    if not (w[0] > 0 and np.all(w[1:] < 0)):
        raise GeometryError("subspace does not have signature (1, n)")
    rows = []
    for k in range(len(w)):
        vec = span_rows.T @ vecs[:, k] / np.sqrt(abs(w[k]))
        lead = vec[np.argmax(np.abs(vec))]
        if lead < 0:
            vec = -vec
        rows.append(vec)
    return np.array(rows)


def minkowski_chart(form: BilinearForm, a, b) -> MinkowskiChart:
    """The canonical chart of Mink(a) anchored at b (no affine adjustment);
    a and b are boundary representatives."""
    a0, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    pairing = form.inner(a0, b)
    if not transverse(pairing, norm_rows(a0), norm_rows(b)):
        raise NonTransverseError("chart anchor must be transverse to the cone point")
    b0 = b / pairing
    QA = np.vstack([form.signs * a0, form.signs * b0])
    _, _, vh = np.linalg.svd(QA)
    span = vh[2:]
    fbasis = _orthonormal_lorentz_basis(form, span)
    n = form.dim - 3
    return MinkowskiChart(a0, b0, fbasis, np.eye(n + 1), np.zeros(n + 1))


def minkowski_chart_apply(form: BilinearForm, chart: MinkowskiChart, U) -> np.ndarray:
    """psi(u) = u - b0 + q(u)/2 a0, with u expanded in the chart basis after
    the affine adjustment: the boundary points of chart coordinates, a row
    (n+1,) or a stack (k, n+1)."""
    W = chart.p + np.asarray(U, dtype=float) @ chart.L.T
    vec = W @ chart.fbasis - chart.b0 + 0.5 * q1n(W)[..., None] * chart.a0
    return boundary_points(form, vec)


def minkowski_chart_inverse(form: BilinearForm, chart: MinkowskiChart, X) -> np.ndarray:
    """Chart coordinates of boundary representatives off the light cone L(a),
    a row or a stack of rows."""
    X = np.asarray(X, dtype=float)
    pairing = form.inner_rows(X, chart.a0)
    if not np.all(transverse(pairing, norm_rows(X), norm_rows(chart.a0))):
        raise ChartDomainError("point lies on the light cone of the chart")
    y = X / -pairing[..., None] + chart.b0
    y = y - form.inner_rows(y, chart.b0)[..., None] * chart.a0
    w = _q1n_signs(chart.n) * (y @ (chart.fbasis * form.signs).T)
    return np.linalg.solve(chart.L, (w - chart.p).T).T


_REFERENCE_CHART_CACHE: dict[int, MinkowskiChart] = {}


def _reference_tau_chart(form: BilinearForm) -> MinkowskiChart:
    """The chart of the reference triple (a at the cone point, b at -e1,
    c at +e1), built once per dimension."""
    if form.n in _REFERENCE_CHART_CACHE:
        return _REFERENCE_CHART_CACHE[form.n]
    from .qcore import reference_triple

    a, b, c = boundary_points(form, reference_triple(form))
    base = minkowski_chart(form, a, b)
    w = minkowski_chart_inverse(form, base, c)
    qw = q1n(w)
    if qw <= 0:
        raise GeometryError("reference chart corner is not spacelike")
    lam = np.sqrt(qw) / 2.0
    # conformal linear map sending e1 to w/2, completed by Gram-Schmidt
    signs = _q1n_signs(base.n)
    cols = [w / np.sqrt(qw)]
    for k in range(1, base.n + 1):
        cand = np.zeros(base.n + 1)
        cand[k] = 1.0
        for col in cols:
            cand -= (np.dot(signs * cand, col) / np.dot(signs * col, col)) * col
        nc = np.dot(signs * cand, cand)
        cand = cand / np.sqrt(abs(nc))
        cols.append(cand)
    R = np.column_stack(cols)
    L = lam * R
    p = w / 2.0
    chart = MinkowskiChart(base.a0, base.b0, base.fbasis, L, p)
    _REFERENCE_CHART_CACHE[form.n] = chart
    return chart


def tau_chart(form: BilinearForm, triple) -> MinkowskiChart:
    """The chart for a positive triple (a, b, c) of boundary representatives:
    a Minkowski chart for a sending (-1, 0, ..., 0) to b and (1, 0, ..., 0)
    to c. The O(n) ambiguity is resolved by the deterministic reference
    construction."""
    g = standardize_triple(triple, form)
    ref = _reference_tau_chart(form)
    ginv = np.linalg.inv(g.matrix)
    return MinkowskiChart(ginv @ ref.a0, ginv @ ref.b0, ref.fbasis @ ginv.T, ref.L, ref.p)


# ---------------------------------------------------------------------------
# Diamonds


def in_closed_diamond(form: BilinearForm, chart: MinkowskiChart, x, tol: float = 1e-9) -> bool:
    """Membership of the boundary point x in the closure of the diamond of
    (b, c) not containing a, tested by first-coordinate ordering in `chart`,
    the tau-chart of (a, b, c)."""
    try:
        u = minkowski_chart_inverse(form, chart, x)
    except ChartDomainError:
        return False
    e1 = np.zeros(chart.n + 1)
    e1[0] = 1.0
    lo = u + e1
    hi = e1 - u
    return bool(q1n(lo) >= -tol and lo[0] >= -tol and q1n(hi) >= -tol and hi[0] >= -tol)


# ---------------------------------------------------------------------------
# Loops


def _circle_dist_matrix(thetas: np.ndarray) -> np.ndarray:
    """The circle distance between every pair of the angles, as one matrix."""
    d = np.abs(thetas[:, None] - thetas[None, :]) % (2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


@dataclass
class LipschitzLoop:
    """A semi-positive loop sampled as the graph of a 1-Lipschitz map from
    the circle to the fiber sphere."""

    thetas: np.ndarray
    fibers: np.ndarray
    c1: bool = False

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float) % (2.0 * np.pi)
        fibers = np.asarray(self.fibers, dtype=float)
        order = np.argsort(thetas)
        thetas = thetas[order]
        fibers = fibers[order]
        # the first sample is always kept, and an empty loop keeps nothing
        keep = np.diff(thetas, prepend=-np.inf) > 1e-12
        self.thetas = thetas[keep]
        self.fibers = fibers[keep]
        if len(self.thetas) < 3:
            raise InvalidLoopError("a loop needs at least three distinct samples")
        norms = np.linalg.norm(self.fibers, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise InvalidLoopError("fiber samples must lie on the unit sphere")

    @property
    def n(self) -> int:
        return self.fibers.shape[1] - 1

    @property
    def size(self) -> int:
        return len(self.thetas)

    @property
    def lipschitz_margin(self) -> float:
        """Minimum of circle-distance minus fiber-distance over consecutive
        sample pairs; positive for strictly contracting data."""
        d = np.abs(self.thetas - np.roll(self.thetas, -1)) % (2.0 * np.pi)
        dots = np.sum(self.fibers * np.roll(self.fibers, -1, axis=0), axis=1)
        gaps = np.minimum(d, 2.0 * np.pi - d) - np.arccos(np.clip(dots, -1.0, 1.0))
        return float(np.min(gaps))

    def fibers_at(self, thetas) -> np.ndarray:
        """The fiber at one angle (n+1,) or at a stack of angles (k, n+1):
        geodesic interpolation between the bracketing samples, or their
        renormalised chord where the two fibers are within 1e-12 rad."""
        theta = np.asarray(thetas, dtype=float) % (2.0 * np.pi)
        k = self.size
        idx = np.searchsorted(self.thetas, theta)
        i, j = (idx - 1) % k, idx % k
        ti = self.thetas[i]
        gap = (self.thetas[j] - ti) % (2.0 * np.pi)
        same = gap < 1e-12
        t = (((theta - ti) % (2.0 * np.pi)) / np.where(same, 1.0, gap))[..., None]
        f, g = self.fibers[i], self.fibers[j]
        ang = np.arccos(np.clip(dot_rows(f, g), -1.0, 1.0))[..., None]
        near = ang < 1e-12
        chord = (1.0 - t) * f + t * g
        chord = chord / norm_rows(chord)[..., None]
        arc = (np.sin((1.0 - t) * ang) * f + np.sin(t * ang) * g) / np.sin(np.where(near, 1.0, ang))
        return np.where(same[..., None], f, np.where(near, chord, arc))

    def boundary_points(self, thetas) -> np.ndarray:
        """The loop's boundary points at one angle or at a stack of angles."""
        return graph_points(thetas, self.fibers_at(thetas))


def loop_classify(loop: LipschitzLoop) -> str:
    """'positive' when strictly contracting on all sampled pairs,
    'semipositive' when 1-Lipschitz within LIPSCHITZ_TOL but not a sampled
    isometry, 'invalid' otherwise."""
    dots = np.clip(loop.fibers @ loop.fibers.T, -1.0, 1.0)
    iu = np.triu_indices(loop.size, 1)
    gaps = _circle_dist_matrix(loop.thetas)[iu] - np.arccos(dots)[iu]
    if np.all(gaps > LIPSCHITZ_TOL):
        return "positive"
    if np.all(gaps >= -LIPSCHITZ_TOL):
        if np.all(np.abs(gaps) <= LIPSCHITZ_TOL):
            return "invalid"  # a sampled global isometry traces a photon
        return "semipositive"
    return "invalid"


def photon_arc(loop: LipschitzLoop) -> list[tuple[int, int]]:
    """Maximal sample-index arcs on which the loop is sampled-rigid (fiber
    distance matches circle distance on every pair within the arc). Arcs are
    returned as (start, end) index pairs, inclusive, cyclic; arcs with empty
    interior are dropped."""
    k = loop.size
    dots = np.clip(loop.fibers @ loop.fibers.T, -1.0, 1.0)
    rigid = np.arccos(dots) >= _circle_dist_matrix(loop.thetas) - LIPSCHITZ_TOL
    # a window is rigid when every pair is, read in both orders
    rigid = rigid & rigid.T
    # A rigid window grows by one sample exactly when the new sample is
    # rigid against every sample of the window, a prefix of its row read
    # backwards: back[r] is the longest t with rigid[r, r - 1 .. r - t].
    offsets = np.arange(k)
    rows = np.arange(k)[:, None]
    behind = rigid[rows, (rows - offsets) % k]
    back = np.logical_and.accumulate(behind, axis=1).sum(axis=1) - 1
    # the longest rigid window starting at each sample, capped at k - 1
    # steps: the window from i reaches i + t while back[i + t] >= t
    steps = offsets[1:]
    grows = back[(rows + steps) % k] >= steps
    best = np.logical_and.accumulate(grows, axis=1).sum(axis=1)
    arcs = []
    for i in range(k):
        if best[i] == 0:
            continue
        prev = (i - 1) % k
        # maximal iff not contained in the window of the previous start
        if best[prev] >= best[i] + 1:
            continue
        arcs.append((i, (i + best[i]) % k))
    return arcs


# ---------------------------------------------------------------------------
# Barbot crowns


@dataclass(frozen=True)
class BarbotCrown:
    """Four cyclically ordered vertices joined by photon segments, with
    representatives normalised to pair to 0 consecutively and -1/4 across."""

    zreps: np.ndarray  # 4 x (n+3)

    @property
    def n(self) -> int:
        return self.zreps.shape[1] - 3


def validate_crown(form: BilinearForm, crown: BarbotCrown, atol: float = 1e-10) -> None:
    z = crown.zreps
    for i in range(4):
        if abs(form.q(z[i])) > atol:
            raise DegenerateCrownError("crown representative is not isotropic")
        if abs(form.inner(z[i], z[(i + 1) % 4])) > atol:
            raise DegenerateCrownError("consecutive crown vertices must pair to zero")
    for i in range(2):
        if abs(form.inner(z[i], z[i + 2]) + 0.25) > atol:
            raise DegenerateCrownError("diagonal crown pairing must equal -1/4")
    if subspace_signature(form, z) != (2, 2, 0):
        raise DegenerateCrownError("crown span must have signature (2, 2)")


def barbot_crown_standard(n: int) -> BarbotCrown:
    """The model crown with vertices on the coordinate photons."""
    if n < 1:
        raise DegenerateCrownError("a crown needs n >= 1")
    s = 1.0 / (2.0 * np.sqrt(2.0))
    z = np.zeros((4, n + 3))
    z[0, 0], z[0, 2] = s, s
    z[1, 1], z[1, 3] = s, s
    z[2, 0], z[2, 2] = -s, s
    z[3, 1], z[3, 3] = -s, s
    crown = BarbotCrown(z)
    validate_crown(BilinearForm(n), crown)
    return crown


def crown_from_corners(form: BilinearForm, corners) -> BarbotCrown:
    """Build a crown from four cyclically ordered vertex representatives on
    consecutive photons, fixing the diagonal gauge symmetrically."""
    w = np.array(corners, dtype=float)
    if form.inner(w[0], w[2]) > 0:
        w[2] = -w[2]
    if form.inner(w[1], w[3]) > 0:
        w[3] = -w[3]
    p02 = form.inner(w[0], w[2])
    p13 = form.inner(w[1], w[3])
    if p02 >= 0 or p13 >= 0:
        raise DegenerateCrownError("diagonal pairs must be transverse")
    c0 = (-0.25 / p02) ** 0.5
    c1 = (-0.25 / p13) ** 0.5
    z = np.array([c0 * w[0], c1 * w[1], c0 * w[2], c1 * w[3]])
    crown = BarbotCrown(z)
    validate_crown(form, crown, atol=1e-8)
    return crown


def crown_loop(crown: BarbotCrown, samples_per_edge: int = 24) -> LipschitzLoop:
    """Sample the crown as a loop graph: each edge is the positive span of
    two consecutive vertex representatives, which keeps the edge's lift
    continuous (no sign rule). The four edges are one (4, samples) grid."""
    z = crown.zreps
    t = np.linspace(0.0, 1.0, samples_per_edge, endpoint=False) * np.pi / 2.0
    vec = (np.cos(t)[:, None] * z[:, None, :]
           + np.sin(t)[:, None] * np.roll(z, -1, axis=0)[:, None, :]).reshape(-1, z.shape[1])
    nu = np.linalg.norm(vec[:, :2], axis=1)
    nv = np.linalg.norm(vec[:, 2:], axis=1, keepdims=True)
    thetas = np.arctan2(vec[:, 1] / nu, vec[:, 0] / nu) % (2.0 * np.pi)
    return LipschitzLoop(thetas, vec[:, 2:] / nv, c1=False)


def crown_seeded_from_arc(form: BilinearForm, loop: LipschitzLoop) -> BarbotCrown:
    """Seed a crown from the extremities of a photon arc of a semi-positive
    loop, completing the two remaining vertices by a Witt-style construction."""
    arcs = photon_arc(loop)
    if not arcs:
        raise InvalidLoopError("loop has no photon arc; nothing to seed a crown from")
    if len(arcs) == 4:
        corners = [a[0] for a in arcs]
        return crown_from_corners(form, graph_points(loop.thetas[corners], loop.fibers[corners]))
    ends = list(arcs[0])
    w1, w2 = graph_points(loop.thetas[ends], loop.fibers[ends])

    def witt_partner(w, others):
        # an isotropic vector pairing nontrivially with w and to zero with
        # each of `others`; requires w itself q-orthogonal to the others,
        # which holds along the photon quadrilateral being completed
        A = np.array([form.signs * o for o in others])
        _, sv, vh = np.linalg.svd(A)
        rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0)))
        null = vh[rank:]
        for m in null:
            pw = form.inner(w, m)
            if abs(pw) > 1e-6:
                return m - (form.q(m) / (2.0 * pw)) * w
        raise DegenerateCrownError("failed to complete the crown seed")

    y1 = witt_partner(w1, [w2])
    y2 = witt_partner(w2, [w1, y1])
    return crown_from_corners(form, [w1, w2, y1, y2])


# ---------------------------------------------------------------------------
# Loop file format


LOOP_HEADER = "einstein-loop v1"


def loop_save(loop: LipschitzLoop, path) -> None:
    with open(path, "w") as fh:
        fh.write(loop_dumps(loop))


def loop_dumps(loop: LipschitzLoop) -> str:
    header = f"{LOOP_HEADER} n={loop.n} samples={loop.size}{' c1=1' if loop.c1 else ''}\n"
    fmt = "{!r}" + " {!r}" * (loop.n + 1) + "\n"
    return header + "".join(map(fmt.format, loop.thetas.tolist(), *loop.fibers.T.tolist()))


def loop_load(path) -> LipschitzLoop:
    with open(path) as fh:
        return loop_loads(fh.read())


def loop_loads(text: str) -> LipschitzLoop:
    """Parse a loop file; a malformed one raises InvalidLoopError."""
    try:
        return _parse_loop(text)
    except GeometryError:
        raise
    except (ValueError, KeyError) as exc:
        raise InvalidLoopError(f"malformed loop file: {exc}") from exc


def _read_table(text: str, header: str, row: str, error: type, shape) -> tuple[dict, np.ndarray]:
    """The header fields and the body of a `header key=value ...` file, the
    body as one float array. `shape(fields)` gives the number of body lines
    and of fields per line the header promises; both are checked against
    the file before anything is sized, so a corrupt header cannot ask for
    huge arrays. `row` is the messages' word for a body line, and every
    rejection raises `error`."""
    # one list of tokens per line that is not blank
    rows = [toks for toks in map(str.split, text.splitlines()) if toks]
    if not rows or rows[0][:2] != header.split():
        raise error(f"missing {header!r} header")
    fields = dict(tok.split("=") for tok in rows.pop(0)[2:])
    count, width = shape(fields)
    if len(rows) != count:
        raise error(f"header promises {count} {row} lines, file has {len(rows)}")
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=count)
    bad = np.flatnonzero(widths != width)
    if bad.size:
        raise error(f"{row} line {bad[0]} has {widths[bad[0]]} fields, expected {width}")
    return fields, np.array(rows, dtype=float).reshape(count, width)


def _parse_loop(text: str) -> LipschitzLoop:
    fields, body = _read_table(text, LOOP_HEADER, "sample", InvalidLoopError,
                               lambda f: (int(f["samples"]), int(f["n"]) + 2))
    bad = np.flatnonzero(~np.all(np.isfinite(body), axis=1))
    if bad.size:
        raise InvalidLoopError(f"sample line {bad[0]} has a non-finite value")
    fibers = body[:, 1:]
    # a huge finite coordinate overflows the norm to inf, which the check
    # below rejects
    with np.errstate(over="ignore"):
        norms = norm_rows(fibers)
    off = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
    if off.size:
        raise InvalidLoopError(f"sample {off[0]} is off the unit sphere by "
                               f"{abs(norms[off[0]] - 1.0):.2e}")
    return LipschitzLoop(body[:, 0], fibers / norms[:, None], c1=fields.get("c1", "0") == "1")
