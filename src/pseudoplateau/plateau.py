"""Discrete solver for the asymptotic Plateau problem.

A polar disk mesh carries vertex positions on the q = -1 quadric; the
boundary ring holds loop-derived Dirichlet data and the interior relaxes
under a damped flow of the discrete maximality defect. On the quadric a
maximal surface satisfies Delta x = 2x, so the residual is the component
of the cotangent-Laplacian defect orthogonal to the position and to the
tangent plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .qcore import BilinearForm, GeometryError
from .einstein import (
    BarbotCrown,
    InvalidLoopError,
    LipschitzLoop,
    _read_table,
    crown_from_corners,
    graph_points,
    loop_classify,
    photon_arc,
)
from .hspace import barbot_surface_point, cylinder_point


class SolverError(GeometryError):
    pass


class FaceError(GeometryError):
    pass


STAR_WIDTH = 8

# The largest mesh `build_state` accepts, in vertices (1 + rings * sectors).
MAX_VERTICES = 200_000

# The number of past steps that `plateau_solve` mixes into each new one. A
# depth of 2 takes the 24x72 crown 17 steps, against 14 at depth 4.
ANDERSON_DEPTH = 4

# The default tolerance of `plateau_solve`, and the largest residual a state
# file marked converged may have: the audit CLI recomputes it on load.
STATE_RESIDUAL_MAX = 1e-6


@dataclass(frozen=True)
class StencilTable:
    """Per-vertex index arrays of a `DiskMesh`.

    `ring` is the ring of every vertex (the center's is 0). `star` holds
    the balanced star of every interior vertex in cyclic order, padded to
    STAR_WIDTH with the vertex itself; `mask` marks the real entries and
    `nxt` the slot of each entry's cyclic successor (a padding slot is its
    own successor). Rim vertices have an empty star.
    """

    ring: np.ndarray
    star: np.ndarray
    mask: np.ndarray
    nxt: np.ndarray


@dataclass(frozen=True)
class DiskMesh:
    """Polar triangulation of a disk: a center vertex, `rings` concentric
    rings of `sectors` vertices, quads between rings split into triangles."""

    rings: int
    sectors: int
    radius: float
    faces: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.rings < 2 or self.sectors < 3:
            raise GeometryError("mesh needs at least two rings and three sectors")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise GeometryError(f"mesh radius must be finite and positive, got {self.radius!r}")
        m, s = self.rings, self.sectors
        # the center fan, then per quad (ring i-1 to i, sector j to j+1) the
        # triangles (v00, v10, v11) and (v00, v11, v01), ring by ring
        v = self.vertex(1, 0) + np.arange(m * s, dtype=np.int64).reshape(m, s)
        lo, hi = v[:-1], v[1:]
        lo1, hi1 = np.roll(lo, -1, axis=1), np.roll(hi, -1, axis=1)
        fan = np.column_stack([np.zeros(s, dtype=np.int64), v[0], np.roll(v[0], -1)])
        quads = np.stack([np.stack([lo, hi, hi1], axis=-1), np.stack([lo, hi1, lo1], axis=-1)],
                         axis=2)
        object.__setattr__(self, "faces", np.vstack([fan, quads.reshape(-1, 3)]))

    @property
    def vertex_count(self) -> int:
        return 1 + self.rings * self.sectors

    def vertex(self, i: int, j: int) -> int:
        if i == 0:
            return 0
        return 1 + (i - 1) * self.sectors + (j % self.sectors)

    def ring_of(self) -> np.ndarray:
        return np.concatenate([[0], np.repeat(np.arange(1, self.rings + 1), self.sectors)])

    def sector_of(self) -> np.ndarray:
        return np.concatenate([[0], np.tile(np.arange(self.sectors), self.rings)])

    def polar_grid(self):
        """Radii and angles of every vertex (center first)."""
        m, s = self.rings, self.sectors
        r = np.concatenate([[0.0], np.repeat(self.radius * np.arange(1, m + 1) / m, s)])
        th = np.concatenate([[0.0], np.tile(2.0 * np.pi * np.arange(s) / s, m)])
        return r, th

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.vertex_count, dtype=bool)
        base = self.vertex(self.rings, 0)
        mask[base: base + self.sectors] = True
        return mask

    def interior_mask(self, exclude_rings: int = 0) -> np.ndarray:
        """Vertices at least `exclude_rings` rings away from the boundary."""
        ring = self.ring_of()
        return ring <= self.rings - 1 - exclude_rings

    @cached_property
    def tangent_diffs(self) -> np.ndarray:
        """The endpoints of the two difference directions of
        `tangent_frames`, one row each for radial to, radial from, angular
        to and angular from: central, one-sided at the rim, and across the
        center along sectors 0 and s/4 at the center itself. Kept apart from
        `stencil`, which the solver does not need."""
        m, s = self.rings, self.sectors
        v = self.vertex(1, 0) + np.arange(m * s).reshape(m, s)
        rings = np.stack([np.vstack([v[1:], v[-1:]]), np.vstack([np.zeros((1, s), int), v[:-1]]),
                          np.roll(v, -1, axis=1), np.roll(v, 1, axis=1)]).reshape(4, -1)
        center = [[self.vertex(1, 0)], [self.vertex(1, s // 2)],
                  [self.vertex(1, s // 4)], [self.vertex(1, (3 * s) // 4)]]
        return np.hstack([center, rings])

    @cached_property
    def cotan_pattern(self):
        """The fixed sparsity of `_cotan_matrix`: the sorted CSR `indices`
        and `indptr` of the six corner-pair entries of every face, the CSR
        slot of each entry (ordered as `_cotan_matrix` lists the weights),
        and the face corners, first corners then second then third."""
        f = self.faces
        nv = self.vertex_count
        rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0], f[:, 2], f[:, 0], f[:, 1]])
        cols = np.concatenate([f[:, 2], f[:, 1], f[:, 2], f[:, 0], f[:, 1], f[:, 0]])
        keys, slot = np.unique(rows * nv + cols, return_inverse=True)
        indices = (keys % nv).astype(np.int32)
        indptr = np.searchsorted(keys, nv * np.arange(nv + 1)).astype(np.int32)
        return indices, indptr, slot, f.T.ravel()

    @cached_property
    def stencil(self) -> StencilTable:
        """The stencil table, built on first use and kept with the mesh.

        The balanced star of a vertex is a cyclically ordered stencil whose
        legs have comparable radial and angular extent. The raw polar star
        is badly anisotropic near the center (aspect ratio s/2pi independent
        of m), which leaves a non-vanishing bias in angle-defect estimates;
        the balanced star subsamples the ring to restore second-order
        accuracy.
        """
        m, s = self.rings, self.sectors
        nv = self.vertex_count
        star = np.repeat(np.arange(nv)[:, None], STAR_WIDTH, axis=1)
        length = np.zeros(nv, dtype=np.int64)
        stride = max(1, round(s / 6))
        center = [self.vertex(1, k * stride) for k in range(s // stride)]
        star[0, :len(center)] = center
        length[0] = len(center)
        js = np.arange(s)
        for i in range(1, m):
            sigma = int(np.clip(round(s / (2.0 * np.pi * i)), 1, s // 4))
            raw = [
                (i + 1, 0), (i + 1, sigma), (i, sigma), (i - 1, sigma),
                (i - 1, 0), (i - 1, -sigma), (i, -sigma), (i + 1, -sigma),
            ]
            # which legs coincide does not depend on the sector, so sector 0
            # decides which legs every vertex of the ring keeps
            legs, ids = [], []
            for (a, o) in raw:
                v = self.vertex(a, o)
                if not ids or (v != ids[-1] and v != ids[0]):
                    legs.append((a, o))
                    ids.append(v)
            rows = self.vertex(i, 0) + js
            for k, (a, o) in enumerate(legs):
                star[rows, k] = 0 if a == 0 else self.vertex(a, 0) + (js + o) % s
            length[rows] = len(legs)
        slot = np.arange(STAR_WIDTH)
        mask = slot < length[:, None]
        nxt = np.where(mask, (slot + 1) % np.maximum(length, 1)[:, None], slot)
        return StencilTable(ring=self.ring_of(), star=star, mask=mask, nxt=nxt)


@dataclass
class SurfaceState:
    mesh: DiskMesh
    positions: np.ndarray
    form: BilinearForm
    loop: LipschitzLoop | None = None
    converged: bool = False
    iterations: int = 0
    final_residual: float = float("nan")
    residual_history: list = field(default_factory=list)
    dt_summary: dict = field(default_factory=dict)
    # (positions, {name: value}) of the values `derived` computed from them
    _derived: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def derived(self, name: str, compute):
        """`compute(self)`, kept under `name` and returned again while the
        positions are unchanged; a moved vertex drops every kept value."""
        if self._derived is None or not np.array_equal(self._derived[0], self.positions):
            self._derived = (self.positions.copy(), {})
        values = self._derived[1]
        if name not in values:
            values[name] = compute(self)
        return values[name]

    def copy(self) -> "SurfaceState":
        """A copy with its own positions and records, and no kept values."""
        return replace(self, positions=self.positions.copy(),
                       residual_history=list(self.residual_history),
                       dt_summary=dict(self.dt_summary))


def face_grams(form: BilinearForm, X: np.ndarray, faces: np.ndarray):
    """Per-face induced metric entries (a, b, c) and Gram determinant."""
    X0 = np.take(X, faces[:, 0], axis=0)
    E1 = np.take(X, faces[:, 1], axis=0) - X0
    E2 = np.take(X, faces[:, 2], axis=0) - X0
    a = form.inner_rows(E1, E1)
    b = form.inner_rows(E1, E2)
    c = form.inner_rows(E2, E2)
    return a, b, c, a * c - b * b


def _spacelike(grams) -> np.ndarray:
    """Which faces of the `face_grams` entries have a positive definite Gram matrix."""
    return (grams[0] > 0.0) & (grams[3] > 0.0)


def faces_spacelike(form: BilinearForm, X: np.ndarray, faces: np.ndarray):
    good = _spacelike(face_grams(form, X, faces))
    return bool(np.all(good)), good


def _cotan_matrix(grams, mesh: DiskMesh):
    """Cotangent weight matrix, its row sums, and barycentric vertex areas,
    from the face Gram entries of `face_grams`, filled into the mesh's
    `cotan_pattern`. An off-diagonal entry sums at most two face terms, so
    the order of the sums does not change a bit of the result."""
    a, b, c, det = grams
    good = _spacelike(grams)
    if not np.all(good):
        raise FaceError(f"face {int(np.argmin(good))} is not spacelike")
    s = np.sqrt(det)
    area = 0.5 * s
    cot0 = b / s
    cot1 = (a - b) / s
    cot2 = (c - b) / s
    nv = mesh.vertex_count
    indices, indptr, slot, corners = mesh.cotan_pattern
    w = 0.5 * np.concatenate([cot0, cot0, cot1, cot1, cot2, cot2])
    W = sp.csr_matrix((np.bincount(slot, weights=w), indices, indptr), shape=(nv, nv))
    deg = np.asarray(W.sum(axis=1)).ravel()
    omega = np.bincount(corners, weights=np.tile(area / 3.0, 3), minlength=nv)
    return W, deg, omega


def tangent_frames(form: BilinearForm, X: np.ndarray, mesh: DiskMesh):
    """Structured per-vertex orthonormal tangent frames from central (or
    one-sided at the rim) difference directions."""
    ta_to, ta_from, tb_to, tb_from = mesh.tangent_diffs
    ta = np.take(X, ta_to, axis=0) - np.take(X, ta_from, axis=0)
    tb = np.take(X, tb_to, axis=0) - np.take(X, tb_from, axis=0)

    def project_tangent(t):
        coeff = form.inner_rows(t, X)
        return t + coeff[:, None] * X

    ta = project_tangent(ta)
    tb = project_tangent(tb)
    qa = form.inner_rows(ta, ta)
    if np.any(qa <= 0):
        raise FaceError("degenerate tangent direction (non-spacelike)")
    e1 = ta / np.sqrt(qa)[:, None]
    tb = tb - form.inner_rows(tb, e1)[:, None] * e1
    qb = form.inner_rows(tb, tb)
    if np.any(qb <= 0):
        raise FaceError("degenerate tangent plane (non-spacelike)")
    e2 = tb / np.sqrt(qb)[:, None]
    return e1, e2


def mean_curvature_residual(state: SurfaceState) -> np.ndarray:
    """Per-vertex normal defect of Delta x = 2x; zero rows on the pinned
    boundary ring, whose one-sided Laplacian carries no information."""
    X = state.positions
    return _residual(state.form, X, state.mesh, face_grams(state.form, X, state.mesh.faces))[0]


def _residual(form: BilinearForm, X: np.ndarray, mesh: DiskMesh, grams):
    """The residual of `mean_curvature_residual` from the face Gram entries
    of X, with the cotangent assembly (W, deg, omega) it was computed from."""
    W, deg, omega = _cotan_matrix(grams, mesh)
    d = (W @ X - deg[:, None] * X) / omega[:, None] - 2.0 * X
    e1, e2 = tangent_frames(form, X, mesh)
    rho = (
        d
        + form.inner_rows(d, X)[:, None] * X
        - form.inner_rows(d, e1)[:, None] * e1
        - form.inner_rows(d, e2)[:, None] * e2
    )
    rho[mesh.boundary_mask()] = 0.0
    return rho, (W, deg, omega)


# ---------------------------------------------------------------------------
# State construction


def _mean_fiber(loop: LipschitzLoop) -> np.ndarray:
    mean = loop.fibers.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-6:
        raise InvalidLoopError("loop fibers have no well-defined mean direction")
    return mean / norm


def _barbot_ring_params(crown: BarbotCrown, r: np.ndarray, theta: np.ndarray):
    """Orbit parameters (s, t) of the crown surface points with the given
    cylinder coordinates, by Newton from the standard-crown closed form.
    The Newton runs in lock step over the points, and each point stops once
    its residual is below 1e-13, or 8 ulps of its target where rounding
    cannot reach 1e-13."""
    z = crown.zreps
    target = np.sinh(r)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    stop = np.maximum(1e-13, 8.0 * np.finfo(float).eps * np.max(np.abs(target), axis=1))
    sr = np.sqrt(2.0) * np.sinh(r)
    st = np.column_stack([np.arcsinh(sr * np.cos(theta)), np.arcsinh(sr * np.sin(theta))])
    todo = np.arange(len(st))
    for _ in range(60):
        es, et = np.exp(st[todo, :1]), np.exp(st[todo, 1:])
        u = es * z[0, :2] + et * z[1, :2] + z[2, :2] / es + z[3, :2] / et
        F = u - target[todo]
        # a NaN residual stays live, so it ends in the budget's error
        live = ~(np.max(np.abs(F), axis=1) < stop[todo])
        if not np.any(live):
            break
        todo, es, et, F = todo[live], es[live], et[live], F[live]
        J = np.stack([es * z[0, :2] - z[2, :2] / es, et * z[1, :2] - z[3, :2] / et], axis=-1)
        try:
            step = np.linalg.solve(J, F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError("crown ring parametrisation is singular") from exc
        st[todo] = st[todo] - step
    else:
        raise SolverError("crown ring parametrisation did not converge")
    return st[:, 0], st[:, 1]


def _detect_tiling_crown(form: BilinearForm, loop: LipschitzLoop):
    """The crown traced by the loop itself, when its photon arcs tile the
    circle with four corners; None otherwise."""
    if loop_classify(loop) != "semipositive":
        return None
    arcs = photon_arc(loop)
    if len(arcs) != 4:
        return None
    starts = sorted(a[0] for a in arcs)
    ends = sorted(a[1] for a in arcs)
    if starts != ends:
        return None
    corners = [a[0] for a in arcs]
    try:
        return crown_from_corners(form, graph_points(loop.thetas[corners], loop.fibers[corners]))
    except GeometryError:
        return None


def build_state(loop: LipschitzLoop, m: int, s: int, R: float) -> SurfaceState:
    """Initial state over the polar mesh: the boundary ring pins the
    loop's finite-radius Dirichlet data and interior fibers taper from the
    mean fiber toward the boundary fiber along each ray.

    When the loop itself traces a photon quadrilateral, the Dirichlet data
    is placed on the exact flat orbit surface through that quadrilateral,
    so the solve is comparable vertex-by-vertex with the closed form.
    Otherwise the rim ring is checked first: a loop whose Lipschitz
    constant reaches tanh R has rim edges that are not spacelike, and is
    rejected with InvalidLoopError.
    """
    if m < 8:
        raise GeometryError("need at least eight rings")
    if s < 3 * m:
        raise GeometryError("need at least three sectors per ring")
    if 1 + m * s > MAX_VERTICES:
        raise GeometryError(f"a mesh of {m} rings and {s} sectors has more than "
                            f"{MAX_VERTICES} vertices")
    cls = loop_classify(loop)
    if cls == "invalid":
        raise InvalidLoopError("loop is neither positive nor semi-positive")
    form = BilinearForm(loop.n)
    mesh = DiskMesh(m, s, R)
    crown = _detect_tiling_crown(form, loop)
    thetas = 2.0 * np.pi * np.arange(s) / s
    X = np.zeros((mesh.vertex_count, form.dim))
    # the face check multiplies four chords of up to 2 cosh R, which overflow past R = log(max
    # float) / 4: there the zero start stays, fails that check, and the disk names the mesh
    placed = 4.0 * R < np.log(np.finfo(float).max)
    # the crown's ring parametrisation stops converging near R = 40, where no mesh passes the
    # disk test: there too the zero start stays, and the face check names the mesh
    sectors = np.arange(s, (MAX_VERTICES - 1) // m + 1)
    if placed and crown is not None and _disk_faces_spacelike(m, sectors, R).any():
        # a photon quadrilateral: its flat orbit surface carries the rim
        # within a vanishing margin of the null bound, so no inward taper of
        # the rim profile stays spacelike. Pin the exact orbit ring, seed the
        # interior on the orbit surface, and push it off-surface by a fiber
        # rotation that dies at the rim, so the solve still has to contract
        # back onto the surface.
        r_all, _ = mesh.polar_grid()
        base = barbot_state(form, crown, m, s, R).positions
        bmask = mesh.boundary_mask()
        eps = 0.05
        while True:
            X = base.copy()
            ang = eps * np.sin(np.pi * r_all / R)
            ang[bmask] = 0.0
            ca, sa = np.cos(ang), np.sin(ang)
            f0, f1 = X[:, 2].copy(), X[:, 3].copy()
            X[:, 2] = ca * f0 - sa * f1
            X[:, 3] = sa * f0 + ca * f1
            if faces_spacelike(form, X, mesh.faces)[0]:
                break
            eps *= 0.5
            if eps < 1e-4:
                X = base.copy()
                break
    elif placed and crown is None:
        # the points sinh(r) (cos t, sin t, 0) + cosh(r) (0, 0, v) of
        # `cylinder_point`, one array per ring
        grid = X[1:].reshape(m, s, form.dim)
        rim = np.cosh(R) * loop.fibers_at(thetas)
        grid[-1, :, 0] = np.sinh(R) * np.cos(thetas)
        grid[-1, :, 1] = np.sinh(R) * np.sin(thetas)
        grid[-1, :, 2:] = rim
        # q(edge) = sinh^2 R |circle chord|^2 - cosh^2 R |fiber chord|^2, so a
        # rim edge is spacelike only where the fiber chord is below tanh R
        # times the circle chord, whatever the interior does
        edges = np.roll(grid[-1], -1, axis=0) - grid[-1]
        timelike = int(np.sum(~(form.inner_rows(edges, edges) > 0.0)))
        if timelike:
            raise InvalidLoopError(
                f"{timelike} of {s} rim edges at radius {R:g} are not spacelike: the loop's "
                f"Lipschitz constant reaches tanh R = {np.tanh(R):.6f}")
        vbar = _mean_fiber(loop)
        X[0] = cylinder_point(form, 0.0, 0.0, vbar)
        # taper each ray's fiber from vbar to the rim fiber by a slerp with
        # slope below 1/cosh(r), which keeps the rays spacelike for strictly
        # contracting boundary data
        r = R * np.arange(1, m) / m
        frac = (np.tanh(r) / np.tanh(R))[:, None, None]
        g = rim / np.linalg.norm(rim, axis=1)[:, None]
        ang = np.arccos(np.clip(g @ vbar, -1.0, 1.0))[:, None]
        near = ang < 1e-12
        sin_ang = np.sin(np.where(near, 1.0, ang))
        arc = (np.sin((1.0 - frac) * ang) * vbar + np.sin(frac * ang) * g) / sin_ang
        chord = (1.0 - frac) * vbar + frac * g
        chord /= np.linalg.norm(chord, axis=-1, keepdims=True)
        grid[:-1, :, 0] = np.outer(np.sinh(r), np.cos(thetas))
        grid[:-1, :, 1] = np.outer(np.sinh(r), np.sin(thetas))
        grid[:-1, :, 2:] = np.cosh(r)[:, None, None] * np.where(near, chord, arc)
    ok, good = faces_spacelike(form, X, mesh.faces)
    if not ok:
        # a mesh too coarse for its radius fails on the geodesic disk itself
        disk = _disk_faces_spacelike(m, sectors, R)
        if not disk[0]:
            need = (f"below {sectors[np.argmax(disk)]} sectors" if disk.any() else
                    f"at any sector count within {MAX_VERTICES} vertices")
            raise FaceError(f"the mesh of {m} rings and {s} sectors is too coarse at radius {R:g}: "
                            f"even the geodesic disk has faces that are not spacelike {need}")
        raise FaceError(f"initial face {int(np.argmin(good))} is not spacelike")
    return SurfaceState(mesh=mesh, positions=X, form=form, loop=loop)


def _disk_faces_spacelike(m: int, sectors: np.ndarray, R: float) -> np.ndarray:
    """Whether every face of the geodesic disk on m rings at radius R is
    spacelike, per sector count. Points d apart on the disk are 2 sinh(d/2)
    apart in the ambient form, and a face is spacelike exactly when these
    chords meet the strict triangle inequality. Chords past the float range are
    inf or NaN and fail, rightly: no mesh within MAX_VERTICES passes past R = 10.4."""
    with np.errstate(over="ignore", invalid="ignore"):
        r, half = R * np.arange(m + 1) / m, np.pi / sectors[:, None]
        # 2 sinh(d/2) from cosh d = cosh r1 cosh r2 - sinh r1 sinh r2 cos(2 half)
        radial = 2.0 * np.sinh(0.5 * R / m)
        ring = 2.0 * np.sinh(r) * np.sin(half)
        diagonal = np.sqrt(radial**2 + 4.0 * np.sinh(r[:-1]) * np.sinh(r[1:]) * np.sin(half) ** 2)
        # no diagonal is shorter than a radial side, so each face of a quad (the fan face at
        # ring 1) is spacelike when its ring side is within one radial side of the diagonal
        gaps = np.hstack([ring[:, 1:] - diagonal, ring[:, 1:-1] - diagonal[:, 1:]])
        return np.all(np.abs(gaps) < radial, axis=1)


def barbot_state(form: BilinearForm, crown: BarbotCrown, m: int, s: int, R: float) -> SurfaceState:
    """The analytically sampled flat orbit surface on the polar mesh."""
    mesh = DiskMesh(m, s, R)
    r, th = mesh.polar_grid()
    ss, tt = _barbot_ring_params(crown, r, th)
    X = barbot_surface_point(crown, ss[:, None], tt[:, None])
    return SurfaceState(
        mesh=mesh, positions=X, form=form, loop=None, converged=True, final_residual=0.0,
    )


# ---------------------------------------------------------------------------
# Solver


def _factor(A):
    """The SuperLU factor of the symmetric sparse matrix A, the one sparse
    factorisation of the package: columns ordered by minimum degree on
    A + A^T, diagonal pivots in symmetric mode, and relax=1 and
    panel_size=1, without relaxed supernodes and with one-column panels.
    With the same order and fill the defaults factored the flow operator
    (2,080,028 nonzeros at 96x288) in 75-78 ms against 54-55 ms, and in
    2.3-2.6 against 1.4-1.6 ms at 24x72, and the flattening's Jacobian at
    96x288 in 76-110 ms against 52-60 ms (2-core Xeon, scipy 1.17). splu is
    looked up when called, so a patched scipy.sparse.linalg.splu sees every
    factorisation."""
    return sp.linalg.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          relax=1, panel_size=1, options={"SymmetricMode": True})


def _flow_operator(assembly, idx: np.ndarray):
    """The `_factor` of the implicit flow operator A = L + 3 Omega on the
    free vertices `idx`, with the cotangent Laplacian L and the vertex areas
    Omega of `assembly`. L + 2 Omega is the Newton operator of the ambient
    equation Delta x = 2x (Pinkall and Polthier, Experiment. Math. 2, 1993);
    the one mass matrix more damps the step."""
    W, deg, omega = assembly
    A = (sp.diags(deg + 3.0 * omega) - W).tocsr()
    return _factor(A[idx][:, idx])


def _flow_step(X: np.ndarray, rho: np.ndarray, omega: np.ndarray, idx: np.ndarray,
               lu, t: float) -> np.ndarray:
    """The implicit step X + t A^-1 Omega rho of the residual flow on the
    free vertices `idx`, of length t, solving the factor `lu` of
    `_flow_operator` against Omega rho. The implicit step damps the stiff
    spatial modes that a single global explicit step cannot resolve on a
    graded polar mesh; its fixed points (rho = 0) are the same."""
    Xn = X.copy()
    Xn[idx] = np.take(X, idx, axis=0) + t * lu.solve(np.take(omega, idx)[:, None]
                                                     * np.take(rho, idx, axis=0))
    return Xn


def _onto_quadric(form: BilinearForm, Y: np.ndarray):
    """The rows of Y scaled onto q = -1, or None if a row is not timelike."""
    q = form.inner_rows(Y, Y)
    if not np.all(q < 0):
        return None
    return Y / np.sqrt(-q)[:, None]


def _trial(form: BilinearForm, mesh: DiskMesh, X: np.ndarray, rmax: float, tol: float):
    """The residual, cotangent assembly and largest residual norm of the
    trial positions X, or None if X is not a step the solver may take: the
    residual raises FaceError, as it does on a face that is not spacelike,
    or the largest residual is not finite or more than twice max(rmax,
    tol)."""
    try:
        rho, assembly = _residual(form, X, mesh, face_grams(form, X, mesh.faces))
    except FaceError:
        return None
    r = float(np.max(np.linalg.norm(rho, axis=1)))
    if not np.isfinite(r) or r > 2.0 * max(rmax, tol):
        return None
    return rho, assembly, r


def _anderson_mix(G: np.ndarray, F: np.ndarray, dG: list, dF: list) -> np.ndarray:
    """The Anderson-mixed iterate G - sum_j gamma_j dG_j, where gamma
    minimises |F - sum_j gamma_j dF_j| over the stored differences.

    The least-squares problem is solved on the Gram matrix of the dF_j, a
    matrix of the history's depth. Its entries are np.sum of products, which
    gives the same bits under every BLAS thread count; np.dot and np.vdot on
    vectors this long do not."""
    gram = np.array([[np.sum(a * b) for b in dF] for a in dF])
    rhs = np.array([np.sum(a * F) for a in dF])
    gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    mixed = G.copy()
    for g, d in zip(gamma, dG):
        mixed -= g * d
    return mixed


def plateau_solve(state: SurfaceState, tol: float = STATE_RESIDUAL_MAX,
                  max_iter: int = 20000) -> SurfaceState:
    """Damped implicit flow of the maximality defect on unpinned vertices,
    with the quadric normalisation re-imposed each step and the steps
    Anderson-mixed.

    The implicit operator A = L + 3 Omega of `_flow_operator` is factored
    once, when the first step runs: the Newton operator L + 2 Omega of the
    ambient equation Delta x = 2x plus one mass matrix, so the plain step
    is a damped Newton step with a frozen Jacobian. Each iteration takes
    the plain step G(X) = X + t A^-1 Omega rho scaled onto the quadric,
    mixes G with the differences of G and of F = G - X at the last
    ANDERSON_DEPTH accepted iterates (Walker and Ni, SIAM J. Numer. Anal.
    49, 2011), and checks the result with `_trial`. Every rejected step, a
    row that is not timelike or a trial that fails, is handled the same
    way: the step length t, at first 1, halves on the same factor and the
    history is cleared. t never grows back, and a t below 1e-8 raises
    SolverError; t is 2^-halvings, so the halvings are all the solve
    records of it. Convergence is judged on the residual of each new state.
    A tol that is not finite and positive, or a negative max_iter, raises
    GeometryError."""
    if not (np.isfinite(tol) and tol > 0):
        raise GeometryError(f"solver tolerance must be finite and positive, got {tol!r}")
    if max_iter < 0:
        raise GeometryError(f"iteration budget must not be negative, got {max_iter!r}")
    out = state.copy()
    form, mesh = out.form, out.mesh
    X = out.positions
    idx = np.flatnonzero(~mesh.boundary_mask())
    halvings = 0
    lu = None
    rho, assembly = _residual(form, X, mesh, face_grams(form, X, mesh.faces))
    rmax = float(np.max(np.linalg.norm(rho, axis=1)))
    hist = [rmax]
    # (G, F) at the last accepted iterate, and the stored differences
    last = None
    dG, dF = [], []
    it = 0
    converged = rmax < tol
    while it < max_iter and not converged:
        it += 1
        if lu is None:
            lu = _flow_operator(assembly, idx)
        Xnew = _onto_quadric(form, _flow_step(X, rho, assembly[2], idx, lu, 0.5 ** halvings))
        if Xnew is not None:
            G = np.take(Xnew, idx, axis=0)
            F = G - np.take(X, idx, axis=0)
            if last is not None:
                dG = (dG + [G - last[0]])[-ANDERSON_DEPTH:]
                dF = (dF + [F - last[1]])[-ANDERSON_DEPTH:]
            if dF:
                free = _onto_quadric(form, _anderson_mix(G, F, dG, dF))
                if free is None:
                    Xnew = None
                else:
                    Xnew[idx] = free
        step = None if Xnew is None else _trial(form, mesh, Xnew, rmax, tol)
        if step is None:
            halvings += 1
            last, dG, dF = None, [], []
            if 0.5 ** halvings < 1e-8:
                raise SolverError("step length collapsed below 1e-8 without a spacelike step")
            continue
        X = Xnew
        rho, assembly, rmax = step
        hist.append(rmax)
        last = (G, F)
        converged = rmax < tol
    out.positions = X
    out.converged = bool(converged)
    out.iterations = it
    out.final_residual = rmax
    stride = max(1, len(hist) // 200)
    out.residual_history = [float(h) for h in hist[::stride]]
    out.dt_summary = {"halvings": halvings}
    return out


# ---------------------------------------------------------------------------
# Discrete geometry


@dataclass
class DiscreteGeometry:
    K: np.ndarray
    ii_gauss: np.ndarray
    ii_fit: np.ndarray
    ii_frame: np.ndarray            # (nv, 2, 2, dim) fitted II tensors
    frames: tuple


def discrete_geometry(state: SurfaceState) -> DiscreteGeometry:
    """Per-vertex curvature and second-form data.

    K comes from the angle defect of ambient-geodesic edge lengths over a
    balanced vertex star; the squared norm of the second fundamental form
    is computed both by Gauss inversion 2(K+1) and by a direct
    least-squares fit of the normal-valued quadratic over the same star.

    The geometry is computed once per state: the result is kept on the
    state and returned again while its positions are unchanged.
    """
    return state.derived("geometry", _shared_geometry)


def _shared_geometry(state: SurfaceState) -> DiscreteGeometry:
    geo = _geometry_pass(state)
    # every caller gets this one result, so none may write to it
    for arr in [v for v in vars(geo).values() if isinstance(v, np.ndarray)] + list(geo.frames):
        arr.flags.writeable = False
    return geo


def _second_form_fit(form: BilinearForm, pts, x, f1, f2):
    """The tangent coordinates u1, u2 of the star legs `pts` of the vertices x in the frames
    (f1, f2), and the second forms (a11, a12, a22) fitted to the normal deviation by a batched
    QR of each star's 8 x 3 matrix and the triangular solve R sol = Q^T normal. Its temporaries
    are freed before the geometry pass reaches its peak memory."""
    d = pts - x
    d = d + form.inner_rows(d, x)[..., None] * x
    u1 = form.inner_rows(d, f1)
    u2 = form.inner_rows(d, f2)
    normal = d - (u1[..., None] * f1 + u2[..., None] * f2)
    Q, R = np.linalg.qr(0.5 * np.stack([u1 * u1, 2.0 * u1 * u2, u2 * u2], axis=-1))
    return u1, u2, np.linalg.solve(R, np.swapaxes(Q, 1, 2) @ normal)


def _geometry_pass(state: SurfaceState) -> DiscreteGeometry:
    """One batched pass over every interior vertex star of the mesh's
    stencil table. Padding slots hold the vertex itself, so their rows in
    the least-squares fit are exactly zero and leave the fit unchanged."""
    form = state.form
    mesh = state.mesh
    X = state.positions
    nv = mesh.vertex_count
    dim = form.dim
    table = mesh.stencil
    interior = mesh.interior_mask(exclude_rings=0)
    e1, e2 = tangent_frames(form, X, mesh)
    idx = np.flatnonzero(interior)
    star = table.star[idx]
    mask = table.mask[idx]
    nxt = table.nxt[idx]
    x = np.take(X, idx, axis=0)[:, None, :]
    f1 = np.take(e1, idx, axis=0)[:, None, :]
    f2 = np.take(e2, idx, axis=0)[:, None, :]
    pts = np.take(X, star, axis=0)

    def succ(a):
        return np.take_along_axis(a, nxt, axis=1)

    u1, u2, sol = _second_form_fit(form, pts, x, f1, f2)
    a11, a12, a22 = sol.swapaxes(0, 1)
    ii_frame = np.zeros((nv, 2, 2, dim))
    ii_frame[idx] = np.stack([sol[:, :2], sol[:, 1:]], axis=1)
    ii_fit = np.full(nv, np.nan)
    ii_fit[idx] = -(form.inner_rows(a11, a11) + 2.0 * form.inner_rows(a12, a12)
                    + form.inner_rows(a22, a22))

    def kappa_sq(du1, du2):
        # squared normal curvature of each direction, from the fitted form
        nrm = np.hypot(du1, du2)
        safe = np.where(nrm < 1e-300, 1.0, nrm)
        c1 = (du1 / safe)[..., None]
        c2 = (du2 / safe)[..., None]
        vec = (c1 * c1 * a11[:, None] + 2.0 * c1 * c2 * a12[:, None]
               + c2 * c2 * a22[:, None])
        return np.where(nrm < 1e-300, 0.0, np.maximum(-form.inner_rows(vec, vec), 0.0))

    # ambient-geodesic lengths, corrected to interior lengths at cubic
    # order using the fitted normal curvature; without the correction the
    # angle defect carries an O(1) bias wherever the surface bends. The
    # normal directions are negative definite, so the ambient geodesic is
    # LONGER than the interior one and the correction is a shortening.
    radial = np.arccosh(np.maximum(np.abs(form.inner_rows(pts, x)), 1.0))
    outer = np.arccosh(np.maximum(
        np.abs(form.inner_rows(pts, np.take(X, succ(star), axis=0))), 1.0))
    radial = radial * (1.0 - kappa_sq(u1, u2) * radial**2 / 24.0)
    outer = outer * (1.0 - kappa_sq(succ(u1) - u1, succ(u2) - u2) * outer**2 / 24.0)
    # padding slots get a unit equilateral triangle, then drop out of the sums
    la = np.where(mask, radial, 1.0)
    lb = succ(la)
    lc = np.where(mask, outer, 1.0)
    cosv = np.clip((la**2 + lb**2 - lc**2) / (2.0 * la * lb), -1.0, 1.0)
    angles = np.where(mask, np.arccos(cosv), 0.0)
    s_h = 0.5 * (la + lb + lc)
    areas = np.sqrt(np.maximum(s_h * (s_h - la) * (s_h - lb) * (s_h - lc), 0.0))
    omega = np.sum(np.where(mask, areas, 0.0), axis=1) / 3.0
    K = np.full(nv, np.nan)
    K[idx] = (2.0 * np.pi - np.sum(angles, axis=1)) / omega
    ii_gauss = 2.0 * (K + 1.0)
    return DiscreteGeometry(K=K, ii_gauss=ii_gauss, ii_fit=ii_fit, ii_frame=ii_frame,
                            frames=(e1, e2))


# ---------------------------------------------------------------------------
# State file format


STATE_HEADER = "h2n-surface v1"


def state_dumps(state: SurfaceState) -> str:
    mesh = state.mesh
    header = (f"{STATE_HEADER} n={state.form.n} rings={mesh.rings} "
              f"sectors={mesh.sectors} R={mesh.radius!r} converged={int(state.converged)}\n")
    columns = [mesh.ring_of().tolist(), mesh.sector_of().tolist(), *state.positions.T.tolist(),
               mesh.boundary_mask().astype(int).tolist()]
    fmt = "{} {} " + "{!r} " * state.form.dim + "{}\n"
    return header + "".join(map(fmt.format, *columns))


def state_save(state: SurfaceState, path) -> None:
    with open(path, "w") as fh:
        fh.write(state_dumps(state))


def state_loads(text: str) -> SurfaceState:
    """Parse a state file; a malformed one raises GeometryError."""
    try:
        return _parse_state(text)
    except GeometryError:
        raise
    except (ValueError, KeyError) as exc:
        raise GeometryError(f"malformed surface state: {exc}") from exc


def _parse_state(text: str) -> SurfaceState:
    fields, body = _read_table(
        text, STATE_HEADER, "vertex", GeometryError,
        lambda f: (1 + int(f["rings"]) * int(f["sectors"]), int(f["n"]) + 6))
    form = BilinearForm(int(fields["n"]))
    mesh = DiskMesh(int(fields["rings"]), int(fields["sectors"]), float(fields["R"]))
    m, s, R = mesh.rings, mesh.sectors, mesh.radius
    # (i, j) must be whole numbers on the mesh, checked as floats, so an
    # index too large for int64 is rejected before the conversion
    ij = body[:, :2]
    on_mesh = np.all((ij >= 0) & (ij <= [m, s - 1]) & (ij == np.floor(ij)), axis=1)
    if not np.all(on_mesh):
        i, j = ij[np.argmin(on_mesh)]
        raise GeometryError(f"vertex ({i:g}, {j:g}) is not on the mesh")
    i, j = ij.astype(np.int64).T
    if not np.array_equal(body[:, -1], i == m):
        raise GeometryError("the pinned column is not 1 exactly on the rim")
    X = np.zeros((mesh.vertex_count, form.dim))
    X[np.where(i == 0, 0, 1 + (i - 1) * s + j)] = body[:, 2:-1]
    # a huge or infinite coordinate makes qx inf or nan, which the check
    # rejects
    with np.errstate(over="ignore", invalid="ignore"):
        qx = form.inner_rows(X, X)
    if not np.all(np.abs(qx + 1.0) <= 1e-8):
        raise GeometryError("state vertices are off the quadric")
    # the rim vertices sit at the header radius, arcsinh |X[:2]| = R
    rim = np.arcsinh(np.linalg.norm(X[mesh.vertex(m, 0):, :2], axis=1))
    if not np.all(np.abs(rim - R) <= 1e-9 * max(1.0, R)):
        raise GeometryError(f"rim vertices are not at the header radius R={R!r}")
    return SurfaceState(mesh=mesh, positions=X, form=form,
                        converged=fields.get("converged", "0") == "1")


def state_load(path) -> SurfaceState:
    with open(path) as fh:
        return state_loads(fh.read())


def solve_report(state: SurfaceState) -> str:
    return json.dumps(
        {
            "converged": state.converged,
            "iterations": state.iterations,
            "final_residual": state.final_residual,
            "dt": state.dt_summary,
            "rings": state.mesh.rings,
            "sectors": state.mesh.sectors,
            "radius": state.mesh.radius,
            "n": state.form.n,
            "residual_history": state.residual_history,
        },
        sort_keys=True,
    )
