import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplateau.qcore import BilinearForm, random_isometry
from pseudoplateau import einstein as ein
from pseudoplateau import hspace as hs

from geometry_reference import (
    barbot_second_fundamental, boundary_ray_point, geodesic_disk_point,
)


FORM1 = BilinearForm(1)
FORM2 = BilinearForm(2)


class TestSpatialDistance:
    def test_coincident(self):
        x = geodesic_disk_point(FORM1, 0.7, 0.3)
        assert hs.spatial_distance(FORM1, x, x) == 0.0

    def test_restricts_to_hyperbolic_distance(self):
        r = 1.3
        x = geodesic_disk_point(FORM2, 0.0, 0.0)
        y = geodesic_disk_point(FORM2, r, 0.0)
        assert hs.spatial_distance(FORM2, x, y) == pytest.approx(r, abs=1e-12)

    def test_causal_pair_gives_zero(self):
        # two points separated along the compact fiber direction
        a = hs.cylinder_point(FORM1, 0.0, 0.0, np.array([1.0, 0.0]))
        b = hs.cylinder_point(FORM1, 0.0, 0.0, np.array([np.cos(0.5), np.sin(0.5)]))
        assert abs(FORM1.inner(a, b)) < 1.0
        assert hs.spatial_distance(FORM1, a, b) == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_symmetric_and_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = geodesic_disk_point(FORM2, rng.uniform(0, 2), rng.uniform(0, 2 * np.pi))
        y = geodesic_disk_point(FORM2, rng.uniform(0, 2), rng.uniform(0, 2 * np.pi))
        d = hs.spatial_distance(FORM2, x, y)
        assert hs.spatial_distance(FORM2, y, x) == d
        g = random_isometry(FORM2, rng)
        gx = g.apply(x)
        gy = g.apply(y)
        assert hs.spatial_distance(FORM2, gx, gy) == pytest.approx(d, abs=1e-10 * (1 + d))


class TestHorofunction:
    def test_orthogonal_point_rejected(self):
        h = hs.horofunction(FORM1, np.array([1.0, 0.0, 1.0, 0.0]))
        x = hs.cylinder_point(FORM1, 0.0, 0.0, np.array([0.0, 1.0]))
        frame = np.eye(FORM1.dim)[:2]
        with pytest.raises(hs.HorofunctionDomainError):
            hs.horofunction_gradient(FORM1, h, x, frame)

    def test_ambient_gradient_unit_on_plane(self):
        h = hs.horofunction(FORM1, np.array([1.0, 0.0, 1.0, 0.0]))
        x = geodesic_disk_point(FORM1, 0.8, 0.4)
        # ambient tangent frame at x within the geodesic plane + fiber direction
        d = FORM1.dim
        t1 = np.zeros(d)
        t1[0] = np.cosh(0.8) * np.cos(0.4)
        t1[1] = np.cosh(0.8) * np.sin(0.4)
        t1[2] = np.sinh(0.8)
        t2 = np.zeros(d)
        t2[0], t2[1] = -np.sin(0.4), np.cos(0.4)
        frame = np.vstack([t1, t2])
        assert hs.gradient_norm_sq(FORM1, h, x, frame) == pytest.approx(1.0, abs=1e-10)

    def test_barbot_gradient_norm_two(self):
        crown = ein.barbot_crown_standard(1)
        h = hs.horofunction(FORM1, crown.zreps[0])
        for s, t in ((0.0, 0.0), (0.7, -0.4), (-1.2, 2.0)):
            x = hs.barbot_surface_point(crown, s, t)
            frame = hs.barbot_tangent_frame(crown, s, t)
            assert hs.gradient_norm_sq(FORM1, h, x, frame) == pytest.approx(2.0, abs=1e-10)

    def test_non_orthonormal_frame_rejected(self):
        h = hs.horofunction(FORM1, np.array([1.0, 0.0, 1.0, 0.0]))
        x = geodesic_disk_point(FORM1, 0.8, 0.4)
        frame = np.eye(FORM1.dim)[:2] * 2.0
        with pytest.raises(hs.FrameError):
            hs.horofunction_gradient(FORM1, h, x, frame)


class TestStacks:
    """A stack of points (and frames) gives the per-row values of the
    one-point calls."""

    def test_spatial_distance_rows(self):
        rng = np.random.default_rng(5)
        # random fibers give acausal and causal pairs; row 0 is coincident
        pts = np.array([hs.cylinder_point(FORM2, r, t, f / np.linalg.norm(f))
                        for r, t, f in zip(rng.uniform(0, 2, 40), rng.uniform(0, 2 * np.pi, 40),
                                           rng.normal(size=(40, 3)))])
        x, y = pts[:20], pts[20:]
        y[0] = x[0]
        # a pairing within rounding of 1 counts as causal
        y[1] = x[1] * (1.0 + 4e-15)
        got = hs.spatial_distance(FORM2, x, y)
        want = [hs.spatial_distance(FORM2, a, b) for a, b in zip(x, y)]
        assert all(isinstance(d, float) for d in want)
        assert want[1] == 0.0 and 0 < sum(d == 0.0 for d in want) < 20
        assert got.shape == (20,) and np.array_equal(got, want)

    def test_gradient_norm_sq_rows(self):
        crown = ein.barbot_crown_standard(1)
        h = hs.horofunction(FORM1, crown.zreps[0])
        st = np.random.default_rng(2).uniform(-1.5, 1.5, size=(12, 2))
        x = np.array([hs.barbot_surface_point(crown, s, t) for s, t in st])
        frames = np.array([hs.barbot_tangent_frame(crown, s, t) for s, t in st])
        got = hs.gradient_norm_sq(FORM1, h, x, frames)
        want = [hs.gradient_norm_sq(FORM1, h, p, f) for p, f in zip(x, frames)]
        assert all(isinstance(g, float) for g in want)
        assert got.shape == (12,) and np.array_equal(got, want)

    def test_one_bad_row_rejects_the_stack(self):
        crown = ein.barbot_crown_standard(1)
        h = hs.horofunction(FORM1, crown.zreps[0])
        x = np.array([hs.barbot_surface_point(crown, s, 0.0) for s in (0.0, 0.5)])
        frames = np.array([hs.barbot_tangent_frame(crown, s, 0.0) for s in (0.0, 0.5)])
        bad = frames.copy()
        bad[1] *= 2.0
        with pytest.raises(hs.FrameError):
            hs.gradient_norm_sq(FORM1, h, x, bad)
        # unit rows that are not q-orthogonal
        bad = np.stack([np.eye(FORM1.dim)[:2]] * 2)
        bad[1, 1] = (0.6, 0.8, 0.0, 0.0)
        with pytest.raises(hs.FrameError, match="orthogonal"):
            hs.check_frame(FORM1, bad)
        orth = hs.horofunction(FORM1, np.array([1.0, 0.0, 1.0, 0.0]))
        y = x.copy()
        y[1] = hs.cylinder_point(FORM1, 0.0, 0.0, np.array([0.0, 1.0]))
        with pytest.raises(hs.HorofunctionDomainError):
            hs.horofunction_gradient(FORM1, orth, y, np.stack([np.eye(FORM1.dim)[:2]] * 2))


class TestBarbotSurface:
    def test_unit_timelike_everywhere(self):
        crown = ein.barbot_crown_standard(2)
        form = BilinearForm(2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s, t = rng.uniform(-2, 2, size=2)
            x = hs.barbot_surface_point(crown, s, t)
            assert form.q(x) == pytest.approx(-1.0, rel=1e-12)

    def test_origin_velocity(self):
        crown = ein.barbot_crown_standard(1)
        z = crown.zreps
        adot = z[0] - z[2]
        assert FORM1.q(adot) == pytest.approx(0.5, abs=1e-14)

    def test_pairing_along_geodesics(self):
        crown = ein.barbot_crown_standard(1)
        x0 = hs.barbot_surface_point(crown, 0.0, 0.0)
        lam, mu, t = 1.0, 0.5, 1.7
        xt = hs.barbot_surface_point(crown, lam * t, mu * t)
        expect = -0.5 * (np.cosh(lam * t) + np.cosh(mu * t))
        assert FORM1.inner(x0, xt) == pytest.approx(expect, abs=1e-12)

    def test_flat_induced_metric(self):
        crown = ein.barbot_crown_standard(2)
        form = BilinearForm(2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            s, t = rng.uniform(-1.5, 1.5, size=2)
            z = crown.zreps
            xs = np.exp(s) * z[0] - np.exp(-s) * z[2]
            xt = np.exp(t) * z[1] - np.exp(-t) * z[3]
            assert form.q(xs) == pytest.approx(0.5, abs=1e-12)
            assert form.q(xt) == pytest.approx(0.5, abs=1e-12)
            assert form.inner(xs, xt) == pytest.approx(0.0, abs=1e-12)

    def test_distance_ratio_approaches_sqrt_two(self):
        crown = ein.barbot_crown_standard(1)
        x0 = hs.barbot_surface_point(crown, 0.0, 0.0)
        t = 20.0
        xt = hs.barbot_surface_point(crown, t, 0.0)
        eth = hs.spatial_distance(FORM1, x0, xt)
        d_sigma = t / np.sqrt(2.0)
        ratio = eth / d_sigma
        assert abs(ratio - np.sqrt(2.0)) / np.sqrt(2.0) < 0.05

    def test_second_fundamental_norm(self):
        crown = ein.barbot_crown_standard(1)
        alpha, beta = barbot_second_fundamental(crown, 0.6, -0.3)
        # trace-free, norm^2 = -(q(alpha) + 2 q(beta) + q(alpha)) = 2
        norm_sq = -(FORM1.q(alpha) + 2.0 * FORM1.q(beta) + FORM1.q(alpha))
        assert norm_sq == pytest.approx(2.0, abs=1e-12)


class TestBoundaryRay:
    def test_constant_loop_rays_on_plane(self):
        thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        fibers = np.tile([1.0, 0.0], (32, 1))
        loop = ein.LipschitzLoop(thetas, fibers)
        x = boundary_ray_point(loop, 0.9, 2.0)
        assert abs(x[3]) < 1e-14

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_unit_timelike(self, seed):
        rng = np.random.default_rng(seed)
        thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        fibers = np.tile([1.0, 0.0, 0.0], (32, 1))
        loop = ein.LipschitzLoop(thetas, fibers)
        theta = rng.uniform(0, 2 * np.pi)
        R = rng.uniform(0.1, 5.0)
        x = boundary_ray_point(loop, theta, R)
        # q = sinh^2 R - cosh^2 R |f|^2 cancels terms of size cosh^2 R, so
        # rounding alone reaches a few ulps of cosh^2 R (at most 2.7 of them
        # over 3000 seeds)
        tol = 8.0 * np.cosh(R) ** 2 * np.finfo(float).eps
        form = BilinearForm(2)
        assert abs(form.q(x) + 1.0) <= tol
        # a point 1e-9 off the quadric still fails the bound
        assert abs(form.q(x * np.sqrt(1.0 + 1e-9)) + 1.0) > tol

    def test_projective_convergence_to_loop_point(self):
        thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        fibers = np.column_stack([np.cos(0.2 * np.sin(thetas)), np.sin(0.2 * np.sin(thetas))])
        loop = ein.LipschitzLoop(thetas, fibers)
        theta = 1.234
        target = loop.boundary_points(theta)
        target = target / np.linalg.norm(target)
        for R in (2.0, 4.0, 8.0):
            x = boundary_ray_point(loop, theta, R)
            x = x / np.linalg.norm(x)
            gap = min(np.linalg.norm(x - target), np.linalg.norm(x + target))
            assert gap <= 2.0 * np.exp(-2.0 * R)
