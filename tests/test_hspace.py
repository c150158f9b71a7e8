import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplateau.qcore import BilinearForm, DegenerateTripleError, random_isometry
from pseudoplateau import einstein as ein
from pseudoplateau import hspace as hs


FORM1 = BilinearForm(1)
FORM2 = BilinearForm(2)


def equilateral_triple(form):
    circ = ein.standard_circle(form)
    return [circ.point_at(t) for t in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)]


class TestSpatialDistance:
    def test_coincident(self):
        x = hs.geodesic_disk_point(FORM1, 0.7, 0.3)
        assert hs.spatial_distance(FORM1, x, x) == 0.0

    def test_restricts_to_hyperbolic_distance(self):
        r = 1.3
        x = hs.geodesic_disk_point(FORM2, 0.0, 0.0)
        y = hs.geodesic_disk_point(FORM2, r, 0.0)
        assert hs.spatial_distance(FORM2, x, y) == pytest.approx(r, abs=1e-12)

    def test_causal_pair_gives_zero(self):
        # two points separated along the compact fiber direction
        a = hs.cylinder_point(FORM1, 0.0, 0.0, np.array([1.0, 0.0]))
        b = hs.cylinder_point(FORM1, 0.0, 0.0, np.array([np.cos(0.5), np.sin(0.5)]))
        assert abs(FORM1.inner(a.rep, b.rep)) < 1.0
        assert hs.spatial_distance(FORM1, a, b) == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_symmetric_and_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = hs.geodesic_disk_point(FORM2, rng.uniform(0, 2), rng.uniform(0, 2 * np.pi))
        y = hs.geodesic_disk_point(FORM2, rng.uniform(0, 2), rng.uniform(0, 2 * np.pi))
        d = hs.spatial_distance(FORM2, x, y)
        assert hs.spatial_distance(FORM2, y, x) == d
        g = random_isometry(FORM2, rng)
        gx = hs.HPoint(g.apply(x.rep))
        gy = hs.HPoint(g.apply(y.rep))
        assert hs.spatial_distance(FORM2, gx, gy) == pytest.approx(d, abs=1e-10 * (1 + d))


class TestHorofunction:
    def test_rescaling_shifts_by_log(self):
        z = np.array([1.0, 0.0, 1.0, 0.0])
        x = hs.geodesic_disk_point(FORM1, 0.9, 1.1)
        h1 = hs.Horofunction(z)
        h2 = hs.Horofunction(3.0 * z)
        v1 = hs.horofunction_value(FORM1, h1, x)
        v2 = hs.horofunction_value(FORM1, h2, x)
        assert v2 - v1 == pytest.approx(np.log(3.0), abs=1e-14)

    def test_busemann_on_geodesic_ray(self):
        # along the ray toward the ideal point of z the value decreases at unit speed
        h = hs.horofunction(FORM1, np.array([1.0, 0.0, 1.0, 0.0]))
        vals = [hs.horofunction_value(FORM1, h, hs.geodesic_disk_point(FORM1, r, 0.0))
                for r in (0.0, 1.0, 2.0)]
        assert vals[0] - vals[1] == pytest.approx(1.0, abs=1e-6) or \
            vals[1] - vals[0] == pytest.approx(1.0, abs=1e-6)
        assert abs(abs(vals[1] - vals[2]) - 1.0) < 1e-6

    def test_orthogonal_point_rejected(self):
        h = hs.horofunction(FORM1, np.array([1.0, 0.0, 1.0, 0.0]))
        x = hs.cylinder_point(FORM1, 0.0, 0.0, np.array([0.0, 1.0]))
        with pytest.raises(hs.HorofunctionDomainError):
            hs.horofunction_value(FORM1, h, x)

    def test_ambient_gradient_unit_on_plane(self):
        h = hs.horofunction(FORM1, np.array([1.0, 0.0, 1.0, 0.0]))
        x = hs.geodesic_disk_point(FORM1, 0.8, 0.4)
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
        x = hs.geodesic_disk_point(FORM1, 0.8, 0.4)
        frame = np.eye(FORM1.dim)[:2] * 2.0
        with pytest.raises(hs.FrameError):
            hs.horofunction_gradient(FORM1, h, x, frame)


class TestBarycenter:
    def test_equilateral_center(self):
        triple = equilateral_triple(FORM1)
        lam = hs.barycenter_weights(FORM1, triple)
        assert np.allclose(lam, np.sqrt(2.0 / 3.0), atol=1e-12)
        center = hs.ideal_barycenter(FORM1, triple)
        expect = np.zeros(FORM1.dim)
        expect[2] = 1.0
        assert np.allclose(np.abs(center.rep), expect, atol=1e-12)

    def test_pairwise_products_agree_after_weighting(self):
        circ = ein.standard_circle(FORM2)
        triple = [circ.point_at(t) for t in (0.3, 1.9, 4.1)]
        from pseudoplateau.qcore import consistent_lifts
        u = consistent_lifts(FORM2, [p.rep for p in triple])
        lam = hs.barycenter_weights(FORM2, triple)
        prods = [FORM2.inner(lam[i] * u[i], lam[j] * u[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert np.max(np.abs(np.diff(prods))) < 1e-10

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        triple = equilateral_triple(FORM2)
        g = random_isometry(FORM2, rng)
        center = hs.ideal_barycenter(FORM2, triple)
        moved = [ein.boundary_point(FORM2, g.apply(p.rep)) for p in triple]
        center_moved = hs.ideal_barycenter(FORM2, moved)
        img = g.apply(center.rep)
        assert min(np.max(np.abs(center_moved.rep - img)),
                   np.max(np.abs(center_moved.rep + img))) < 1e-9

    def test_rejects_degenerate(self):
        crown = ein.barbot_crown_standard(1)
        v = crown.vertices(FORM1)
        with pytest.raises(DegenerateTripleError):
            hs.ideal_barycenter(FORM1, [p.rep for p in v[:3]])


class TestPointedPlane:
    def test_equilateral_plane(self):
        triple = equilateral_triple(FORM1)
        plane = hs.pointed_plane_from_triple(FORM1, triple)
        assert np.allclose(np.abs(plane.point.rep), np.array([0, 0, 1.0, 0]), atol=1e-12)
        # U spans the first two coordinates
        proj = np.abs(plane.U[:, :2])
        assert np.linalg.det(plane.U[:, :2]) == pytest.approx(np.prod(np.linalg.svd(plane.U[:, :2])[1]), abs=1e-9) or proj.sum() > 1.9

    def test_gram_of_point_and_U(self):
        circ = ein.standard_circle(FORM2)
        triple = [circ.point_at(t) for t in (0.3, 1.9, 4.1)]
        plane = hs.pointed_plane_from_triple(FORM2, triple)
        rows = np.vstack([plane.point.rep, plane.U])
        gram = (rows * FORM2.signs) @ rows.T
        assert np.allclose(gram, np.diag([-1.0, 1.0, 1.0]), atol=1e-10)

    def test_triple_lies_in_plane_span(self):
        circ = ein.standard_circle(FORM2)
        triple = [circ.point_at(t) for t in (0.3, 1.9, 4.1)]
        plane = hs.pointed_plane_from_triple(FORM2, triple)
        span = np.vstack([plane.point.rep, plane.U])
        for p in triple:
            coeff, res, *_ = np.linalg.lstsq(span.T, p.rep, rcond=None)
            recon = coeff @ span
            assert np.max(np.abs(recon - p.rep)) < 1e-9


class TestBarbotSurface:
    def test_unit_timelike_everywhere(self):
        crown = ein.barbot_crown_standard(2)
        form = BilinearForm(2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s, t = rng.uniform(-2, 2, size=2)
            x = hs.barbot_surface_point(crown, s, t)
            assert form.q(x.rep) == pytest.approx(-1.0, rel=1e-12)

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
        assert FORM1.inner(x0.rep, xt.rep) == pytest.approx(expect, abs=1e-12)

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
        alpha, beta = hs.barbot_second_fundamental(crown, 0.6, -0.3)
        # trace-free, norm^2 = -(q(alpha) + 2 q(beta) + q(alpha)) = 2
        norm_sq = -(FORM1.q(alpha) + 2.0 * FORM1.q(beta) + FORM1.q(alpha))
        assert norm_sq == pytest.approx(2.0, abs=1e-12)


class TestBoundaryRay:
    def test_constant_loop_rays_on_plane(self):
        thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        fibers = np.tile([1.0, 0.0], (32, 1))
        loop = ein.LipschitzLoop(thetas, fibers)
        x = hs.boundary_ray_point(loop, 0.9, 2.0)
        assert abs(x.rep[3]) < 1e-14

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_unit_timelike(self, seed):
        rng = np.random.default_rng(seed)
        thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        fibers = np.tile([1.0, 0.0, 0.0], (32, 1))
        loop = ein.LipschitzLoop(thetas, fibers)
        theta = rng.uniform(0, 2 * np.pi)
        R = rng.uniform(0.1, 5.0)
        x = hs.boundary_ray_point(loop, theta, R).rep
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
        target = loop.boundary_point(theta).rep
        target = target / np.linalg.norm(target)
        for R in (2.0, 4.0, 8.0):
            x = hs.boundary_ray_point(loop, theta, R).rep
            x = x / np.linalg.norm(x)
            gap = min(np.linalg.norm(x - target), np.linalg.norm(x + target))
            assert gap <= 2.0 * np.exp(-2.0 * R)


class TestVisualDistance:
    def test_zero_on_same_point(self):
        triple = equilateral_triple(FORM1)
        p = ein.standard_circle(FORM1).point_at(0.5)
        # arccos near 1 resolves coincidence only to sqrt(eps)
        assert hs.visual_distance(FORM1, triple, p, p) == pytest.approx(0.0, abs=1e-6)

    def test_circle_arc_length(self):
        triple = equilateral_triple(FORM1)
        circ = ein.standard_circle(FORM1)
        # on the standard circle the splitting fiber is constant, so the
        # visual distance is the angle gap
        d = hs.visual_distance(FORM1, triple, circ.point_at(0.2), circ.point_at(0.9))
        assert d == pytest.approx(0.7, abs=1e-9)
