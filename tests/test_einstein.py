import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplateau.qcore import (
    BilinearForm,
    DegenerateTripleError,
    random_isometry,
    reference_triple,
)
from pseudoplateau import cli
from pseudoplateau import einstein as ein

from boundary_reference import (
    boundary_point_reference,
    circle_dist_reference,
    circle_point_reference,
    fiber_at_reference,
    graph_point_reference,
    lipschitz_margin_reference,
    loop_point_reference,
    photon_arc_reference,
    quadruple_positive,
    triple_class,
)
from conftest import make_rigid_arc, make_wobble


FORM1 = BilinearForm(1)
FORM2 = BilinearForm(2)


def ref_points(form):
    return ein.boundary_points(form, reference_triple(form))


def circle_points(form, *angles):
    return ein.circle_points(form, angles)


def transverse(form, x, y):
    return ein.transverse(form.inner(x, y), np.linalg.norm(x), np.linalg.norm(y))


def constant_loop(n=1, k=48, fiber=None):
    thetas = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    f = np.zeros(n + 1)
    f[0] = 1.0
    if fiber is not None:
        f = np.asarray(fiber, dtype=float)
    fibers = np.tile(f, (k, 1))
    return ein.LipschitzLoop(thetas, fibers)


def rigid_arc_loop(n=1, k=96):
    """Isometric on [0, pi/2], contracting at rate 1/3 on the complement."""
    thetas = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    fibers = np.zeros((k, n + 1))
    for i, t in enumerate(thetas):
        phi = t if t <= np.pi / 2.0 else np.pi / 2.0 - (t - np.pi / 2.0) / 3.0
        fibers[i, 0] = np.cos(phi)
        fibers[i, 1] = np.sin(phi)
    return ein.LipschitzLoop(thetas, fibers)


class TestBoundaryPoint:
    def test_product_normalisation(self):
        p = ein.boundary_points(FORM1, np.array([3.0, 0.0, 0.0, 3.0]))
        assert np.allclose(p[:2], [1.0, 0.0])
        assert np.allclose(p[2:], [0.0, 1.0])
        assert abs(FORM1.q(p)) <= 1e-10

    def test_sign_rule(self):
        p = ein.boundary_points(FORM1, np.array([-2.0, 0.0, 0.0, 2.0]))
        assert p[0] == 1.0

    def test_rejects_non_isotropic(self):
        with pytest.raises(ein.GeometryError):
            ein.boundary_points(FORM1, np.array([1.0, 0.0, 0.0, 2.0]))

    def test_stack_rejects_one_bad_row_and_wrong_length(self):
        rows = np.array([[3.0, 0.0, 0.0, 3.0], [1.0, 0.0, 0.0, 2.0]])
        with pytest.raises(ein.GeometryError):
            ein.boundary_points(FORM1, rows)
        with pytest.raises(ein.GeometryError):
            ein.boundary_points(FORM2, rows[:1])


class TestTransverse:
    def test_self_not_transverse(self):
        x = circle_points(FORM1, 0.3)[0]
        assert not transverse(FORM1, x, x)

    def test_crown_adjacent_and_diagonal(self):
        crown = ein.barbot_crown_standard(1)
        v = ein.boundary_points(FORM1, crown.zreps)
        assert not transverse(FORM1, v[0], v[1])
        assert transverse(FORM1, v[0], v[2])

    def test_antipodal_circle_points(self):
        x, y = circle_points(FORM1, 0.0, np.pi)
        assert transverse(FORM1, x, y)
        # on the natural circle lifts (cos t, sin t, 1) the pairing is cos(pi) - 1
        lift0 = np.array([1.0, 0.0, 1.0, 0.0])
        lift1 = np.array([-1.0, 0.0, 1.0, 0.0])
        assert FORM1.inner(lift0, lift1) == pytest.approx(-2.0)


class TestTripleClass:
    def test_circle_triple_positive(self):
        a, b, c = circle_points(FORM1, 0.2, 2.0, 4.0)
        assert triple_class(FORM1, a, b, c) == "positive"

    def test_crown_edge_triple_degenerate(self):
        crown = ein.barbot_crown_standard(1)
        v = ein.boundary_points(FORM1, crown.zreps)
        loop = ein.crown_loop(crown)
        mid = loop.boundary_points(np.pi / 4.0)
        assert triple_class(FORM1, v[0], v[1], mid) == "nonnegative_degenerate"

    def test_coincident_points_rejected(self):
        a, b = circle_points(FORM1, 0.2, 2.0)
        with pytest.raises(ein.CoincidentPointsError):
            triple_class(FORM1, a, a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=3))
        if np.min(np.diff(angles)) < 0.1:
            return
        a, b, c = circle_points(FORM2, *angles)
        classes = {
            triple_class(FORM2, *perm)
            for perm in ([a, b, c], [b, c, a], [c, a, b], [a, c, b], [b, a, c], [c, b, a])
        }
        assert classes == {"positive"}


class TestMinkowskiChart:
    def test_origin_maps_to_anchor(self):
        a, b, _ = ref_points(FORM1)
        chart = ein.minkowski_chart(FORM1, a, b)
        img = ein.minkowski_chart_apply(FORM1, chart, np.zeros(2))
        assert ein.projectively_equal(img, b)

    def test_lightlike_line_lands_on_photon(self):
        a, b, _ = ref_points(FORM2)
        chart = ein.minkowski_chart(FORM2, a, b)
        w = np.array([1.0, 1.0, 0.0])
        pts = ein.minkowski_chart_apply(FORM2, chart, np.outer([0.5, 1.5, 3.0], w))
        sig = ein.subspace_signature(FORM2, pts)
        assert sig[2] >= 1 and sig[0] + sig[1] + sig[2] == 3
        assert ein.subspace_signature(FORM2, pts[:2]) == (0, 0, 2)

    def test_spacelike_line_lands_on_circle_through_cone_point(self):
        a, b, _ = ref_points(FORM1)
        chart = ein.minkowski_chart(FORM1, a, b)
        w = np.array([1.0, 0.2])
        pts = ein.minkowski_chart_apply(FORM1, chart, np.outer([-1.0, 0.5, 2.0], w))
        # the three images and the cone point span a (2, 1) space; the fourth
        # Gram eigenvalue is the rank-deficiency null
        sig = ein.subspace_signature(FORM1, np.vstack([pts, a]))
        assert sig == (2, 1, 1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        a, b, _ = ref_points(FORM2)
        chart = ein.minkowski_chart(FORM2, a, b)
        u = rng.normal(size=3)
        x = ein.minkowski_chart_apply(FORM2, chart, u)
        back = ein.minkowski_chart_inverse(FORM2, chart, x)
        assert np.max(np.abs(back - u)) < 1e-10

    def test_stacks_map_row_by_row(self):
        a, b, _ = ref_points(FORM2)
        chart = ein.minkowski_chart(FORM2, a, b)
        U = np.random.default_rng(3).normal(size=(20, 3))
        X = ein.minkowski_chart_apply(FORM2, chart, U)
        assert X.shape == (20, 5)
        for u, x in zip(U, X):
            assert np.max(np.abs(ein.minkowski_chart_apply(FORM2, chart, u) - x)) <= 1e-12
        assert np.max(np.abs(ein.minkowski_chart_inverse(FORM2, chart, X) - U)) < 1e-10
        with pytest.raises(ein.ChartDomainError):
            ein.minkowski_chart_inverse(FORM2, chart, np.vstack([X, a]))

    def test_inverse_rejects_light_cone(self):
        a, b, _ = ref_points(FORM1)
        chart = ein.minkowski_chart(FORM1, a, b)
        with pytest.raises(ein.ChartDomainError):
            ein.minkowski_chart_inverse(FORM1, chart, a)


class TestTauChart:
    def test_defining_property(self):
        a, b, c = ref_points(FORM1)
        chart = ein.tau_chart(FORM1, (a, b, c))
        e1 = np.array([1.0, 0.0])
        img_b = ein.minkowski_chart_apply(FORM1, chart, -e1)
        img_c = ein.minkowski_chart_apply(FORM1, chart, e1)
        assert ein.projectively_equal(img_b, b, atol=1e-10)
        assert ein.projectively_equal(img_c, c, atol=1e-10)

    def test_defining_property_generic_triple(self):
        a, b, c = circle_points(FORM2, 0.5, 2.5, 4.5)
        chart = ein.tau_chart(FORM2, (a, b, c))
        e1 = np.zeros(3)
        e1[0] = 1.0
        assert ein.projectively_equal(ein.minkowski_chart_apply(FORM2, chart, -e1), b, atol=1e-8)
        assert ein.projectively_equal(ein.minkowski_chart_apply(FORM2, chart, e1), c, atol=1e-8)

    def test_degenerate_triple_rejected(self):
        crown = ein.barbot_crown_standard(1)
        v = ein.boundary_points(FORM1, crown.zreps)
        with pytest.raises(DegenerateTripleError):
            ein.tau_chart(FORM1, (v[0], v[1], v[2]))


class TestDiamond:
    def test_endpoints_at_distance_two(self):
        # b and c are the corners -e1 and e1 of the diamond in the chart
        a, b, c = ref_points(FORM1)
        chart = ein.tau_chart(FORM1, (a, b, c))
        e1 = np.array([1.0, 0.0])
        for p, corner in ((b, -e1), (c, e1)):
            assert ein.in_closed_diamond(FORM1, chart, p)
            assert np.max(np.abs(ein.minkowski_chart_inverse(FORM1, chart, p) - corner)) < 1e-10

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_isometry_invariance(self, seed):
        # the chart of (ga, gb, gc) gives gx the coordinates that the chart
        # of (a, b, c) gives x
        rng = np.random.default_rng(seed)
        a, b, c, x, y = circle_points(FORM1, 0.0, 2.1, 4.2, 2.6, 3.4)
        g = random_isometry(FORM1, rng)
        moved = ein.boundary_points(FORM1, [g.apply(p) for p in (a, b, c, x, y)])
        chart = ein.tau_chart(FORM1, (a, b, c))
        chart_moved = ein.tau_chart(FORM1, tuple(moved[:3]))
        for p, gp in ((x, moved[3]), (y, moved[4])):
            u0 = ein.minkowski_chart_inverse(FORM1, chart, p)
            u1 = ein.minkowski_chart_inverse(FORM1, chart_moved, gp)
            assert np.max(np.abs(u1 - u0)) <= 1e-9 * (1 + np.max(np.abs(u0)))

    def test_outside_point_rejected(self):
        a, b, c, outside, inside = circle_points(FORM1, 0.0, 2.1, 4.2, 1.0, 3.0)
        # `outside` lies between a and b, not in the (b, c) diamond avoiding a
        chart = ein.tau_chart(FORM1, (a, b, c))
        assert not ein.in_closed_diamond(FORM1, chart, outside)
        assert ein.in_closed_diamond(FORM1, chart, inside)


class TestQuadruple:
    def test_cyclic_order_positive(self):
        a, b, c, d = circle_points(FORM1, 0.0, 1.5, 3.0, 4.5)
        assert quadruple_positive(FORM1, a, b, c, d)

    def test_same_side_negative(self):
        a, b, c, d = circle_points(FORM1, 0.0, 1.0, 3.0, 2.0)
        assert not quadruple_positive(FORM1, a, b, c, d)

    def test_transposition_breaks_positivity(self):
        a, b, c, d = circle_points(FORM1, 0.0, 1.5, 3.0, 4.5)
        assert not quadruple_positive(FORM1, a, c, b, d)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_cyclic_invariance(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=4))
        if np.min(np.diff(angles)) < 0.15:
            return
        a, b, c, d = circle_points(FORM2, *angles)
        assert quadruple_positive(FORM2, a, b, c, d)
        assert quadruple_positive(FORM2, b, c, d, a)


class TestLoops:
    def test_constant_loop_positive(self):
        assert ein.loop_classify(constant_loop()) == "positive"

    def test_isometric_loop_invalid(self):
        k = 48
        thetas = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
        fibers = np.column_stack([np.cos(thetas), np.sin(thetas)])
        loop = ein.LipschitzLoop(thetas, fibers)
        assert ein.loop_classify(loop) == "invalid"

    def test_rigid_arc_semipositive(self):
        loop = rigid_arc_loop()
        assert ein.loop_classify(loop) == "semipositive"

    def test_positive_loop_has_no_photon_arc(self):
        assert ein.photon_arc(constant_loop()) == []

    def test_rigid_arc_detected(self):
        loop = rigid_arc_loop()
        arcs = ein.photon_arc(loop)
        assert len(arcs) == 1
        i0, i1 = arcs[0]
        lo = loop.thetas[i0]
        hi = loop.thetas[i1]
        assert lo == pytest.approx(0.0, abs=0.1)
        assert hi == pytest.approx(np.pi / 2.0, abs=0.1)

    def test_crown_loop_semipositive_with_four_arcs(self):
        crown = ein.barbot_crown_standard(1)
        loop = ein.crown_loop(crown)
        assert ein.loop_classify(loop) == "semipositive"
        arcs = ein.photon_arc(loop)
        assert len(arcs) == 4
        # arcs tile the circle: each arc ends where the next begins
        starts = sorted(a[0] for a in arcs)
        ends = sorted(a[1] for a in arcs)
        assert starts == ends

    def test_crown_loop_n2(self):
        crown = ein.barbot_crown_standard(2)
        loop = ein.crown_loop(crown)
        assert ein.loop_classify(loop) == "semipositive"
        assert len(ein.photon_arc(loop)) == 4

    @pytest.mark.parametrize("case", ["crown1", "crown2", "arc0.2", "arc0.33", "arc0.6",
                                      "arc0.95", "uneven17", "uneven64", "uneven200",
                                      "uneven512", "constant"])
    def test_photon_arc_matches_window_reference(self, case):
        if case.startswith("crown"):
            loop = ein.crown_loop(ein.barbot_crown_standard(int(case[-1])))
        elif case.startswith("arc"):
            slope = float(case[3:])
            th = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
            phi = np.where(th <= np.pi / 2.0, th, np.pi / 2.0 - (th - np.pi / 2.0) * slope)
            loop = ein.LipschitzLoop(th, np.column_stack([np.cos(phi), np.sin(phi)]))
        elif case.startswith("uneven"):
            # uneven gaps; rigid on [0.5, 1.7] and [3.5, 4.1] and contracting
            # back at rate 1.8 / (2 pi - 1.8) elsewhere, so windows start and
            # stop at odd samples
            k = int(case[6:])
            th = np.sort(np.random.default_rng(k).uniform(0.0, 2.0 * np.pi, k))
            rigid = np.clip(th - 0.5, 0.0, 1.2) + np.clip(th - 3.5, 0.0, 0.6)
            phi = rigid - (th - rigid) * 1.8 / (2.0 * np.pi - 1.8)
            loop = ein.LipschitzLoop(th, np.column_stack([np.cos(phi), np.sin(phi)]))
        else:
            loop = constant_loop()
        assert ein.photon_arc(loop) == photon_arc_reference(loop)

    def test_circle_dist_matrix_matches_scalar(self):
        # uneven gaps, including pairs across 0 and pairs near pi apart
        rng = np.random.default_rng(4)
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, 60) ** 1.3 % (2.0 * np.pi))
        loop = ein.LipschitzLoop(thetas, np.tile([1.0, 0.0], (60, 1)))
        d1 = ein._circle_dist_matrix(loop.thetas)
        want = [[circle_dist_reference(a, b) for b in loop.thetas] for a in loop.thetas]
        assert np.array_equal(d1, np.array(want))

    @pytest.mark.parametrize("samples", [0, 2])
    def test_too_few_samples_rejected(self, samples):
        # an empty loop was once indexed before this check and raised IndexError
        th = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        with pytest.raises(ein.InvalidLoopError):
            ein.LipschitzLoop(th, np.tile([1.0, 0.0], (samples, 1)))

    @pytest.mark.parametrize("kind", ["c1_wobble", "rigid_arc", "crown"])
    def test_lipschitz_margin_matches_pairwise_reference(self, kind):
        if kind == "crown":
            loop = ein.crown_loop(ein.barbot_crown_standard(1), samples_per_edge=8)
        else:
            loop = cli.generate_loop(kind, n=1, samples=64)
        assert loop.lipschitz_margin == pytest.approx(lipschitz_margin_reference(loop),
                                                      abs=1e-15)

    @pytest.mark.parametrize("samples,slope,n", [(128, 1.0 / 3.0, 1), (64, 1.0 / 3.0, 1),
                                                 (200, 0.5, 3)])
    def test_rigid_arc_equals_per_sample_reference(self, samples, slope, n):
        loop = cli.generate_loop("rigid_arc", n=n, samples=samples, slope=slope)
        ref = make_rigid_arc(k=samples, slope=slope, n=n)
        assert np.array_equal(loop.thetas, ref.thetas)
        assert np.array_equal(loop.fibers, ref.fibers)


class TestCrown:
    def test_standard_crown_invariants(self):
        for n in (1, 2, 3):
            crown = ein.barbot_crown_standard(n)
            ein.validate_crown(BilinearForm(n), crown, atol=1e-14)

    def test_sum_of_reps_is_unit_timelike(self):
        crown = ein.barbot_crown_standard(2)
        x = crown.zreps.sum(axis=0)
        assert BilinearForm(2).q(x) == pytest.approx(-1.0, abs=1e-14)

    def test_seeded_crown_from_rigid_arc(self):
        loop = rigid_arc_loop()
        crown = ein.crown_seeded_from_arc(FORM1, loop)
        ein.validate_crown(FORM1, crown, atol=1e-8)

    def test_seeded_crown_from_crown_loop(self):
        std = ein.barbot_crown_standard(1)
        loop = ein.crown_loop(std)
        crown = ein.crown_seeded_from_arc(FORM1, loop)
        ein.validate_crown(FORM1, crown, atol=1e-8)

    def test_rejects_n_zero(self):
        with pytest.raises(ein.DegenerateCrownError):
            ein.barbot_crown_standard(0)


class TestLoopIO:
    def test_round_trip(self, tmp_path):
        loop = rigid_arc_loop()
        path = tmp_path / "loop.txt"
        ein.loop_save(loop, path)
        back = ein.loop_load(path)
        assert np.array_equal(back.thetas, loop.thetas)
        # the loader renormalises fibers onto the sphere, so equality is
        # up to one rounding step
        assert np.allclose(back.fibers, loop.fibers, atol=1e-14)

    def test_rejects_off_sphere_sample(self, tmp_path):
        text = "einstein-loop v1 n=1 samples=3\n0.0 1.0 0.0\n1.0 0.5 0.5\n2.0 1.0 0.0\n"
        with pytest.raises(ein.InvalidLoopError):
            ein.loop_loads(text)

    @pytest.mark.parametrize("text", [
        "einstein-loop v1 n=1 samples=2\n0 1 x\n1 1 0\n",
        "einstein-loop v1 n=1 samples=2 stray\n0 1 0\n1 1 0\n",
        "einstein-loop v1 n=x samples=2\n0 1 0\n1 1 0\n",
        "einstein-loop v1 samples=2\n0 1 0\n1 1 0\n",
        "einstein-loop v1 n=3 samples=2\n0 1 0\n1 1 0\n",
    ], ids=["non_numeric", "stray_token", "n=x", "missing_n", "wrong_n"])
    def test_rejects_malformed_file(self, text):
        with pytest.raises(ein.InvalidLoopError):
            ein.loop_loads(text)

    def test_dumps_equal_per_sample_formatting(self):
        wobble = make_wobble(n=2)
        crown = ein.crown_loop(ein.barbot_crown_standard(1), samples_per_edge=9)
        for loop, flag in [(wobble, " c1=1"), (crown, "")]:
            lines = ein.loop_dumps(loop).splitlines(keepends=True)
            assert lines[0] == f"einstein-loop v1 n={loop.n} samples={loop.size}{flag}\n"
            assert len(lines) == 1 + loop.size
            for i in range(loop.size):
                coords = " ".join(repr(float(x)) for x in loop.fibers[i])
                assert lines[1 + i] == f"{float(loop.thetas[i])!r} {coords}\n"

    def test_renormalises_near_unit_samples(self):
        eps = 5e-7
        text = (
            "einstein-loop v1 n=1 samples=3\n"
            f"0.0 {1.0 + eps} 0.0\n1.0 0.0 1.0\n2.0 -1.0 0.0\n"
        )
        loop = ein.loop_loads(text)
        assert np.allclose(np.linalg.norm(loop.fibers, axis=1), 1.0, atol=1e-12)


class TestPhotonAndCircleTypes:
    def test_chart_round_trip_bulk(self):
        rng = np.random.default_rng(0)
        from pseudoplateau.qcore import reference_triple
        a, b, _ = ein.boundary_points(FORM2, reference_triple(FORM2))
        chart = ein.minkowski_chart(FORM2, a, b)
        worst = 0.0
        for _ in range(1000):
            u = rng.normal(size=3) * rng.uniform(0.1, 3.0)
            x = ein.minkowski_chart_apply(FORM2, chart, u)
            back = ein.minkowski_chart_inverse(FORM2, chart, x)
            worst = max(worst, float(np.max(np.abs(back - u))))
        assert worst < 1e-10


class TestBatchedBoundaryPoints:
    """The row-wise kernels equal the scalar references of
    `boundary_reference` bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normaliser_matches_scalar_reference(self, n):
        form = BilinearForm(n)
        rng = np.random.default_rng(n)
        u = rng.normal(size=(300, 2))
        u[:10, 0] = 0.0  # the sign rule falls back to the second coordinate
        v = rng.normal(size=(300, n + 1))
        scale = np.linalg.norm(u, axis=1) / np.linalg.norm(v, axis=1)
        X = np.hstack([u, v * scale[:, None]]) * rng.uniform(0.1, 10.0, size=(300, 1))
        want = np.array([boundary_point_reference(form, x) for x in X])
        assert np.array_equal(ein.boundary_points(form, X), want)
        assert np.array_equal(ein.boundary_points(form, X[7]), want[7])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [72, 288, 1000, "random"])
    def test_loop_kernels_match_scalar_reference(self, n, count):
        loop = make_wobble(n=n, k=96)
        if count == "random":
            thetas = np.random.default_rng(n).uniform(-1.0, 7.0, size=500)
        else:
            thetas = 2.0 * np.pi * np.arange(count) / count
        fibers = loop.fibers_at(thetas)
        assert np.array_equal(fibers, np.array([fiber_at_reference(loop, t) for t in thetas]))
        assert np.array_equal(loop.boundary_points(thetas),
                              np.array([loop_point_reference(loop, t) for t in thetas]))
        assert np.array_equal(loop.fibers_at(thetas[5]), fibers[5])
        assert np.array_equal(ein.graph_points(loop.thetas, loop.fibers),
                              np.array([graph_point_reference(t, f)
                                        for t, f in zip(loop.thetas, loop.fibers)]))

    def test_close_samples_use_the_chord(self):
        # two fibers within 1e-12 rad take the renormalised chord, as the
        # scalar slerp did
        th = np.array([0.0, 1.0, 2.0, 4.0])
        fibers = np.array([[1.0, 0.0], [1.0, 1e-13], [0.0, 1.0], [-1.0, 0.0]])
        fibers /= np.linalg.norm(fibers, axis=1)[:, None]
        loop = ein.LipschitzLoop(th, fibers)
        thetas = np.array([0.25, 0.5, 1.0, 1.5, 3.0])
        assert np.array_equal(loop.fibers_at(thetas),
                              np.array([fiber_at_reference(loop, t) for t in thetas]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_circle_points_match_scalar_reference(self, n):
        # the reference divides v = (1, 0, ...) by |u|, which differs from 1
        # in the last place on some angles; circle_points divides it by its
        # own norm, 1, so u agrees to the bit and v is exactly +-e_0
        form = BilinearForm(n)
        thetas = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
        got = ein.circle_points(form, thetas)
        want = np.array([circle_point_reference(form, t) for t in thetas])
        assert np.array_equal(got[:, :2], want[:, :2])
        assert np.array_equal(np.abs(got[:, 2:]), np.eye(n + 1)[np.zeros(96, dtype=int)])
        assert np.max(np.abs(got - want)) <= np.finfo(float).eps
