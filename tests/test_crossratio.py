import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplateau.qcore import BilinearForm, DegenerateTripleError, GeometryError, random_isometry
from pseudoplateau import crossratio as cr
from pseudoplateau import einstein as ein

from pseudoplateau import diagnostics as diag

from boundary_reference import certify_reference, circle_map_test_reference, quadruple_positive
from conftest import make_wobble


FORM1 = BilinearForm(1)
FORM2 = BilinearForm(2)


def circle_points(form, *angles):
    return ein.circle_points(form, angles)


def sample_map(loop):
    return cr.SampledBoundaryMap(loop.thetas, ein.graph_points(loop.thetas, loop.fibers))


class TestCrossRatioReal:
    def test_worked_quadruple(self):
        assert cr.cross_ratio_real(0.0, 1.0, math.inf, 2.0) == pytest.approx(0.5, abs=1e-15)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_projective_invariance(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(2, 2))
        if abs(np.linalg.det(M)) < 0.1:
            return
        vals = rng.uniform(-5, 5, size=4)
        if np.min(np.abs(np.subtract.outer(vals, vals) + np.eye(4))) < 1e-3:
            return

        def act(v):
            x = M @ np.array([v, 1.0])
            return x[0] / x[1] if abs(x[1]) > 1e-12 else math.inf

        before = cr.cross_ratio_real(*vals)
        after = cr.cross_ratio_real(*[act(v) for v in vals])
        assert after == pytest.approx(before, rel=1e-9)

    def test_coincident_rejected(self):
        with pytest.raises(ein.CoincidentPointsError):
            cr.cross_ratio_real(0.0, 1.0, 2.0, 1.0)


class TestCrossRatioB:
    def test_non_transverse_pair_rejected(self):
        x, y, z = circle_points(FORM1, 0.1, 1.2, 2.3)
        with pytest.raises(ein.NonTransverseError):
            cr.cross_ratio_b(FORM1, np.stack([x, y, z, y]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cocycle_property(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=5))
        if np.min(np.diff(angles)) < 0.1:
            return
        a, c0, d, c1, c2 = circle_points(FORM2, *angles)
        lhs = cr.cross_ratio_b(FORM2, np.stack([a, c0, d, c2]))
        rhs = (cr.cross_ratio_b(FORM2, np.stack([a, c0, d, c1]))
               * cr.cross_ratio_b(FORM2, np.stack([a, c1, d, c2])))
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_isometry_invariance(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=4))
        if np.min(np.diff(angles)) < 0.1:
            return
        pts = circle_points(FORM2, *angles)
        g = random_isometry(FORM2, rng)
        before = cr.cross_ratio_b(FORM2, pts)
        moved = ein.boundary_points(FORM2, [g.apply(p) for p in pts])
        after = cr.cross_ratio_b(FORM2, moved)
        assert after == pytest.approx(before, abs=1e-10 * (1 + abs(before)))

    def test_scaling_invariance_exact(self):
        # scaling a representative by a power of two, or negating it, moves
        # no bit of b
        pts = circle_points(FORM1, 0.3, 1.1, 2.9, 4.4)
        before = cr.cross_ratio_b(FORM1, pts)
        after = cr.cross_ratio_b(FORM1, pts * np.array([[2.0], [-0.5], [4.0], [-1.0]]))
        assert after == before

    def test_stack_matches_one_quadruple_at_a_time(self):
        angles = np.sort(np.random.default_rng(2).uniform(0, 2 * np.pi, size=(50, 4)), axis=1)
        X = np.stack([circle_points(FORM2, *row) for row in angles])
        got = cr.cross_ratio_b(FORM2, X)
        assert got.shape == (50,)
        assert np.array_equal(got, [cr.cross_ratio_b(FORM2, x) for x in X])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_chart_identity(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=4))
        if np.min(np.diff(angles)) < 0.15:
            return
        a, x, b, y = circle_points(FORM2, *angles)
        chart = ein.minkowski_chart(FORM2, a, b)
        ux = ein.minkowski_chart_inverse(FORM2, chart, x)
        uy = ein.minkowski_chart_inverse(FORM2, chart, y)
        ub = ein.minkowski_chart_inverse(FORM2, chart, b)
        val = cr.cross_ratio_b(FORM2, np.stack([a, x, b, y]))
        chart_val = ein.q1n(ub - uy) / ein.q1n(ub - ux)
        assert chart_val == pytest.approx(val, abs=1e-10 * (1 + abs(val)))

    def test_monotone_along_diamond(self):
        # b(a, b, ., c) decreases from u to v across the inner diamond
        a, b, u, x, v, c = circle_points(FORM1, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0)
        bu, bx, bv = cr.cross_ratio_b(FORM1, np.stack([[a, b, p, c] for p in (u, x, v)]))
        assert bv < bx < bu


class TestCircleMap:
    def test_canonical_circle_map_passes(self):
        dom = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        bmap = cr.circle_map(FORM1, dom)
        assert cr.circle_map_test(FORM1, bmap, tol=1e-10)

    def test_squared_identity_value(self):
        angles = [cr.value_to_angle(v) for v in (0.0, 1.0, math.inf, 2.0)]
        b = cr.cross_ratio_b(FORM1, circle_points(FORM1, *angles))
        assert b == pytest.approx(0.25, abs=1e-12)

    def test_crown_perturbed_loop_fails(self):
        crown = ein.barbot_crown_standard(1)
        loop = ein.crown_loop(crown, samples_per_edge=8)
        assert not cr.circle_map_test(FORM1, sample_map(loop), tol=1e-6)

    def test_too_few_samples(self):
        dom = np.array([0.0, 1.0, 2.0])
        bmap = cr.SampledBoundaryMap(dom, circle_points(FORM1, *dom))
        with pytest.raises(cr.InsufficientSamplesError):
            cr.circle_map_test(FORM1, bmap)

    @pytest.mark.parametrize("images", [10, 6])
    def test_sample_counts_checked_before_reordering(self, images):
        # more images than angles once dropped the extra ones silently, and
        # fewer raised IndexError
        dom = np.linspace(0, 2 * np.pi, 8, endpoint=False)[::-1]
        reps = circle_points(FORM1, *np.linspace(0, 2 * np.pi, images, endpoint=False))
        with pytest.raises(cr.GeometryError, match="sample counts differ"):
            cr.SampledBoundaryMap(dom, reps)

    @pytest.mark.parametrize("where,value", [("angle", np.nan), ("angle", np.inf),
                                             ("rep", np.nan)],
                             ids=["nan_angle", "inf_angle", "nan_rep"])
    def test_non_finite_samples_rejected(self, where, value):
        # a NaN angle once sorted last and passed, an infinite one warned in
        # the reduction mod 2 pi, and a NaN representative reached the
        # certificate as a degenerate triple
        dom = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        reps = circle_points(FORM1, *dom)
        (dom if where == "angle" else reps[3])[3] = value
        with pytest.raises(cr.GeometryError, match="must be finite"):
            cr.SampledBoundaryMap(dom, reps)

    def test_reorders_images_with_the_domain(self):
        dom = np.array([3.0, 1.0, 2.0, 0.5])
        bmap = cr.SampledBoundaryMap(dom, circle_points(FORM1, *dom))
        assert np.array_equal(bmap.domain, [0.5, 1.0, 2.0, 3.0])
        assert np.array_equal(bmap.reps, circle_points(FORM1, 0.5, 1.0, 2.0, 3.0))

    @pytest.mark.parametrize("kind,tol,expected", [
        ("circle", 1e-10, True), ("crown", 1e-6, False), ("wobble", 1e-6, False),
    ])
    def test_equals_per_quadruple_reference(self, kind, tol, expected):
        if kind == "circle":
            bmap = cr.circle_map(FORM1, np.linspace(0, 2 * np.pi, 64, endpoint=False))
        else:
            loop = (ein.crown_loop(ein.barbot_crown_standard(1), samples_per_edge=8)
                    if kind == "crown" else make_wobble(k=64))
            bmap = sample_map(loop)
        assert cr.circle_map_test(FORM1, bmap, tol=tol) is expected
        assert circle_map_test_reference(FORM1, bmap, tol=tol) is expected

    def test_solved_circle_boundary_equals_reference(self, solved_circle):
        bmap, _ = diag.boundary_extension(solved_circle, seed=5)
        assert cr.circle_map_test(FORM1, bmap, tol=1e-6)
        assert circle_map_test_reference(FORM1, bmap, tol=1e-6)

    def test_quadruple_spread_is_sorted_and_capped(self):
        quads = cr._quadruple_indices(40, 200)
        assert len(quads) == 200 and len(set(quads)) == 200
        assert all(q == tuple(sorted(q)) and len(set(q)) == 4 for q in quads)
        assert quads[:2] == [(0, 3, 6, 9), (0, 3, 6, 12)]
        assert cr._quadruple_indices(3, 10) == []


class _CountingRng:
    """A seeded generator that counts the rows of indices drawn from it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.rows = 0

    def integers(self, low, high, size):
        self.rows += size[0]
        return self.rng.integers(low, high, size=size)


def _geometric_map(k=8):
    # samples at 30^-j: every sorted quadruple has |cross-ratio| near the
    # ratio of two samples, below 1/20, so no quadruple lies in [1/2, 2]
    return cr.circle_map(FORM1, 30.0 ** -np.arange(k))


class TestWindowQuadruples:
    @pytest.mark.parametrize("kind,seed", [("circle", 0), ("circle", 3), ("wobble", 1)])
    def test_rows_sorted_distinct_and_in_window(self, kind, seed):
        if kind == "circle":
            bmap = cr.circle_map(FORM1, np.linspace(0, 2 * np.pi, 72, endpoint=False))
        else:
            bmap = sample_map(make_wobble(k=96))
        A = 2.0
        rng = _CountingRng(seed)
        quads = cr._window_quadruples(rng, bmap.domain, A, 1500)
        assert quads.shape == (1500, 4)
        assert np.all(np.diff(quads, axis=1) > 0)
        assert rng.rows <= 80 * 1500
        for row in quads:
            r = cr.cross_ratio_angles(*(bmap.domain[t] for t in row))
            assert 1.0 / A <= abs(r) <= A

    def test_same_seed_same_rows(self):
        dom = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        q1 = cr._window_quadruples(np.random.default_rng(5), dom, 2.0, 400)
        q2 = cr._window_quadruples(np.random.default_rng(5), dom, 2.0, 400)
        q3 = cr._window_quadruples(np.random.default_rng(6), dom, 2.0, 400)
        assert np.array_equal(q1, q2)
        assert not np.array_equal(q1, q3)

    def test_uniform_over_four_subsets(self):
        # with the widest window every drawn 4-subset of 6 samples is kept;
        # each of the 15 subsets should appear about 6000 / 15 = 400 times
        dom = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        quads = cr._window_quadruples(np.random.default_rng(0), dom, 1e300, 6000)
        _, counts = np.unique(quads, axis=0, return_counts=True)
        assert len(counts) == 15
        assert np.all(np.abs(counts - 400) < 100)

    def test_budget_spent_when_no_row_fits(self):
        bmap = _geometric_map()
        rng = _CountingRng(0)
        assert len(cr._window_quadruples(rng, bmap.domain, 2.0, 10)) == 0
        assert rng.rows == 800

    def test_unsatisfiable_map_raises(self):
        with pytest.raises(cr.InsufficientSamplesError):
            cr.qs_certify(FORM1, _geometric_map(), A=2.0, n_quadruples=50, rng_seed=0)


class TestQSCertify:
    def test_circle_map_certificate(self):
        dom = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        bmap = cr.circle_map(FORM1, dom)
        cert = cr.qs_certify(FORM1, bmap, A=2.0, n_quadruples=1500, rng_seed=11)
        assert cert.B <= 4.0 + 1e-9
        assert cert.B >= 3.0  # the extremal value 4 = A^2 is approached
        assert cert.quadruples_tested == 1500

    def test_deterministic_given_seed(self):
        dom = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        bmap = cr.circle_map(FORM1, dom)
        c1 = cr.qs_certify(FORM1, bmap, A=2.0, n_quadruples=400, rng_seed=5)
        c2 = cr.qs_certify(FORM1, bmap, A=2.0, n_quadruples=400, rng_seed=5)
        assert c1 == c2

    def test_projective_precomposition_stable(self):
        dom = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        bmap = cr.circle_map(FORM1, dom)
        cert = cr.qs_certify(FORM1, bmap, A=2.0, n_quadruples=800, rng_seed=3)
        # precompose the domain with a projective map: same circle image,
        # same certificate bound
        vals = [math.tan(t / 2 + 0.4) for t in dom]
        dom2 = np.sort([cr.value_to_angle(1.0 / max(v, 1e-9)) if v > 0 else cr.value_to_angle(v)
                        for v in vals])
        bmap2 = cr.circle_map(FORM1, np.linspace(0.3, 0.3 + 2 * np.pi, 64, endpoint=False))
        cert2 = cr.qs_certify(FORM1, bmap2, A=2.0, n_quadruples=800, rng_seed=3)
        assert cert2.B <= 4.0 + 1e-9

    def test_semipositive_loop_rejected(self):
        crown = ein.barbot_crown_standard(1)
        bmap = sample_map(ein.crown_loop(crown, samples_per_edge=16))
        with pytest.raises((cr.NonPositiveMapError, DegenerateTripleError)):
            cr.qs_certify(FORM1, bmap, A=2.0, n_quadruples=200, rng_seed=1)


class TestContraction:
    def test_nested_diamonds_bound(self):
        # inner endpoints chosen inside the (b, c) diamond with controlled ratio
        a, b, c, x, y = circle_points(FORM1, 0.0, 2.0, 4.0, 2.55, 3.45)
        bx, by = cr.cross_ratio_b(FORM1, np.stack([[a, b, x, c], [a, b, y, c]]))
        B = max(bx, 1 / bx, by, 1 / by) * 1.01
        rep = cr.contraction_check(FORM1, (a, b, c), (a, x, y), B)
        assert rep.max_ratio <= rep.bound + 1e-6

    def test_chord_closed_form_at_unit_lambda(self):
        # at lambda = 1 the chord fraction attains the bound (B-1)/(B+1)
        assert cr.lightlike_chord_formula(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        # and matches the difference of the interval endpoints
        lo = 1.0 / (2.0 / 1.0 + 1.0)
        hi = 1.0 / (1.0 / 2.0 + 1.0)
        assert cr.lightlike_chord_formula(2.0, 1.0) == pytest.approx(hi - lo, abs=1e-15)

    def test_chord_measurement_matches_formula(self):
        measured, formula = cr._lightlike_chord_ratio(FORM1.n, 2.0)
        assert measured == pytest.approx(formula, abs=1e-8)

    def test_violated_window_rejected(self):
        # x and y give extreme cross-ratios, so a tiny B fails
        a, b, c, x, y = circle_points(FORM1, 0.0, 2.0, 4.0, 2.05, 3.95)
        with pytest.raises(cr.GeometryError):
            cr.contraction_check(FORM1, (a, b, c), (a, x, y), B=1.2)


class TestBatchedCertificate:
    """`qs_certify` tests its quadruples as arrays; the scalar reference
    tests the same draw one quadruple at a time with `quadruple_positive`
    and `cross_ratio_b`."""

    @pytest.mark.parametrize("n,kind,k,seed", [
        (1, "circle", 48, 13), (1, "circle", 96, 0), (2, "circle", 64, 4),
        (1, "wobble", 96, 2), (2, "wobble", 96, 7), (3, "wobble", 80, 1),
    ])
    def test_equals_per_quadruple_reference(self, n, kind, k, seed):
        form = BilinearForm(n)
        dom = np.linspace(0, 2 * np.pi, k, endpoint=False)
        if kind == "circle":
            bmap = cr.circle_map(form, dom)
        else:
            bmap = sample_map(make_wobble(n=n, k=k))
        cert = cr.qs_certify(form, bmap, A=2.0, n_quadruples=600, rng_seed=seed)
        assert cert == certify_reference(form, bmap, A=2.0, n_quadruples=600, rng_seed=seed)
        assert cert.quadruples_tested == 600

    @pytest.mark.parametrize("kind,seed", [("crown", s) for s in range(4)] +
                             [("scrambled", s) for s in range(2)])
    def test_non_positive_map_raises_like_reference(self, kind, seed):
        # the crown has degenerate sub-triples; the scrambled circle map has
        # positive ones in the wrong cyclic order
        if kind == "crown":
            bmap = sample_map(ein.crown_loop(ein.barbot_crown_standard(1), samples_per_edge=16))
        else:
            dom = np.linspace(0, 2 * np.pi, 32, endpoint=False)
            perm = np.random.default_rng(seed).permutation(32)
            bmap = cr.SampledBoundaryMap(dom, circle_points(FORM1, *dom[perm]))
        with pytest.raises((cr.NonPositiveMapError, DegenerateTripleError)) as ref:
            certify_reference(FORM1, bmap, A=2.0, n_quadruples=200, rng_seed=seed)
        with pytest.raises((cr.NonPositiveMapError, DegenerateTripleError)) as got:
            cr.qs_certify(FORM1, bmap, A=2.0, n_quadruples=200, rng_seed=seed)
        assert type(got.value) is type(ref.value)
        expected = DegenerateTripleError if kind == "crown" else cr.NonPositiveMapError
        assert type(got.value) is expected

    def test_adjacent_swap_rejected_at_every_seed(self):
        # swapping the images of two neighbouring samples leaves most drawn
        # quadruples positive, so a draw can miss every bad one; the map
        # check sees the swap whatever the seed
        dom = np.linspace(0, 2 * np.pi, 96, endpoint=False)
        img = dom.copy()
        img[[10, 11]] = img[[11, 10]]
        bmap = cr.SampledBoundaryMap(dom, circle_points(FORM1, *img))
        for seed in range(50):
            with pytest.raises(cr.NonPositiveMapError):
                cr.qs_certify(FORM1, bmap, A=2.0, n_quadruples=1500, rng_seed=seed)


def _swapped(bmap, i, j):
    reps = bmap.reps.copy()
    reps[[i, j]] = reps[[j, i]]
    return cr.SampledBoundaryMap(bmap.domain, reps)


def _small_circle(n, k, sign=1.0):
    dom = np.linspace(0, 2 * np.pi, k, endpoint=False)
    return cr.SampledBoundaryMap(dom, ein.circle_points(BilinearForm(n), sign * dom))


def _fast_map(n, k, freq):
    # fibers turning `freq` times as fast as the circle: not contracting
    th = np.linspace(0, 2 * np.pi, k, endpoint=False)
    fib = np.zeros((k, n + 1))
    fib[:, 0], fib[:, 1] = np.cos(freq * th), np.sin(freq * th)
    return sample_map(ein.LipschitzLoop(th, fib))


def _reversed_wobble(n, k):
    bmap = sample_map(make_wobble(n=n, k=k))
    return cr.SampledBoundaryMap(bmap.domain, bmap.reps[::-1])


_SMALL_MAPS = {
    "circle-n1": (1, lambda: _small_circle(1, 8)),
    "wobble-n2": (2, lambda: sample_map(make_wobble(n=2, k=10))),
    "wobble-n3": (3, lambda: sample_map(make_wobble(n=3, k=9))),
    "adjacent-swap-n1": (1, lambda: _swapped(_small_circle(1, 10), 3, 4)),
    "adjacent-swap-n3": (3, lambda: _swapped(sample_map(make_wobble(n=3, k=10)), 0, 1)),
    "far-swap-n2": (2, lambda: _swapped(sample_map(make_wobble(n=2, k=10)), 1, 6)),
    "reversed-n1": (1, lambda: _small_circle(1, 9, sign=-1.0)),
    "reversed-n2": (2, lambda: _reversed_wobble(2, 10)),
    "non-contracting-n1": (1, lambda: _fast_map(1, 10, 2)),
    "non-contracting-n2": (2, lambda: _fast_map(2, 9, 3)),
    "crown-n1": (1, lambda: sample_map(ein.crown_loop(ein.barbot_crown_standard(1), 2))),
    "crown-n2": (2, lambda: sample_map(ein.crown_loop(ein.barbot_crown_standard(2), 2))),
}


@pytest.mark.parametrize("name", list(_SMALL_MAPS))
def test_certifies_exactly_when_every_quadruple_is_positive(name):
    """On small maps, `qs_certify` certifies exactly when every 4-subset in
    domain order passes the scalar `quadruple_positive`, and otherwise raises
    what the first failing 4-subset raises, or NonPositiveMapError where it
    is merely out of order."""
    n, build = _SMALL_MAPS[name]
    form = BilinearForm(n)
    bmap = build()
    assert bmap.size <= 10
    expected = None
    try:
        for sel in itertools.combinations(range(bmap.size), 4):
            if not quadruple_positive(form, *bmap.reps[list(sel)]):
                expected = cr.NonPositiveMapError
                break
    except GeometryError as err:
        expected = type(err)
    if expected is None:
        cert = cr.qs_certify(form, bmap, A=2.0, n_quadruples=50, rng_seed=0)
        assert cert.quadruples_tested > 0
    else:
        with pytest.raises(GeometryError) as got:
            cr.qs_certify(form, bmap, A=2.0, n_quadruples=50, rng_seed=0)
        assert type(got.value) is expected
