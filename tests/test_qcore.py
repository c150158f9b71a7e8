import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplateau.qcore import (
    BilinearForm,
    DegenerateCrownError,
    DegenerateTripleError,
    DimensionMismatchError,
    isometry_defect,
    random_isometry,
    reference_triple,
    standardize_triple,
    subspace_signature,
)


def crown_reps(n):
    s = 1.0 / (2.0 * np.sqrt(2.0))
    z = np.zeros((4, n + 3))
    z[0, 0], z[0, 2] = s, s
    z[1, 1], z[1, 3] = s, s
    z[2, 0], z[2, 2] = -s, s
    z[3, 1], z[3, 3] = -s, s
    return z


class TestBilinear:
    def test_positive_basis_direction(self):
        form = BilinearForm(1)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert form.inner(e1, e1) == 1.0

    def test_negative_basis_direction(self):
        form = BilinearForm(1)
        e3 = np.array([0.0, 0.0, 1.0, 0.0])
        assert form.inner(e3, e3) == -1.0

    def test_crown_diagonal_pairing(self):
        form = BilinearForm(1)
        z = crown_reps(1)
        assert form.inner(z[0], z[2]) == pytest.approx(-0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        form = BilinearForm(1)
        with pytest.raises(DimensionMismatchError):
            form.inner(np.ones(3), np.ones(4))

    @given(st.integers(0, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_exact_symmetry(self, n, seed):
        form = BilinearForm(n)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=form.dim)
        v = rng.normal(size=form.dim)
        assert form.inner(u, v) == form.inner(v, u)


class TestInnerRows:
    @pytest.mark.parametrize("shape", [(4,), (9, 4), (55008, 4), (30, 8, 4)])
    def test_dim4_equals_einsum_bitwise(self, shape):
        form = BilinearForm(1)
        rng = np.random.default_rng(len(shape))
        U, V = rng.normal(size=shape), rng.normal(size=shape)
        want = np.einsum("...i,...i->...", U * form.signs, V)
        assert np.array_equal(form.inner_rows(U, V), want)
        # a broadcast operand, as the star pass of the geometry uses it
        if len(shape) > 1:
            W = V[..., :1, :]
            assert np.array_equal(form.inner_rows(U, W), np.einsum(
                "...i,...i->...", U * form.signs, np.broadcast_to(W, shape)))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_stack_equals_rows(self, n):
        form = BilinearForm(n)
        rng = np.random.default_rng(n)
        U, V = rng.normal(size=(2, 12, form.dim))
        got = form.inner_rows(U, V)
        assert got.shape == (12,)
        assert np.array_equal(got, [form.inner_rows(u, v) for u, v in zip(U, V)])
        # one vector against the stack, and a 3-d stack against a 2-d one
        assert np.array_equal(form.inner_rows(U, V[0]), [form.inner_rows(u, V[0]) for u in U])
        stack = U.reshape(3, 4, form.dim)
        assert np.array_equal(form.inner_rows(stack, V[:4]).ravel(),
                              [form.inner_rows(u, v) for u, v in zip(U, np.tile(V[:4], (3, 1)))])
        # and within rounding of the form's definition
        assert np.allclose(got, [form.inner(u, v) for u, v in zip(U, V)], rtol=0, atol=1e-13)


class TestSubspaceSignature:
    def test_positive_plane(self):
        form = BilinearForm(2)
        e1 = np.eye(form.dim)[0]
        e2 = np.eye(form.dim)[1]
        assert subspace_signature(form, [e1, e2]) == (2, 0, 0)

    def test_isotropic_plane_from_crown(self):
        form = BilinearForm(1)
        z = crown_reps(1)
        assert subspace_signature(form, [z[0], z[1]]) == (0, 0, 2)

    def test_crown_span_type(self):
        form = BilinearForm(1)
        assert subspace_signature(form, crown_reps(1)) == (2, 2, 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_isometries(self, seed):
        form = BilinearForm(2)
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(3, form.dim))
        g = random_isometry(form, rng)
        before = subspace_signature(form, vecs)
        after = subspace_signature(form, vecs @ g.matrix.T)
        assert before == after


class TestStandardizeTriple:
    def test_reference_maps_to_itself(self):
        form = BilinearForm(1)
        ref = reference_triple(form)
        g = standardize_triple(ref, form)
        assert np.allclose(g.matrix, np.eye(form.dim), atol=1e-10)

    @given(st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_recovers_reference_after_random_motion(self, n, seed):
        form = BilinearForm(n)
        rng = np.random.default_rng(seed)
        g = random_isometry(form, rng)
        moved = reference_triple(form) @ g.matrix.T
        h = standardize_triple(moved, form)
        ref = reference_triple(form)
        for k in range(3):
            img = h.apply(moved[k])
            # compare as projective points
            scale = img @ ref[k] / (ref[k] @ ref[k])
            assert np.max(np.abs(img - scale * ref[k])) < 1e-9

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_output_is_isometry(self, seed):
        form = BilinearForm(1)
        rng = np.random.default_rng(seed)
        g = random_isometry(form, rng)
        moved = reference_triple(form) @ g.matrix.T
        h = standardize_triple(moved, form)
        assert isometry_defect(form, h.matrix) < 1e-10
        assert abs(np.linalg.det(h.matrix) - 1.0) < 1e-10

    def test_rejects_non_positive_triple(self):
        form = BilinearForm(1)
        z = crown_reps(1)
        with pytest.raises(DegenerateTripleError):
            standardize_triple([z[0], z[1], z[2]], form)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_form_preserved_on_random_pairs(self, seed):
        form = BilinearForm(2)
        rng = np.random.default_rng(seed)
        g = random_isometry(form, rng)
        moved = reference_triple(form) @ g.matrix.T
        h = standardize_triple(moved, form)
        u = rng.normal(size=form.dim)
        v = rng.normal(size=form.dim)
        b0 = form.inner(u, v)
        b1 = form.inner(h.apply(u), h.apply(v))
        assert abs(b1 - b0) <= 1e-8 * (1.0 + abs(b0))
