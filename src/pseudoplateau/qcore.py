"""Exact linear algebra over the diagonal form of signature (2, n+1).

Everything downstream lives in E = R^{n+3} with the quadratic form

    q(x) = x_1^2 + x_2^2 - x_3^2 - ... - x_{n+3}^2.

This module owns the form itself, signatures of subspaces, and the
canonical basis attached to a positive boundary triple, with the isometry
that standardises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Base class for contract violations in geometric operations."""


class DimensionMismatchError(GeometryError):
    pass


class DegenerateTripleError(GeometryError):
    """Raised when an operation requires a positive triple and gets none."""


class DegenerateCrownError(GeometryError):
    pass


NULL_EIGENVALUE_RTOL = 1e-9

# The largest entry of M^T Q M - Q at which a matrix counts as an isometry.
ISOMETRY_ATOL = 1e-8


def _as_vector(v) -> np.ndarray:
    """The vector or stack of vectors v as a float array."""
    return np.asarray(v, dtype=float)


def _rows(values):
    """A stack of row results as an array, a single one as a Python scalar."""
    return np.asarray(values).item() if np.ndim(values) == 0 else values


def dot_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean dot products of two stacks (..., d), or of two
    vectors, broadcast against each other.

    Each row is a (1, d) by (d, 1) matmul, which gives np.dot's value to the
    bit; a sum over X * Y, or np.linalg.norm along an axis, can differ from
    it in the last place.
    """
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def norm_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms, equal to the bit to np.linalg.norm of each
    row on its own."""
    return np.sqrt(dot_rows(X, X))


@dataclass(frozen=True)
class BilinearForm:
    """The diagonal form diag(+, +, -, ..., -) on R^{n+3}."""

    n: int
    signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise GeometryError("negative boundary dimension")
        signs = np.ones(self.n + 3)
        signs[2:] = -1.0
        object.__setattr__(self, "signs", signs)

    @property
    def dim(self) -> int:
        return self.n + 3

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.signs)

    def inner(self, u, v) -> float:
        """Evaluate the bilinear form. Exactly symmetric in its arguments:
        the summand array is bitwise identical either way round."""
        u = _as_vector(u)
        v = _as_vector(v)
        if u.shape[-1] != self.dim or v.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected vectors of length {self.dim}, "
                f"got {u.shape[-1]} and {v.shape[-1]}"
            )
        return float(np.dot(self.signs * u, v))

    def inner_rows(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise form products of two stacks of vectors (or of two
        vectors), broadcast against each other.

        The columns of U * V are combined one at a time: (0 - 2) + (1 - 3),
        then the rest subtracted in order. At dims 3 and 4 this is the order
        in which numpy's einsum sums a row, so there the values equal
        einsum's to the bit; the column arithmetic costs less than einsum
        on long stacks.
        """
        P = U * V
        if self.dim == 3:
            return (P[..., 0] - P[..., 2]) + P[..., 1]
        out = (P[..., 0] - P[..., 2]) + (P[..., 1] - P[..., 3])
        for k in range(4, self.dim):
            out = out - P[..., k]
        return out

    def q(self, u) -> float:
        return self.inner(u, u)

    def aux_norm(self, u) -> float:
        """Euclidean norm from the product splitting (all signs +1)."""
        return float(np.linalg.norm(_as_vector(u)))

    def gram(self, vectors) -> np.ndarray:
        V = np.asarray([_as_vector(v) for v in vectors])
        return (V * self.signs) @ V.T

    def project_out(self, v: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
        """q-orthogonal projection of v away from a q-orthonormal basis
        (each basis vector must have q = +1 or -1)."""
        out = v.astype(float).copy()
        for b in basis:
            out -= (self.inner(out, b) / self.q(b)) * b
        return out


def subspace_signature(form: BilinearForm, vectors,
                       tol: float = NULL_EIGENVALUE_RTOL) -> tuple[int, int, int]:
    """The signature (positive, negative, null) of the span of `vectors`,
    from the eigenvalues of their Gram matrix; eigenvalues below tol
    (relative to the largest magnitude) count as null."""
    vecs = [_as_vector(v) for v in vectors]
    if len(vecs) == 0:
        raise GeometryError("empty vector list")
    gram = form.gram(vecs)
    eig = np.linalg.eigvalsh(gram)
    # the relative cutoff needs a floor at the vectors' own scale: an exactly
    # isotropic Gram comes back as pure rounding noise, and noise must not
    # set the reference magnitude
    vec_scale = max(form.aux_norm(v) for v in vecs)
    cutoff = tol * max(np.max(np.abs(eig)), vec_scale**2)
    return (int(np.sum(eig > cutoff)), int(np.sum(eig < -cutoff)),
            int(np.sum(np.abs(eig) <= cutoff)))


@dataclass(frozen=True)
class Isometry:
    """A linear map preserving the form."""

    matrix: np.ndarray

    def apply(self, v) -> np.ndarray:
        return self.matrix @ _as_vector(v)


def isometry_from_matrix(form: BilinearForm, M: np.ndarray) -> Isometry:
    defect = isometry_defect(form, M)
    if defect > ISOMETRY_ATOL:
        raise GeometryError(f"matrix does not preserve the form (defect {defect:.2e})")
    return Isometry(M)


def isometry_defect(form: BilinearForm, M: np.ndarray) -> float:
    Q = form.matrix
    return float(np.max(np.abs(M.T @ Q @ M - Q)))


def random_isometry(form: BilinearForm, rng: np.random.Generator, scale: float = 0.5) -> Isometry:
    """A pseudo-random element of the identity component, via the exponential
    of a random element of the Lie algebra."""
    from scipy.linalg import expm

    d = form.dim
    K = rng.normal(size=(d, d)) * scale
    K = K - K.T
    A = np.diag(form.signs) @ K
    return isometry_from_matrix(form, expm(A))


def reference_triple(form: BilinearForm) -> np.ndarray:
    """Representatives of the fixed reference triple: the ideal vertices of
    the equilateral triangle on the standard circle through e1, e2, e3."""
    d = form.dim
    z = np.zeros((3, d))
    z[0, 0], z[0, 2] = 1.0, 1.0
    z[1, 0], z[1, 1], z[1, 2] = -0.5, np.sqrt(3.0) / 2.0, 1.0
    z[2, 0], z[2, 1], z[2, 2] = -0.5, -np.sqrt(3.0) / 2.0, 1.0
    return z


def consistent_lifts(form: BilinearForm, triple) -> np.ndarray:
    """Rescale signs of the three representatives so all pairwise products
    are negative. Possible exactly when the product of the three pairwise
    products is negative, which holds for every positive triple."""
    u = np.array([_as_vector(t) for t in triple], dtype=float)
    p01 = form.inner(u[0], u[1])
    p02 = form.inner(u[0], u[2])
    if p01 == 0.0 or p02 == 0.0:
        raise DegenerateTripleError("triple contains a non-transverse pair")
    if p01 > 0:
        u[1] = -u[1]
    if p02 > 0:
        u[2] = -u[2]
    p12 = form.inner(u[1], u[2])
    if p12 == 0.0:
        raise DegenerateTripleError("triple contains a non-transverse pair")
    if p12 > 0:
        raise DegenerateTripleError("pairwise products cannot be made negative; triple is not positive")
    return u


def triple_frame(form: BilinearForm, triple) -> np.ndarray:
    """The orthonormal frame (e1, e2, e3) of span(triple), pinned by
    requiring e1+e3, -e1/2 + sqrt(3)/2 e2 + e3, -e1/2 - sqrt(3)/2 e2 + e3
    to lie on the three given isotropic lines (rows of the result)."""
    u = consistent_lifts(form, triple)
    p01 = form.inner(u[0], u[1])
    p02 = form.inner(u[0], u[2])
    p12 = form.inner(u[1], u[2])
    # scalars a, b, c > 0 with (a u0).(b u1) = (a u0).(c u2) = (b u1).(c u2) = -3/2
    a = np.sqrt(-1.5 * p12 / (p01 * p02))
    b = -1.5 / (a * p01)
    c = -1.5 / (a * p02)
    w0, w1, w2 = a * u[0], b * u[1], c * u[2]
    e3 = (w0 + w1 + w2) / 3.0
    e1 = w0 - e3
    e2 = (w1 - w2) / np.sqrt(3.0)
    return np.array([e1, e2, e3])


def standardize_triple(triple, form: BilinearForm) -> Isometry:
    """The isometry carrying a positive triple onto the reference triple.

    The adapted frame is completed to a basis of E by Gram-Schmidt over the
    standard basis, in natural order, and the overall determinant is fixed
    to +1. For triples inducing the reference orientation the result lies in
    the identity component.
    """
    vecs = [_as_vector(t) for t in triple]
    sig = subspace_signature(form, vecs)
    if sig != (2, 1, 0):
        raise DegenerateTripleError(f"not a positive triple: signature {sig}")
    e = triple_frame(form, vecs)
    basis = [e[0], e[1], e[2]]
    for k in range(form.dim):
        if len(basis) == form.dim:
            break
        cand = np.zeros(form.dim)
        cand[k] = 1.0
        cand = form.project_out(cand, basis)
        qc = form.q(cand)
        if abs(qc) < 1e-10:
            continue
        cand = cand / np.sqrt(abs(qc))
        # deterministic sign: first coordinate of largest magnitude positive
        lead = cand[np.argmax(np.abs(cand))]
        if lead < 0:
            cand = -cand
        basis.append(cand)
    if len(basis) != form.dim:
        raise DegenerateTripleError("failed to complete the adapted frame to a basis")
    M = np.column_stack(basis)
    if np.linalg.det(M) < 0:
        if form.dim > 3:
            M[:, -1] = -M[:, -1]
        else:
            M = -M
    # M maps the standard basis to the adapted one; the standardizer is its
    # inverse. Ill-conditioned triples lose a few digits in Gram-Schmidt, so
    # polish back onto the isometry group before validating.
    Q = form.matrix
    g = Q @ M.T @ Q
    for _ in range(2):
        E = Q @ g.T @ Q @ g - np.eye(form.dim)
        if np.max(np.abs(E)) < 1e-14:
            break
        g = g @ (np.eye(form.dim) - 0.5 * E)
    defect = isometry_defect(form, g)
    if defect > ISOMETRY_ATOL:
        raise DegenerateTripleError(f"standardizer defect {defect:.2e} exceeds tolerance")
    return Isometry(g)
