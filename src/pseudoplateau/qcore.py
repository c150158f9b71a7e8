"""Exact linear algebra over the diagonal form of signature (2, n+1).

Everything downstream lives in E = R^{n+3} with the quadratic form

    q(x) = x_1^2 + x_2^2 - x_3^2 - ... - x_{n+3}^2.

This module owns the form itself, signatures of subspaces, and the
canonical basis attached to a positive boundary triple, with the isometry
that standardises it, computed for a whole stack of triples at once.
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


def subspace_signature(form: BilinearForm, vectors, tol: float = NULL_EIGENVALUE_RTOL
                       ) -> tuple[int, int, int] | np.ndarray:
    """The signature (positive, negative, null) of the span of `vectors`,
    from the eigenvalues of their Gram matrix; eigenvalues below tol
    (relative to the largest magnitude) count as null.

    `vectors` is a (k, dim) list or array, giving a tuple, or a stack of
    them (..., k, dim), giving an (..., 3) array whose rows are the
    signatures of the stack's members, each equal to the tuple for that
    member alone."""
    V = np.ascontiguousarray(vectors, dtype=float)
    if V.ndim < 2 or V.shape[-2] == 0:
        raise GeometryError("empty vector list")
    eig = np.linalg.eigvalsh((V * form.signs) @ V.swapaxes(-1, -2))
    # the relative cutoff needs a floor at the vectors' own scale: an exactly
    # isotropic Gram comes back as pure rounding noise, and noise must not
    # set the reference magnitude
    vec_scale = norm_rows(V).max(axis=-1)
    cutoff = (tol * np.maximum(np.abs(eig).max(axis=-1), vec_scale**2))[..., None]
    sig = ((eig > cutoff).sum(axis=-1), (eig < -cutoff).sum(axis=-1),
           (np.abs(eig) <= cutoff).sum(axis=-1))
    return tuple(int(c) for c in sig) if V.ndim == 2 else np.stack(sig, axis=-1)


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


def standardize_triples(triples, form: BilinearForm) -> tuple[np.ndarray, np.ndarray]:
    """The isometries carrying a stack of positive triples onto the reference
    triple, as a (T, dim, dim) array, with a (T,) mask of the rows that
    standardise; a masked-out row is zero.

    A row standardises when its span has signature (2, 1, 0). Its
    representatives are then signed so that every pair pairs negatively
    (possible exactly for a positive triple) and rescaled so that every
    pairing is -3/2. That pins the frame (e1, e2, e3) of the span with
    e1 + e3, -e1/2 + sqrt(3)/2 e2 + e3 and -e1/2 - sqrt(3)/2 e2 + e3 on the
    three lines. The frame is completed to a basis of E by Gram-Schmidt over
    the standard basis, in natural order, skipping a candidate whose form
    value is below 1e-10, and the overall determinant is fixed to +1, so for
    a triple of the reference orientation the result lies in the identity
    component. The adapted basis is inverted as Q M^T Q and polished back
    onto the isometry group, since ill-conditioned triples lose a few digits
    in Gram-Schmidt; a row whose defect still exceeds ISOMETRY_ATOL is
    masked out.

    Each row is computed only from its own triple, with every form product a
    `dot_rows` product, so row i equals the i-th triple standardised alone.
    Each stage runs on the rows still live, so a degenerate row never
    reaches the arithmetic that it would turn into NaNs.
    """
    U = np.array(triples, dtype=float)
    d = form.dim
    if U.ndim != 3 or U.shape[2] != d:
        raise DimensionMismatchError(f"expected a stack of triples in R^{d}, got shape {U.shape}")
    if U.shape[1] != 3:
        raise DegenerateTripleError(f"a triple has three points, got {U.shape[1]}")
    S = form.signs
    live = np.nonzero((subspace_signature(form, U) == (2, 1, 0)).all(axis=1))[0]

    # signs making every pairwise product negative; negating a vector
    # negates its products exactly
    u0, u1, u2 = U[live, 0], U[live, 1], U[live, 2]
    p01, p02 = dot_rows(S * u0, u1), dot_rows(S * u0, u2)
    u1 = np.where((p01 > 0)[:, None], -u1, u1)
    u2 = np.where((p02 > 0)[:, None], -u2, u2)
    p12 = dot_rows(S * u1, u2)
    ok = (p01 != 0.0) & (p02 != 0.0) & (p12 < 0.0)
    live, u0, u1, u2 = live[ok], u0[ok], u1[ok], u2[ok]
    p01, p02, p12 = -np.abs(p01[ok]), -np.abs(p02[ok]), p12[ok]

    # scalars a, b, c > 0 with (a u0).(b u1) = (a u0).(c u2) = (b u1).(c u2) = -3/2
    a = np.sqrt(-1.5 * p12 / (p01 * p02))
    w0 = a[:, None] * u0
    w1 = (-1.5 / (a * p01))[:, None] * u1
    w2 = (-1.5 / (a * p02))[:, None] * u2
    e3 = (w0 + w1 + w2) / 3.0
    # B's rows are the adapted basis, `count` of them filled in per row, and
    # qb their form values
    B = np.zeros((len(live), d, d))
    B[:, 0], B[:, 1], B[:, 2] = w0 - e3, (w1 - w2) / np.sqrt(3.0), e3
    qb = np.zeros((len(live), d))
    qb[:, :3] = dot_rows(S * B[:, :3], B[:, :3])
    count = np.full(len(live), 3)
    for k in range(d):
        r = np.nonzero(count < d)[0]
        if r.size == 0:
            break
        cand = np.zeros((r.size, d))
        cand[:, k] = 1.0
        Br, qr, cr = B[r], qb[r], count[r]
        least = cr.min()
        for j in range(cr.max()):
            s = slice(None) if j < least else cr > j
            b = Br[s, j]
            cand[s] -= (dot_rows(S * cand[s], b) / qr[s, j])[:, None] * b
        qc = np.abs(dot_rows(S * cand, cand))
        keep = qc >= 1e-10
        r, cand = r[keep], cand[keep] / np.sqrt(qc[keep])[:, None]
        # deterministic sign: first coordinate of largest magnitude positive
        lead = cand[np.arange(r.size), np.abs(cand).argmax(axis=1)]
        cand = np.where((lead < 0)[:, None], -cand, cand)
        B[r, count[r]] = cand
        qb[r, count[r]] = dot_rows(S * cand, cand)
        count[r] += 1
    full = count == d
    live, M = live[full], np.ascontiguousarray(B[full].transpose(0, 2, 1))
    flip = np.linalg.det(M) < 0
    if d > 3:
        M[flip, :, -1] = -M[flip, :, -1]
    else:
        M[flip] = -M[flip]

    # M maps the standard basis to the adapted one; the standardizer is its
    # inverse
    Q, eye = form.matrix, np.eye(d)
    g = Q @ M.transpose(0, 2, 1) @ Q
    polish = np.arange(len(live))
    for _ in range(2):
        gp = g[polish]
        E = Q @ gp.transpose(0, 2, 1) @ Q @ gp - eye
        more = np.abs(E).max(axis=(1, 2)) >= 1e-14
        polish = polish[more]
        g[polish] = gp[more] @ (eye - 0.5 * E[more])
    defect = np.abs(g.transpose(0, 2, 1) @ Q @ g - Q).max(axis=(1, 2))
    ok = defect <= ISOMETRY_ATOL
    G, mask = np.zeros((len(U), d, d)), np.zeros(len(U), dtype=bool)
    G[live[ok]], mask[live[ok]] = g[ok], True
    return G, mask


def standardize_triple(triple, form: BilinearForm) -> Isometry:
    """The isometry carrying a positive triple onto the reference triple:
    `standardize_triples` on a stack of one, raising DegenerateTripleError
    where that row is masked out."""
    G, mask = standardize_triples([triple], form)
    if not mask[0]:
        raise DegenerateTripleError("not a positive triple, or its standardizer is degenerate")
    return Isometry(G[0])
