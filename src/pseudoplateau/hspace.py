"""The pseudo-hyperbolic space H^{2,n}: unit-timelike lines of the form.

Points are stored as q = -1 representatives. Alongside points, distances
and horofunctions, this module carries the flat orbit surfaces spanned by
photon quadrilaterals, on which the solver places crown data, and the
polar-fiber points from which it builds its initial surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import BilinearForm, GeometryError, _as_vector, _rows
from .einstein import BarbotCrown


class HorofunctionDomainError(GeometryError):
    pass


class FrameError(GeometryError):
    pass


# The largest |q(z0)| of a unit horofunction vector z0.
HOROFUNCTION_ISOTROPY_ATOL = 1e-8

# The largest entry by which a frame's Gram matrix may miss diag(+-1).
FRAME_ATOL = 1e-8


@dataclass(frozen=True)
class HPoint:
    """A point of H^{2,n}, stored as a q = -1 representative."""

    rep: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rep", np.asarray(self.rep, dtype=float))


def spatial_distance(form: BilinearForm, x, y):
    """arccosh of the pairing on acausal pairs, zero otherwise. Pairings
    within rounding of 1 count as causal: arccosh amplifies noise there.
    x and y are points or stacks of representatives (..., dim), paired row
    by row; one pair gives a float."""
    val = np.abs(form.inner_rows(_as_vector(x), _as_vector(y)))
    return _rows(np.arccosh(np.where(val <= 1.0 + 1e-14, 1.0, val)))


@dataclass(frozen=True)
class Horofunction:
    """log |<x, z0>| for a fixed nonzero isotropic z0, unit auxiliary norm."""

    z0: np.ndarray


def horofunction(form: BilinearForm, z) -> Horofunction:
    z0 = _as_vector(z)
    nz = np.linalg.norm(z0)
    if nz == 0.0:
        raise GeometryError("horofunction vector must be nonzero")
    z0 = z0 / nz
    if abs(form.q(z0)) > HOROFUNCTION_ISOTROPY_ATOL:
        raise GeometryError("horofunction vector must be isotropic")
    return Horofunction(z0)


def check_frame(form: BilinearForm, frame: np.ndarray) -> np.ndarray:
    """Validate q-orthonormal frames: the rows of `frame`, or of each frame
    in a stack (..., k, dim). Returns the row signs, shape (..., k)."""
    frame = np.asarray(frame, dtype=float)
    gram = (frame * form.signs) @ np.swapaxes(frame, -1, -2)
    signs = np.diagonal(gram, axis1=-2, axis2=-1)
    if np.any(np.abs(np.abs(signs) - 1.0) > FRAME_ATOL):
        raise FrameError("frame vectors must have q = +1 or -1")
    if np.any(np.abs(gram - signs[..., None] * np.eye(gram.shape[-1])) > FRAME_ATOL):
        raise FrameError("frame vectors must be q-orthogonal")
    return np.sign(signs)


def horofunction_gradient(form: BilinearForm, h: Horofunction, x, frame: np.ndarray) -> np.ndarray:
    """Projection of z0 onto the span of the frame, divided by <x0, z0>,
    with the lift of x chosen so the pairing is positive. Takes a point and
    its frame, or stacks (..., dim) and (..., k, dim) of them."""
    signs = check_frame(form, frame)
    pairing = np.abs(form.inner_rows(_as_vector(x), h.z0))
    if np.any(pairing <= 1e-12):
        raise HorofunctionDomainError("point is orthogonal to the horofunction vector")
    coeffs = signs * ((frame * form.signs) @ h.z0)
    return (coeffs[..., None, :] @ frame)[..., 0, :] / pairing[..., None]


def gradient_norm_sq(form: BilinearForm, h: Horofunction, x, frame: np.ndarray):
    g = horofunction_gradient(form, h, x, frame)
    return _rows(form.inner_rows(g, g))


# ---------------------------------------------------------------------------
# Analytic surfaces


def barbot_surface_point(crown: BarbotCrown, s: float, t: float) -> HPoint:
    """The orbit surface point e^s z0 + e^t z1 + e^-s z2 + e^-t z3."""
    z = crown.zreps
    return HPoint(np.exp(s) * z[0] + np.exp(t) * z[1] + np.exp(-s) * z[2] + np.exp(-t) * z[3])


def barbot_tangent_frame(crown: BarbotCrown, s: float, t: float) -> np.ndarray:
    """Orthonormal tangent frame sqrt(2) (dX/ds, dX/dt) at the orbit point."""
    z = crown.zreps
    xs = np.exp(s) * z[0] - np.exp(-s) * z[2]
    xt = np.exp(t) * z[1] - np.exp(-t) * z[3]
    return np.sqrt(2.0) * np.vstack([xs, xt])


def cylinder_point(form: BilinearForm, r: float, theta: float, fiber) -> HPoint:
    """The point sinh(r) (cos t, sin t, 0) + cosh(r) (0, 0, v); q = -1 for
    any unit fiber v, giving global polar-fiber coordinates on H^{2,n}."""
    f = _as_vector(fiber)
    vec = np.zeros(form.dim)
    vec[0] = np.sinh(r) * np.cos(theta)
    vec[1] = np.sinh(r) * np.sin(theta)
    vec[2:] = np.cosh(r) * f
    return HPoint(vec)

