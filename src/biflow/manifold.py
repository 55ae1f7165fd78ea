"""Round-sphere target: nearest-point projection, extension, derivatives.

The projection onto S^(l-1) is radial, y -> y/|y|.  It is extended to all of
R^l as Pi(y) = h(|y|^2) y with a scalar profile h that equals q^(-1/2) for
q = |y|^2 above the blend radius squared and continues below it as the cubic
Taylor polynomial of q^(-1/2), so the extension is C^3, bounded with bounded
derivatives, and fixes the origin.  Everything the flow needs (DPi, D2Pi,
D3Pi, the defect Q and rho) comes in closed form from h and its derivatives;
all operations broadcast over leading array axes so grids of points are
handled in one call.  ``dpi`` evaluates one derivative from scratch and is the
reference; ``ProjectionJet`` evaluates the flow's sums of derivatives at the
same base points in Gram form, from the profile and a few shared fields, and
agrees with the matching sums of ``dpi`` calls to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import UnsupportedOrderError

__all__ = ["SphereTarget", "project", "dpi", "ProjectionJet", "defect_q", "rho",
           "distance_to_sphere"]


@dataclass(frozen=True)
class SphereTarget:
    """Unit sphere S^(l-1) in R^l with its projection tube.

    tube_radius is the distance within which the radial map is the true
    nearest-point projection (a safety margin; the radial formula is smooth
    on all of |y| > blend_radius).  The constant blend_radius is where the C^3
    cap takes over; no point of the tube, |y| >= 1/2, reaches it.
    """

    ambient_dim: int = 3
    tube_radius: float = 0.5
    blend_radius: ClassVar[float] = 0.25

    def __post_init__(self):
        if not isinstance(self.ambient_dim, (int, np.integer)):
            raise ValueError(f"ambient_dim must be an integer, got {self.ambient_dim!r}")
        if self.ambient_dim < 2:
            raise ValueError("ambient_dim must be >= 2")
        if not 0.0 < self.tube_radius <= 0.5:
            raise ValueError("tube_radius must lie in (0, 1/2]")


def _h_derivs(target: SphereTarget, q: np.ndarray):
    """h(q), h'(q), h''(q), h'''(q) for the blended radial profile.

    h = q^(-1/2) for q >= blend_radius^2; cubic Taylor continuation below.
    """
    qb = target.blend_radius ** 2
    qs = np.maximum(q, qb)  # radial branch evaluated only where selected
    h_r = qs ** -0.5
    h1_r = -0.5 * qs ** -1.5
    h2_r = 0.75 * qs ** -2.5
    h3_r = -1.875 * qs ** -3.5

    c0 = qb ** -0.5
    c1 = -0.5 * qb ** -1.5
    c2 = 0.75 * qb ** -2.5
    c3 = -1.875 * qb ** -3.5
    d = q - qb
    h_p = c0 + d * (c1 + d * (c2 / 2.0 + d * c3 / 6.0))
    h1_p = c1 + d * (c2 + d * c3 / 2.0)
    h2_p = c2 + d * c3
    h3_p = np.broadcast_to(c3, q.shape)

    inner = q < qb
    return (np.where(inner, h_p, h_r), np.where(inner, h1_p, h1_r),
            np.where(inner, h2_p, h2_r), np.where(inner, h3_p, h3_r))


def _dot(a, b):
    return np.sum(a * b, axis=-1, keepdims=True)


def _component_dot(a, b):
    """Dot product of two component-major arrays over their leading axis.

    The products are laid out C-ordered, one contiguous block per component,
    whatever the layout of a and b, so the sum adds the components left to
    right; ``_dot`` does too below 8 components, and there ``d1`` keeps
    ``dpi``'s bits."""
    return np.multiply(a, b, order="C").sum(axis=0)


def project(target: SphereTarget, y) -> np.ndarray:
    """Smooth extension of the nearest-point projection, radial on the tube."""
    y = np.asarray(y, dtype=float)
    q = np.sum(y * y, axis=-1, keepdims=True)
    h, _, _, _ = _h_derivs(target, q)
    return h * y


def dpi(target: SphereTarget, y, order: int, vectors) -> np.ndarray:
    """Symmetric multilinear derivative of the projection extension.

    order 1: DPi(y) v; order 2: D2Pi(y)(v, w); order 3: D3Pi(y)(v, w, z).
    On the tube these reduce to the closed forms of differentiating y/|y|,
    e.g. DPi(y) v = (v - yhat (yhat.v)) / |y|.
    """
    y = np.asarray(y, dtype=float)
    if order not in (1, 2, 3):
        raise UnsupportedOrderError(f"projection derivative order {order} not in 1..3")
    vecs = [np.asarray(v, dtype=float) for v in
            (vectors if isinstance(vectors, (tuple, list)) else (vectors,))]
    if len(vecs) != order:
        raise ValueError(f"order {order} needs {order} vectors, got {len(vecs)}")
    q = np.sum(y * y, axis=-1, keepdims=True)
    h, h1, h2, h3 = _h_derivs(target, q)

    if order == 1:
        (v,) = vecs
        return h * v + 2.0 * h1 * _dot(y, v) * y
    if order == 2:
        v, w = vecs
        return (2.0 * h1 * (_dot(v, w) * y + _dot(y, w) * v + _dot(y, v) * w)
                + 4.0 * h2 * _dot(y, v) * _dot(y, w) * y)
    v, w, z = vecs
    yv, yw, yz = _dot(y, v), _dot(y, w), _dot(y, z)
    vw, vz, wz = _dot(v, w), _dot(v, z), _dot(w, z)
    return (2.0 * h1 * (vw * z + vz * w + wz * v)
            + 4.0 * h2 * ((vw * yz + vz * yw + wz * yv) * y
                          + yv * yw * z + yv * yz * w + yw * yz * v)
            + 8.0 * h3 * yv * yw * yz * y)


class ProjectionJet:
    """The sums of DPi, D2Pi and D3Pi that the flow needs, at fixed base points
    y and for one family of gradient fields g_a (``grads[a]``).

    Every array is component-major, as in ``fields``: y and each vector
    argument are (l,) + points, grads is (n, l) + points and scalar weights
    are points-shaped.  y may be a view of field values; the sums are built
    C-ordered, one contiguous block per component.  Dot products add the
    components left to right (``_component_dot``), as ``dpi``'s sum over a
    trailing axis does below 8 components; from 8 on the two differ by
    round-off.

    ``dpi`` recomputes q = |y|^2, the profile derivatives and every dot
    product on each call.  A jet keeps h and the scaled derivatives 2h',
    4h'' and 8h''' of its base values, and forms the Gram sums
    S = sum_a |g_a|^2, P = sum_a (y.g_a)^2 and V = sum_a (y.g_a) g_a once.
    Since Pi(y) = h(|y|^2) y, every sum of contractions is y and its
    arguments weighted by these.  Each sum adds its terms in place, holding
    its result and one term at a time.
    """

    def __init__(self, target: SphereTarget, y, grads):
        self.y = y = np.asarray(y, dtype=float)
        h, h1, h2, h3 = _h_derivs(target, _component_dot(y, y))
        self.h, self.h1x2, self.h2x4, self.h3x8 = h, 2.0 * h1, 4.0 * h2, 8.0 * h3
        self.g = list(grads)
        self.S, self.P, self.V = np.zeros_like(h), np.zeros_like(h), np.zeros(y.shape)
        for ga in self.g:
            yg = _component_dot(y, ga)
            self.S += _component_dot(ga, ga)
            self.P += yg * yg
            self.V += yg * ga

    def d1(self, v) -> np.ndarray:
        """DPi(y) v, as ``dpi(target, y, 1, (v,))``."""
        return self.h * v + self.h1x2 * _component_dot(self.y, v) * self.y

    def d2(self, *pairs) -> np.ndarray:
        """sum_b D2Pi(y)(v_b, w_b) over the pairs (v_b, w_b)."""
        y = self.y
        acc = np.zeros(y.shape)
        vw, yvyw = np.zeros_like(self.h), np.zeros_like(self.h)  # weights of y
        for v, w in pairs:
            yv = _component_dot(y, v)
            yw = yv if w is v else _component_dot(y, w)
            acc += yw * v
            acc += yv * w
            vw += _component_dot(v, w)
            yvyw += yv * yw
        acc *= self.h1x2
        acc += (self.h1x2 * vw + self.h2x4 * yvyw) * y
        return acc

    def trace3(self, z) -> np.ndarray:
        """sum_a D3Pi(y)(g_a, g_a, z)."""
        y, S, P, V = self.y, self.S, self.P, self.V
        yz = _component_dot(y, z)
        acc = np.zeros(y.shape)
        for ga in self.g:
            acc += _component_dot(ga, z) * ga
        acc *= 2.0 * self.h1x2
        acc += (self.h1x2 * S + self.h2x4 * P) * z
        acc += (2.0 * self.h2x4 * yz) * V
        acc += (self.h2x4 * (S * yz + 2.0 * _component_dot(V, z))
                + self.h3x8 * P * yz) * y
        return acc


def defect_q(target: SphereTarget, y) -> np.ndarray:
    """Chordal defect Q(y) = y - Pi(y); |Q| = ||y| - 1| on the tube."""
    y = np.asarray(y, dtype=float)
    return y - project(target, y)


def rho(target: SphereTarget, y) -> np.ndarray:
    """Constraint-violation density 0.5 |Q(y)|^2."""
    qv = defect_q(target, y)
    return 0.5 * np.sum(qv * qv, axis=-1)


def distance_to_sphere(y) -> np.ndarray:
    """Euclidean distance to the unit sphere, ||y| - 1|."""
    y = np.asarray(y, dtype=float)
    return np.abs(np.sqrt(np.sum(y * y, axis=-1)) - 1.0)
