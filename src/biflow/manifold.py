"""Round-sphere target: nearest-point projection, extension, derivatives.

The projection onto S^(l-1) is radial, y -> y/|y|.  It is extended to all of
R^l as Pi(y) = h(|y|^2) y with a scalar profile h that equals q^(-1/2) for
q = |y|^2 above the blend radius squared and continues below it as the cubic
Taylor polynomial of q^(-1/2), so the extension is C^3, bounded with bounded
derivatives, and fixes the origin.  Everything the flow needs (DPi, D2Pi,
D3Pi, the defect Q and rho) comes in closed form from h and its derivatives;
all operations broadcast over leading array axes so grids of points are
handled in one call.  ``dpi`` evaluates one derivative from scratch and is the
reference; ``ProjectionJet`` evaluates many at the same base points, sharing
the profile and the dot products, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from .errors import UnsupportedOrderError

__all__ = ["SphereTarget", "project", "dpi", "ProjectionJet", "defect_q", "rho",
           "distance_to_sphere"]


@dataclass(frozen=True)
class SphereTarget:
    """Unit sphere S^(l-1) in R^l with its projection tube.

    tube_radius is the distance within which the radial map is the true
    nearest-point projection (a safety margin; the radial formula is smooth
    on all of |y| > blend_radius).  blend_radius is where the C^3 polynomial
    cap takes over so the extension is globally smooth.
    """

    ambient_dim: int = 3
    tube_radius: float = 0.5
    blend_radius: float = 0.25

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError("ambient_dim must be >= 2")
        if not 0.0 < self.tube_radius <= 0.5:
            raise ValueError("tube_radius must lie in (0, 1/2]")
        if not 0.0 < self.blend_radius < 1.0 - self.tube_radius:
            raise ValueError("blend_radius must lie in (0, 1 - tube_radius)")


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
    """``_dot`` written out over the components: the same bits, fewer passes.

    numpy reduces fewer than eight terms by adding them left to right to 0.0,
    which the explicit sum repeats; from eight on it sums pairwise, so longer
    vectors go through ``_dot`` itself.
    """
    l = a.shape[-1]
    if l >= 8:
        return _dot(a, b)
    acc = 0.0 + a[..., 0:1] * b[..., 0:1]
    for i in range(1, l):
        acc = acc + a[..., i:i + 1] * b[..., i:i + 1]
    return acc


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
    """DPi, D2Pi and D3Pi at fixed base points, with the shared work done once.

    ``dpi`` recomputes q = |y|^2, the profile derivatives and every dot
    product on each call.  A jet keeps h and the scaled derivatives 2h',
    4h'' and 8h''' of its base values y.  Vectors are registered with
    ``vec``, which returns an integer key; y.v is computed on registration,
    and v.w on first use of the pair, memoised by the two keys.  Keys are
    never reused, so a vector the caller has freed cannot alias a later one.
    ``d1``, ``d2`` and ``d3`` repeat the arithmetic of ``dpi`` term for
    term, so each result has the same bits as the matching ``dpi`` call.
    """

    def __init__(self, target: SphereTarget, y):
        self.y = y = np.asarray(y, dtype=float)
        h, h1, h2, h3 = _h_derivs(target, _component_dot(y, y))
        self.h = h
        self.h1x2 = 2.0 * h1
        self.h2x4 = 4.0 * h2
        self.h3x8 = 8.0 * h3
        self._vecs: list[np.ndarray] = []
        self._yv: list[np.ndarray] = []
        self._pairs: dict[tuple[int, int], np.ndarray] = {}

    def vec(self, v) -> int:
        """Register a vector field at the base points; returns its key."""
        v = np.asarray(v, dtype=float)
        self._vecs.append(v)
        self._yv.append(_component_dot(self.y, v))
        return len(self._vecs) - 1

    def forget(self, i: int):
        """Free a vector registered for one use, and its memoised products."""
        self._vecs[i] = self._yv[i] = None
        for key in [k for k in self._pairs if i in k]:
            del self._pairs[key]

    def _vw(self, i: int, j: int) -> np.ndarray:
        key = (i, j) if i <= j else (j, i)
        vw = self._pairs.get(key)
        if vw is None:
            vw = self._pairs[key] = _component_dot(self._vecs[i], self._vecs[j])
        return vw

    def d1(self, i: int) -> np.ndarray:
        """DPi(y) v, as ``dpi(target, y, 1, (v,))``."""
        return self.h * self._vecs[i] + self.h1x2 * self._yv[i] * self.y

    def d2(self, i: int, j: int) -> np.ndarray:
        """D2Pi(y)(v, w), as ``dpi(target, y, 2, (v, w))``."""
        y, v, w = self.y, self._vecs[i], self._vecs[j]
        yv, yw = self._yv[i], self._yv[j]
        return (self.h1x2 * (self._vw(i, j) * y + yw * v + yv * w)
                + self.h2x4 * yv * yw * y)

    def d3(self, i: int, j: int, k: int) -> np.ndarray:
        """D3Pi(y)(v, w, z), as ``dpi(target, y, 3, (v, w, z))``.

        Equal keys give equal products, each formed once: with j == k,
        vw z + vz w is 2 vw z (x + x is 2x exactly) and yv yw z = yv yz w;
        with i == j, vz w = wz v and yv yz w = yw yz v.
        """
        y, v, w, z = self.y, self._vecs[i], self._vecs[j], self._vecs[k]
        yv, yw, yz = self._yv[i], self._yv[j], self._yv[k]
        vw, vz, wz = self._vw(i, j), self._vw(i, k), self._vw(j, k)
        return (self.h1x2 * (_ordered_sum(vw * z * 2.0, (wz, v)) if j == k
                             else _ordered_sum(vw * z, (vz, w), (wz, v)))
                + self.h2x4 * _ordered_sum((vw * yz + vz * yw + wz * yv) * y,
                                           (yv, yw, z), (yv, yz, w), (yw, yz, v))
                + self.h3x8 * yv * yw * yz * y)


def _ordered_sum(acc, *terms):
    """acc + t1 + t2 + ..., added left to right into acc, a fresh array the
    caller hands over.  Each term is a tuple of factors multiplied left to
    right; a term of the same factor objects as the one before it is formed
    once and added again.  At most acc and one term are held at a time."""
    term = None
    for n, factors in enumerate(terms):
        if n == 0 or any(a is not b for a, b in zip(factors, terms[n - 1])):
            term = None  # freed before the next one is formed
            term = reduce(mul, factors)
        acc += term
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
