"""Whole-space biharmonic heat kernel and its decay certificates.

The fundamental solution of ``u_t + Lap^2 u = 0`` is self-similar,

    b(x, t) = t^(-n/4) * g(x / t^(1/4)),
    g(xi)   = (2*pi)^(-n) * int exp(i xi.k - |k|^4) dk,

normalised so that ``int b(., t) dx = 1`` for every ``t``.  ``g`` is radial,
g(xi) = G_n(|xi|), so in every dimension its Fourier integral reduces to one
real radial integral against the spherical mean Phi_n(r s): cos for n = 1,
J_0 for n = 2 and sin(x)/x for n = 3, evaluated by composite Gauss-Legendre
quadrature.  With D = s^-1 d/ds, D^k G_n = (-2 pi)^k G_(n+2k): each radial
derivative is the profile of dimension n + 2k, one quadrature against
Phi_(n+2k).  The means come from one base pair by the recurrence
Phi_(d+2) = d (d-2) / x^2 (Phi_d - Phi_(d-2)), and from their Maclaurin
series below x = _MEAN_SWITCH.  A Cartesian derivative of total order up
to four is a sum of D^k G_n times products of the components of xi, so
nothing divides by |xi|.

``certify_bound`` sweeps a logarithmic (x, t) lattice and fits the constant in
each of the four classical decay estimates for ``b``; the stretched-exponential
rate ``ALPHA`` is pinned by the saddle point of the phase and is never fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations, product

import numpy as np
from scipy.special import j0 as _j0, j1 as _j1

from .errors import InvalidTimeError, QuadratureResidualError, UnsupportedOrderError

__all__ = [
    "ALPHA",
    "UNIT_SPHERE_AREA",
    "KernelProfile",
    "SampleSpec",
    "BoundCertificate",
    "default_profile",
    "eval_profile",
    "eval_kernel",
    "gradient_magnitude",
    "kernel_mass",
    "certify_bound",
]

# Decay rate of the pointwise stretched-exponential bound, fixed exactly by
# the saddle point of i*xi*k - |k|^4.  Never fitted.
ALPHA = 3.0 * 2.0 ** (1.0 / 3.0) / 16.0

# Surface area of the unit sphere S^(n-1) in R^n, the radial-integral factor.
UNIT_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_GL_POINTS = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_POINTS)
_MEAN_SWITCH = 3.0  # below this argument the spherical means use their series


@dataclass(frozen=True)
class KernelProfile:
    """Evaluation parameters for the self-similar profile g.

    ``truncation_radius`` is the cutoff K of the k-integral; the integrand
    tail beyond K is below tolerance/10 by construction (enforced here).
    ``quadrature_nodes`` is the baseline node density per unit k; the rule
    for a point xi adds |xi| nodes per unit k, rounded up to whole 16-node
    panels, so each point pays only for its own oscillation frequency.
    """

    dim: int
    truncation_radius: float
    quadrature_nodes: int = 16
    tolerance: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (8 <= self.quadrature_nodes < math.inf and self.quadrature_nodes % 1 == 0):
            raise ValueError(f"quadrature_nodes must be an integer >= 8: {self.quadrature_nodes}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not 0.0 < self.truncation_radius < math.inf:
            raise ValueError("truncation_radius must be positive and finite, "
                             f"got {self.truncation_radius}")
        if math.exp(-self.truncation_radius ** 4) >= self.tolerance / 10.0:
            raise ValueError(
                "truncation_radius too small: exp(-K^4) must be below tolerance/10"
            )

    def refined(self) -> "KernelProfile":
        """The same profile with twice the quadrature node density."""
        return replace(self, quadrature_nodes=self.quadrature_nodes * 2)


def default_profile(dim: int, tolerance: float = 1e-9) -> KernelProfile:
    """Profile with 16 nodes per unit k and the cutoff K = (ln(10/tol))^(1/4) + 1.

    The tolerance must lie in (0, 10), where the logarithm is positive.
    """
    if not 0.0 < tolerance < 10.0:
        raise ValueError(f"tolerance must lie in (0, 10), got {tolerance:g}")
    K = (math.log(10.0 / tolerance)) ** 0.25 + 1.0
    return KernelProfile(dim=dim, truncation_radius=K, tolerance=tolerance)


# ----------------------------------------------------------------------
# quadrature rules
# ----------------------------------------------------------------------

def _composite_gl(a: float, b: float, panels: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _radial_panels(profile: KernelProfile, freq, top: float):
    """Panels of the rule on [0, top] for each oscillation frequency in freq:
    quadrature_nodes + |freq| nodes per unit length, at least four panels."""
    per_unit = profile.quadrature_nodes + np.abs(freq)
    return np.maximum(4, np.ceil(top * per_unit / _GL_POINTS)).astype(int)


def _radial_rule(profile: KernelProfile, top: float):
    """The rule on [0, top] for the frequency 0."""
    return _composite_gl(0.0, top, int(_radial_panels(profile, 0.0, top)))


# ----------------------------------------------------------------------
# the radial reduction
# ----------------------------------------------------------------------

# g is radial: g(xi) = G_n(|xi|), where for every dimension d
#     G_d(s) = c_d * int_0^inf r^(d-1) exp(-r^4) Phi_d(s r) dr,
# c_d = (2 pi)^(-d) |S^(d-1)|, and the spherical mean Phi_d, the mean of
# exp(i x w_1) over the unit sphere S^(d-1), is Gamma(d/2) (2/x)^(d/2-1)
# J_(d/2-1)(x): cos x, J_0(x) and sin(x)/x for d = 1, 2, 3 (Stein & Weiss
# 1971, ch. IV).  x^-1 d/dx Phi_d = -Phi_(d+2) / d (DLMF 10.6.6), so with
# D = s^-1 d/ds every radial derivative is a profile two dimensions up,
#     D^k G_n = (-1)^k c_n / (n (n+2) ... (n+2k-2))
#               * int_0^inf r^(n-1+2k) exp(-r^4) Phi_(n+2k)(s r) dr
#             = (-2 pi)^k G_(n+2k),
# and none of them divides by s.
_RADIAL_FACTOR = {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi), 3: 1.0 / (2.0 * math.pi ** 2)}

# Phi_d = sum_p (-1)^p x^(2p) / prod_(q=1..p) 2q (2q + d - 2), as coefficients
# of powers of x^2; below _MEAN_SWITCH the terms to p = 14 reach full double
# precision for every d up to 11 = 3 + 2 * 4
_MEAN_SERIES = {d: np.array([(-1) ** p / math.prod(2 * q * (2 * q + d - 2)
                                                    for q in range(1, p + 1))
                             for p in range(15)]) for d in range(1, 12)}


def _spherical_means(n: int, s: np.ndarray, r: np.ndarray, ds):
    """Yield Phi_d on the s x r outer table for each d in ds, increasing and
    of the parity of n.

    The base pair (cos x, sin(x)/x) = (Phi_1, Phi_3) for odd n and
    (J_0(x), 2 J_1(x)/x) = (Phi_2, Phi_4) for n = 2 walks up by
    Phi_(d+2) = d (d - 2) / x^2 (Phi_d - Phi_(d-2)) in place, so only two
    means are held and each is reduced before the walk goes on; a member of
    the pair, or the 1 / x^2 table, that no target or step of the walk reads
    is not formed.  Each step divides a difference of nearly equal means by
    x^2, so the walk loses digits as x falls; below _MEAN_SWITCH each mean is
    its Maclaurin series instead.  The argument table is dropped once the base
    pair is formed.
    """
    x = np.multiply.outer(s, r)
    small = x < _MEAN_SWITCH
    y = x[small] ** 2
    x[small] = 1.0  # the walk's entries there are replaced; keep it off 0
    d = 3 if n % 2 else 4
    if ds[0] < d or ds[-1] > d:  # a target or the walk reads Phi_(d-2)
        lo = np.cos(x) if n % 2 else _j0(x)
    if ds[-1] >= d:  # a target or the walk reads Phi_d
        hi = np.sin(x) if n % 2 else 2.0 * _j1(x)
        hi /= x
    if ds[-1] > d:  # the walk reads 1 / x^2
        inv = np.divide(1.0, np.square(x, out=x), out=x)
    del x
    for target in ds:
        while d < target:
            lo -= hi
            lo *= -d * (d - 2)
            lo *= inv
            lo, hi, d = hi, lo, d + 2
        phi = hi if d == target else lo
        series = np.full_like(y, _MEAN_SERIES[target][-1])
        for c in _MEAN_SERIES[target][-2::-1]:  # Horner's rule in x^2, in place
            series *= y
            series += c
        phi[small] = series
        yield phi


def _radial_derivs(profile: KernelProfile, s: np.ndarray, ks) -> dict[int, np.ndarray]:
    """{k: D^k G_n(s)} for each k in ks, increasing, by quadrature of the
    radial reduction of G_(n+2k).

    Each point takes the rule its own |xi| = s asks for, and the points
    sharing a panel count share one table of spherical means.  |Phi_d| <= 1,
    so eps times the absolute sum of an order's weights is the rounding floor
    of its sum; a tolerance below it cannot be met.  The guard checks every
    rule used and the rule of s = 0, so an empty batch is checked too.
    """
    n = profile.dim
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError(f"kernel point |xi| = {s[~np.isfinite(s)][0]} is not finite")
    K = profile.truncation_radius
    panels = _radial_panels(profile, s, K)
    out = {k: np.empty(s.shape) for k in ks}
    for count in np.unique(np.append(panels, _radial_panels(profile, 0.0, K))):
        r, w = _composite_gl(0.0, K, int(count))
        base = w * r ** (n - 1) * np.exp(-r ** 4)
        weights = {k: (-1) ** k * _RADIAL_FACTOR[n] / math.prod(range(n, n + 2 * k, 2))
                   * base * r ** (2 * k) for k in ks}
        floor = max(np.finfo(float).eps * float(np.abs(wk).sum()) for wk in weights.values())
        if floor > profile.tolerance:
            raise QuadratureResidualError(
                f"rounding floor {floor:.3e} of the radial quadrature exceeds tolerance "
                f"{profile.tolerance:.3e}; double precision cannot meet it")
        rows = panels == count
        for k, phi in zip(ks, _spherical_means(n, s[rows], r, [n + 2 * k for k in ks])):
            out[k][rows] = phi @ weights[k]
    return out


@lru_cache(maxsize=None)
def _pairing_terms(order: tuple) -> tuple:
    """(j, axes of the unpaired slots) for every set of j disjoint pairs of
    the multi-index's slots with equal axes, by j, then lexicographically."""
    idx = [ax for ax, rep in enumerate(order) for _ in range(rep)]
    m = len(idx)
    return tuple((j, tuple(idx[q] for q in range(m) if all(q not in pr for pr in pairs)))
                 for j in range(m // 2 + 1)
                 for pairs in combinations(combinations(range(m), 2), j)
                 if len(set(sum(pairs, ()))) == 2 * j
                 and all(idx[p] == idx[q] for p, q in pairs))


def _eval_profile_batch(profile: KernelProfile, xi: np.ndarray, orders) -> list[np.ndarray]:
    """d^order g at xi for each multi-index in orders, all of one total order m.

    For the radial g(xi) = G_n(|xi|), in every dimension d_{i_1...i_m} g is
    the sum over j of D^(m - j) G_n(|xi|) times, for each set of j disjoint
    slot pairs with equal axes, the product of xi over the unpaired slots.
    The m//2 + 1 radial coefficients come from one quadrature of the point
    set; each multi-index adds only its products of xi.
    """
    m = int(sum(orders[0]))
    a = _radial_derivs(profile, np.sqrt((xi ** 2).sum(axis=1)), range(m - m // 2, m + 1))
    out = []
    for order in orders:
        val = None
        for j, axes in _pairing_terms(tuple(order)):
            term = a[m - j]
            for ax in axes:
                term = term * xi[:, ax]
            val = term if val is None else val + term
        out.append(val)
    return out

# ----------------------------------------------------------------------
# profile and kernel evaluation
# ----------------------------------------------------------------------

def _normalize_points(xi, dim: int) -> np.ndarray:
    pts = np.asarray(xi, dtype=float)
    if dim == 1 and (pts.ndim == 0 or (pts.ndim == 1 and pts.shape[-1] != 1)):
        pts = pts.reshape(-1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[-1] != dim:
        raise ValueError(f"points have dimension {pts.shape[-1]}, profile has {dim}")
    return pts.reshape(-1, dim)


def _check_order(order, dim: int):
    if order is None:
        order = (0,) * dim
    if np.isscalar(order):
        order = (int(order),)
    order = tuple(int(o) for o in order)
    if len(order) != dim:
        raise ValueError(f"order multi-index length {len(order)} != dim {dim}")
    if any(o < 0 for o in order):
        raise ValueError("order components must be nonnegative")
    if sum(order) > 4:
        raise UnsupportedOrderError(f"total derivative order {sum(order)} > 4")
    return order


def eval_profile(profile: KernelProfile, xi, order=None):
    """Evaluate d^order g at one point (n,) or a batch (P, n) of points.

    Returns a float for a single point, else an array of shape (P,).  A
    ``profile.tolerance`` below the rounding floor of the radial quadrature
    raises QuadratureResidualError.
    """
    return eval_kernel(profile, xi, 1.0, order)


def eval_kernel(profile: KernelProfile, x, t, order=None):
    """Evaluate d^order_x b(x, t) = t^(-(n+|order|)/4) (d^order g)(x t^(-1/4)).

    Self-similarity b(lam x, lam^4 t) = lam^(-n) b(x, t) holds by construction
    because the same profile point is evaluated either way.
    """
    if not 0 < t < math.inf:
        raise InvalidTimeError(f"kernel time must be positive and finite, got {t}")
    order = _check_order(order, profile.dim)
    pts = _normalize_points(x, profile.dim)
    scale = t ** (-(profile.dim + sum(order)) / 4.0)
    [vals] = _eval_profile_batch(profile, pts * t ** (-0.25), [order])
    vals = scale * vals
    if np.asarray(x).ndim <= 1 and vals.shape[0] == 1:
        return float(vals[0])
    return vals


def _multi_indices(dim: int, total: int):
    """All multi-indices of given total order, in lexicographic order, with
    their multinomial weights."""
    for order in product(range(total + 1), repeat=dim):
        if sum(order) == total:
            yield order, math.factorial(total) / math.prod(map(math.factorial, order))


def gradient_magnitude(profile: KernelProfile, xi, k: int) -> np.ndarray:
    """Frobenius norm of the k-th derivative tensor of g at the given points.

    Every component of the tensor comes from one evaluation of the point set.
    """
    _check_order((k,) + (0,) * (profile.dim - 1), profile.dim)
    pts = _normalize_points(xi, profile.dim)
    indices = list(_multi_indices(profile.dim, k))
    comps = _eval_profile_batch(profile, pts, [order for order, _ in indices])
    if k == 0:
        return np.abs(comps[0])
    acc = np.zeros(pts.shape[0])
    for (_, weight), comp in zip(indices, comps):
        acc += weight * comp ** 2
    return np.sqrt(acc)


def kernel_mass(profile: KernelProfile, t: float) -> float:
    """int b(x, t) dx by radial quadrature in the self-similar variable.

    The x-integral is taken over |x| <= 36 t^(1/4); the neglected tail is
    below 1e-9 at the default tolerance.
    """
    if not 0 < t < math.inf:
        raise InvalidTimeError(f"kernel time must be positive and finite, got {t}")
    n = profile.dim
    rho, w = _radial_rule(profile, 36.0)
    # physical nodes x = t^(1/4) rho along a ray; values t^(-n/4) g(rho)
    pts = np.zeros((rho.size, n))
    pts[:, 0] = (t ** 0.25) * rho
    [vals] = _eval_profile_batch(profile, pts * t ** (-0.25), [(0,) * n])
    vals = vals * t ** (-n / 4.0)
    jac = (t ** 0.25 * rho) ** (n - 1) * t ** 0.25
    return float(UNIT_SPHERE_AREA[n] * np.sum(w * jac * vals))


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSpec:
    """Logarithmically spaced (|x|, t) lattice for certificate sweeps."""

    x_min: float = 0.05
    x_max: float = 30.0
    num_x: int = 25
    t_min: float = 1e-2
    t_max: float = 1e2
    num_t: int = 13

    def refined(self) -> "SampleSpec":
        """The same ranges with twice the samples along each axis."""
        return replace(self, num_x=self.num_x * 2, num_t=self.num_t * 2)

    def x_values(self) -> np.ndarray:
        return np.geomspace(self.x_min, self.x_max, self.num_x)

    def t_values(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.num_t)


@dataclass(frozen=True)
class BoundCertificate:
    """Fitted constant for one pointwise/integral decay estimate.

    ``fitted_constant`` is the max over included samples of |LHS| / RHS.  For
    the stretched-exponential estimate the rate alpha is ``ALPHA`` exactly.
    Samples whose predicted profile magnitude falls below ten times the
    quadrature tolerance are excluded (the ratio there would amplify
    quadrature noise) and counted, as are samples with RHS underflow.
    """

    estimate_id: str
    derivative_order: int
    fitted_constant: float
    alpha_or_c1: float
    sample_count: int
    excluded_count: int
    max_ratio_location: tuple[float, float]
    per_time_values: tuple = field(default=())

    def __post_init__(self):
        if not np.isfinite(self.fitted_constant) or self.fitted_constant < 0:
            raise ValueError("fitted_constant must be finite and nonnegative")
        if self.estimate_id == "2.2" and self.alpha_or_c1 != ALPHA:
            raise ValueError("estimate 2.2 must carry the exact saddle-point rate")

    def to_json(self) -> dict:
        return {
            "estimate_id": self.estimate_id,
            "order": self.derivative_order,
            "fitted_constant": self.fitted_constant,
            "alpha_or_c1": self.alpha_or_c1,
            "samples": self.sample_count,
            "excluded": self.excluded_count,
            "max_location": {"x": self.max_ratio_location[0],
                             "t": self.max_ratio_location[1]},
            "per_time_values": list(self.per_time_values),
        }


def _noise_floor_mask(xs: np.ndarray, ts: np.ndarray, tol: float):
    """Keep samples whose self-similar profile magnitude is above 10*tol."""
    xi = xs / ts ** 0.25
    return np.exp(-ALPHA * xi ** (4.0 / 3.0)) >= 10.0 * tol


def _pointwise_sweep(profile, sample_spec, k, ratio_fn, region=None,
                     extra_x=(), extra_t=()):
    # region corners are appended so suprema sitting on a boundary stay put
    # under lattice refinement
    xs = np.unique(np.concatenate([sample_spec.x_values(), np.asarray(extra_x)]))
    ts = np.unique(np.concatenate([sample_spec.t_values(), np.asarray(extra_t)]))
    X, T = np.meshgrid(xs, ts, indexing="ij")
    xf, tf = X.ravel(), T.ravel()
    above = _noise_floor_mask(xf, tf, profile.tolerance)
    inside = region(xf, tf) if region is not None else True
    keep = above & inside
    excluded = int(np.sum(~above & inside))
    xf, tf = xf[keep], tf[keep]
    if xf.size == 0:
        raise ValueError("certificate sweep has no admissible samples")
    pts = np.zeros((xf.size, profile.dim))
    pts[:, 0] = xf / tf ** 0.25
    lhs = gradient_magnitude(profile, pts, k) * tf ** (-(profile.dim + k) / 4.0)
    rhs = ratio_fn(xf, tf)
    ok = rhs > 1e-290
    excluded += int(np.sum(~ok))
    ratio = lhs[ok] / rhs[ok]
    imax = int(np.argmax(ratio))
    return (float(ratio[imax]), int(ok.sum()), excluded,
            (float(xf[ok][imax]), float(tf[ok][imax])))


def _l1_profile_norm(profile, k, c1):
    """(||grad^k g||_L1 over |xi| <= 20, exponential tail bound beyond)."""
    n = profile.dim
    r_inner = 20.0
    rho, w = _radial_rule(profile, r_inner)
    pts = np.zeros((rho.size, n))
    pts[:, 0] = rho
    vals = gradient_magnitude(profile, pts, k)
    main = UNIT_SPHERE_AREA[n] * float(np.sum(w * rho ** (n - 1) * vals))
    # tail via the exponential far-field estimate: fit c on [r_inner-4, r_inner]
    samp = np.linspace(r_inner - 4.0, r_inner, 9)
    spts = np.zeros((samp.size, n))
    spts[:, 0] = samp
    c_far = float(np.max(gradient_magnitude(profile, spts, k) * np.exp(c1 * samp)))
    return main, UNIT_SPHERE_AREA[n] * c_far * _exponential_tail(n, c1, r_inner)


def _exponential_tail(n, c, R):
    """int_R^inf r^(n-1) e^(-c r) dr = e^(-c R) sum_(j<n) (n-1)!/j! R^j / c^(n-j)."""
    return math.exp(-c * R) * sum(math.factorial(n - 1) / math.factorial(j) * R ** j
                                  / c ** (n - j) for j in range(n))


def certify_bound(profile: KernelProfile, estimate_id, derivative_order: int = 0,
                  sample_spec: SampleSpec | None = None, c1: float = 0.5) -> BoundCertificate:
    """Fit the constant of one decay estimate over a sample sweep.

    estimate_id selects the bound:
      "2.2"  |b| <= c t^(-n/4) exp(-ALPHA |x|^(4/3) / t^(1/3)), order 0 only;
      "2.3"  |grad^k b| <= c (t^(1/4) + |x|)^(-n-k), k in 1..4;
      "2.4"  ||grad^k b(., t)||_L1 <= c t^(-k/4), k in 1..4, by radial
             quadrature in the self-similar variable out to radius 20 and,
             beyond it, the far-field fit c e^(-c1 r) integrated in closed
             form against r^(n-1);
      "2.5"  |grad^j b| <= c exp(-c1 |x|) on (R^n x (0,1)) \\ (B_2 x (0, 1/2)),
             j in 0..4, with c1 a configuration input (default 1/2).
    """
    estimate_id = str(estimate_id)
    n = profile.dim
    k = int(derivative_order)

    if estimate_id == "2.2":
        if k != 0:
            raise UnsupportedOrderError("estimate 2.2 concerns the kernel itself")
        spec = sample_spec or SampleSpec()
        fitted, used, exc, loc = _pointwise_sweep(
            profile, spec, 0,
            lambda x, t: t ** (-n / 4.0) * np.exp(-ALPHA * x ** (4.0 / 3.0) / t ** (1.0 / 3.0)))
        return BoundCertificate("2.2", 0, fitted, ALPHA, used, exc, loc)

    if estimate_id == "2.3":
        if not 1 <= k <= 4:
            raise UnsupportedOrderError("estimate 2.3 needs derivative order 1..4")
        spec = sample_spec or SampleSpec()
        fitted, used, exc, loc = _pointwise_sweep(
            profile, spec, k, lambda x, t: (t ** 0.25 + x) ** (-(n + k)))
        return BoundCertificate("2.3", k, fitted, ALPHA, used, exc, loc)

    if estimate_id == "2.4":
        if not 1 <= k <= 4:
            raise UnsupportedOrderError("estimate 2.4 needs derivative order 1..4")
        spec = sample_spec or SampleSpec()
        main, tail = _l1_profile_norm(profile, k, c1)
        # t^(k/4) ||grad^k b(., t)||_L1 equals the profile integral for every t
        # because the quadrature nodes ride the self-similar scaling.
        per_t = tuple((main + tail) for _ in spec.t_values())
        return BoundCertificate("2.4", k, main + tail, c1,
                                spec.num_t, 0, (0.0, float(spec.t_values()[0])),
                                per_time_values=per_t)

    if estimate_id == "2.5":
        if not 0 <= k <= 4:
            raise UnsupportedOrderError("estimate 2.5 needs derivative order 0..4")
        # denser time sampling: the sup sits at an interior t that the
        # coarse default lattice would straddle
        spec = sample_spec or SampleSpec(t_min=1e-2, t_max=0.999, num_t=25)
        if spec.t_max >= 1.0:
            spec = replace(spec, t_max=0.999)
        region = lambda x, t: (t >= 0.5) | (x >= 2.0)
        fitted, used, exc, loc = _pointwise_sweep(
            profile, spec, k, lambda x, t: np.exp(-c1 * x), region=region,
            extra_x=(2.0,), extra_t=(0.5,))
        return BoundCertificate("2.5", k, fitted, c1, used, exc, loc)

    raise ValueError(f"unknown estimate id {estimate_id!r}")
