"""Whole-space biharmonic heat kernel and its decay certificates.

The fundamental solution of ``u_t + Lap^2 u = 0`` is self-similar,

    b(x, t) = t^(-n/4) * g(x / t^(1/4)),
    g(xi)   = (2*pi)^(-n) * int exp(i xi.k - |k|^4) dk,

normalised so that ``int b(., t) dx = 1`` for every ``t``.  The profile ``g``
is evaluated by composite Gauss-Legendre quadrature of the oscillatory
integral: a tensor product rule for n <= 2, and a one-dimensional radial rule
against the spherical kernel sin(r s)/(r s) for n = 3.  Spatial derivatives up
to total order four come from moment factors (i k)^a under the integral (or,
for n = 3, from radial derivatives assembled into Cartesian components).

``certify_bound`` sweeps a logarithmic (x, t) lattice and fits the constant in
each of the four classical decay estimates for ``b``; the stretched-exponential
rate ``ALPHA`` is pinned by the saddle point of the phase and is never fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import gamma as _gamma

from .errors import InvalidTimeError, QuadratureResidualError, UnsupportedOrderError

__all__ = [
    "ALPHA",
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

_GL_POINTS = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_POINTS)
_SERIES_SWITCH = 0.2   # below this |xi| the n=3 radial combos use Maclaurin series
_J0_SWITCH = 0.5       # below this argument the spherical kernel uses its series


@dataclass(frozen=True)
class KernelProfile:
    """Evaluation parameters for the self-similar profile g.

    ``truncation_radius`` is the cutoff K of the k-integral; the integrand
    tail beyond K is below tolerance/10 by construction (enforced here).
    ``quadrature_nodes`` is the baseline node density per unit k; it is
    increased automatically with the oscillation frequency |xi|.
    """

    dim: int
    truncation_radius: float
    quadrature_nodes: int = 16
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.quadrature_nodes < 8:
            raise ValueError("quadrature_nodes must be >= 8")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if math.exp(-self.truncation_radius ** 4) >= self.tolerance / 10.0:
            raise ValueError(
                "truncation_radius too small: exp(-K^4) must be below tolerance/10"
            )

    def refined(self) -> "KernelProfile":
        """The same profile with twice the quadrature node density."""
        return replace(self, quadrature_nodes=self.quadrature_nodes * 2)


def default_profile(dim: int, tolerance: float = 1e-9, quadrature_nodes: int = 16) -> KernelProfile:
    """Profile with the truncation radius K = (ln(10/tol))^(1/4) + 1.

    The tolerance must lie in (0, 10), where the logarithm is positive.
    """
    if not 0.0 < tolerance < 10.0:
        raise ValueError(f"tolerance must lie in (0, 10), got {tolerance:g}")
    K = (math.log(10.0 / tolerance)) ** 0.25 + 1.0
    return KernelProfile(dim=dim, truncation_radius=K,
                         quadrature_nodes=quadrature_nodes, tolerance=tolerance)


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


def _axis_rule(profile: KernelProfile, freq: float):
    """Symmetric rule on [-K, K] resolving oscillation e^{i freq k}."""
    K = profile.truncation_radius
    per_unit = profile.quadrature_nodes + abs(freq)
    panels = max(4, int(math.ceil(2.0 * K * per_unit / _GL_POINTS)))
    panels += panels % 2  # keep the node set symmetric about k = 0
    return _composite_gl(-K, K, panels)


def _radial_rule(profile: KernelProfile, freq: float, r_max: float | None = None):
    top = profile.truncation_radius if r_max is None else r_max
    per_unit = profile.quadrature_nodes + abs(freq)
    panels = max(4, int(math.ceil(top * per_unit / _GL_POINTS)))
    return _composite_gl(0.0, top, panels)


# ----------------------------------------------------------------------
# n = 3 radial machinery
# ----------------------------------------------------------------------

# Derivatives of j0(x) = sin(x)/x, closed forms for |x| >= _J0_SWITCH, as
# functions of (sin x, cos x, x).
_J0_CLOSED = (
    lambda s, c, xs: s / xs,
    lambda s, c, xs: c / xs - s / xs ** 2,
    lambda s, c, xs: -s / xs - 2 * c / xs ** 2 + 2 * s / xs ** 3,
    lambda s, c, xs: -c / xs + 3 * s / xs ** 2 + 6 * c / xs ** 3 - 6 * s / xs ** 4,
    lambda s, c, xs: (s / xs + 4 * c / xs ** 2 - 12 * s / xs ** 3
                      - 24 * c / xs ** 4 + 24 * s / xs ** 5),
)


def _j0_derivs(ms, x: np.ndarray):
    """Yield j0^(m)(x) for each m in ms, one order at a time.

    sin, cos and the small-argument mask are taken once for all orders; the
    Maclaurin series runs only on the entries that keep it.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _J0_SWITCH
    xs = np.where(small, 1.0, x)  # avoid division by ~0 in the closed form
    s, c = np.sin(xs), np.cos(xs)
    x_small = x[small]
    for m in ms:
        if m >= len(_J0_CLOSED):  # pragma: no cover - guarded by callers
            raise UnsupportedOrderError(f"spherical kernel derivative order {m} > 4")
        closed = _J0_CLOSED[m](s, c, xs)
        # Maclaurin series of j0 differentiated term by term; terms to p = 12
        # give full double precision for |x| < 0.5.
        ser = np.zeros_like(x_small)
        for p in range(0, 13):
            e = 2 * p - m
            if e < 0:
                continue
            coef = (-1.0) ** p / math.factorial(2 * p + 1)
            for q in range(m):
                coef *= (2 * p - q)
            ser = ser + coef * x_small ** e
        closed[small] = ser
        yield closed


def _series_coeffs() -> np.ndarray:
    """The first 14 Maclaurin coefficients c_{2p} of the radial n=3 profile G(s)."""
    c3 = 1.0 / (2.0 * math.pi ** 2)
    p = np.arange(14)
    return c3 * (-1.0) ** p * _gamma((2 * p + 3) / 4.0) / (4.0 * _gamma(2 * p + 2))


def _radial_derivs(profile: KernelProfile, s: np.ndarray, ms) -> dict[int, np.ndarray]:
    """{m: G^(m)(s)} for each m in ms by quadrature of the spherical reduction.

    Each order's kernel on the s x r outer array is reduced to its radial
    derivative before the next one is formed.
    """
    c3 = 1.0 / (2.0 * math.pi ** 2)
    s = np.asarray(s, dtype=float)
    freq = float(np.max(s)) if s.size else 0.0
    r, w = _radial_rule(profile, freq)
    base = w * r ** 2 * np.exp(-r ** 4)
    rs = np.multiply.outer(s, r)
    return {m: c3 * (kern * (base * r ** m)[None, :]).sum(axis=1)
            for m, kern in zip(ms, _j0_derivs(ms, rs))}


def _series_combo(coeffs: np.ndarray, s: np.ndarray, factors: int, shift: int) -> np.ndarray:
    """Sum over p of c_{2p} * 2p(2p-2)...(factors terms) * s^(2p - shift).

    The falling products of even integers are exactly the combinations that
    appear in the radial-to-Cartesian derivative formulas; each is an entire
    even/odd series, so small-s evaluation is cancellation free.
    """
    acc = np.zeros_like(s)
    for p, c in enumerate(coeffs):
        mult = 1.0
        for q in range(factors):
            mult *= (2 * p - 2 * q)
        e = 2 * p - shift
        if e < 0 or mult == 0.0:
            continue
        acc = acc + c * mult * s ** e
    return acc


def _eval_profile_3d(profile: KernelProfile, xi: np.ndarray, orders) -> list[np.ndarray]:
    """d^order g for each multi-index in orders, all of one total order m.

    The radial derivatives and their series/quadrature combinations depend
    only on |xi| and m, so they are built once; each multi-index adds only
    its products of unit-direction components.
    """
    m = int(sum(orders[0]))
    s = np.sqrt((xi ** 2).sum(axis=1))
    small = s < _SERIES_SWITCH
    ss = np.where(small, 1.0, s)  # guards the quadrature-branch divisions only
    # unit direction; at the origin itself every directional coefficient
    # vanishes, so the 0/1 = 0 vector is harmless
    u = xi / np.where(s > 0.0, s, 1.0)[:, None]

    # a_0 enters only m = 0; the m >= 1 formulas use a_1..a_m
    a = _radial_derivs(profile, s, range(1, m + 1) if m else (0,))
    cs = _series_coeffs()

    def combo(quad_expr, factors, shift):
        ser = _series_combo(cs, s, factors, shift)
        return np.where(small, ser, quad_expr)

    if m == 0:  # the one multi-index (0, 0, 0)
        return [combo(a[0], 0, 0)]
    if m == 1:
        a1_over = combo(a[1] / ss, 1, 2) * s  # a1 = (a1/s) * s, regular everywhere
        return [a1_over * u[:, order.index(1)] for order in orders]
    if m == 2:
        q2 = combo(a[1] / ss, 1, 2)
        p2 = combo(a[2] - a[1] / ss, 2, 2)
    elif m == 3:
        q3 = combo(a[2] / ss - a[1] / ss ** 2, 2, 3)
        p3 = combo(a[3] - 3 * a[2] / ss + 3 * a[1] / ss ** 2, 3, 3)
    else:
        c5 = combo(a[2] / ss ** 2 - a[1] / ss ** 3, 2, 4)
        q4 = combo(a[3] / ss - 3 * a[2] / ss ** 2 + 3 * a[1] / ss ** 3, 3, 4)
        p4 = combo(a[4] - 6 * a[3] / ss + 15 * a[2] / ss ** 2 - 15 * a[1] / ss ** 3, 4, 4)

    out = []
    for order in orders:
        idx = []
        for ax, rep in enumerate(order):
            idx.extend([ax] * rep)
        if m == 2:
            i, j = idx
            val = p2 * u[:, i] * u[:, j] + q2 * (1.0 if i == j else 0.0)
        elif m == 3:
            i, j, k = idx
            val = p3 * u[:, i] * u[:, j] * u[:, k]
            for (x1, x2), x3 in (((i, j), k), ((i, k), j), ((j, k), i)):
                if x1 == x2:
                    val = val + q3 * u[:, x3]
        else:
            i, j, k, l = idx
            val = p4 * u[:, i] * u[:, j] * u[:, k] * u[:, l]
            for (p1, p2) in combinations(range(4), 2):
                rest = [q for q in range(4) if q not in (p1, p2)]
                if idx[p1] == idx[p2]:
                    val = val + q4 * u[:, idx[rest[0]]] * u[:, idx[rest[1]]]
            for (p1, p2) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
                if idx[p1[0]] == idx[p1[1]] and idx[p2[0]] == idx[p2[1]]:
                    val = val + c5
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


def _eval_profile_batch(profile: KernelProfile, pts: np.ndarray, orders) -> list[np.ndarray]:
    """d^order g at pts for each multi-index in orders, all of one total order.

    The quadrature rule and, chunk by chunk, the phase tables are built once
    for all orders; only the moment weights (ik)^order change per order.
    """
    n = profile.dim
    if n == 3:
        return _eval_profile_3d(profile, pts, orders)

    prefac = (2.0 * math.pi) ** (-n)
    out = [np.empty(pts.shape[0], dtype=complex) for _ in orders]
    if n == 1:
        k, w = _axis_rule(profile, float(np.abs(pts).max(initial=0.0)))
        moms = [w * (1j * k) ** order[0] * np.exp(-k ** 4) for order in orders]
        chunk = 8192
        for lo in range(0, pts.shape[0], chunk):
            ph = np.exp(1j * np.multiply.outer(pts[lo:lo + chunk, 0], k))
            for dst, mom in zip(out, moms):
                dst[lo:lo + chunk] = ph @ mom
    else:
        k1, w1 = _axis_rule(profile, float(np.abs(pts[:, 0]).max(initial=0.0)))
        k2, w2 = _axis_rule(profile, float(np.abs(pts[:, 1]).max(initial=0.0)))
        ksq = k1[:, None] ** 2 + k2[None, :] ** 2
        damp = np.exp(-ksq ** 2)
        moms = [(w1 * (1j * k1) ** order[0], w2 * (1j * k2) ** order[1])
                for order in orders]
        chunk = 2048
        for lo in range(0, pts.shape[0], chunk):
            e1 = np.exp(1j * np.multiply.outer(pts[lo:lo + chunk, 0], k1))
            e2 = np.exp(1j * np.multiply.outer(pts[lo:lo + chunk, 1], k2))
            for dst, (m1, m2) in zip(out, moms):
                # the order's core is a temporary: one is alive at a time
                dst[lo:lo + chunk] = np.einsum(
                    "pa,ab,pb->p", e1, damp * np.multiply.outer(m1, m2), e2, optimize=True)

    vals = []
    for o in out:
        o = prefac * o
        resid = float(np.abs(o.imag).max(initial=0.0))
        if resid > profile.tolerance:
            raise QuadratureResidualError(
                f"imaginary quadrature residual {resid:.3e} exceeds tolerance "
                f"{profile.tolerance:.3e}; increase quadrature_nodes"
            )
        vals.append(o.real)
    return vals


def eval_profile(profile: KernelProfile, xi, order=None):
    """Evaluate d^order g at one point (n,) or a batch (P, n) of points.

    Returns a float for a single point, else an array of shape (P,).  The
    result is the real part of the oscillatory quadrature; the imaginary
    residual is checked against ``profile.tolerance`` first.
    """
    order = _check_order(order, profile.dim)
    pts = _normalize_points(xi, profile.dim)
    [vals] = _eval_profile_batch(profile, pts, [order])
    if np.asarray(xi).ndim <= 1 and (profile.dim > 1 or np.asarray(xi).ndim == 0):
        return float(vals[0])
    if profile.dim == 1 and np.asarray(xi).ndim == 1 and vals.shape[0] == 1:
        return float(vals[0])
    return vals


def eval_kernel(profile: KernelProfile, x, t, order=None):
    """Evaluate d^order_x b(x, t) = t^(-(n+|order|)/4) (d^order g)(x t^(-1/4)).

    Self-similarity b(lam x, lam^4 t) = lam^(-n) b(x, t) holds by construction
    because the same profile point is evaluated either way.
    """
    if t <= 0:
        raise InvalidTimeError(f"kernel time must be positive, got {t}")
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
    if t <= 0:
        raise InvalidTimeError(f"kernel time must be positive, got {t}")
    n = profile.dim
    rho, w = _radial_rule(profile, 0.0, r_max=36.0)
    # physical nodes x = t^(1/4) rho along a ray; values t^(-n/4) g(rho)
    pts = np.zeros((rho.size, n))
    pts[:, 0] = (t ** 0.25) * rho
    [vals] = _eval_profile_batch(profile, pts * t ** (-0.25), [(0,) * n])
    vals = vals * t ** (-n / 4.0)
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
    jac = (t ** 0.25 * rho) ** (n - 1) * t ** 0.25
    return float(surface * np.sum(w * jac * vals))


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
    rho, w = _radial_rule(profile, 0.0, r_max=r_inner)
    pts = np.zeros((rho.size, n))
    pts[:, 0] = rho
    vals = gradient_magnitude(profile, pts, k)
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
    main = surface * float(np.sum(w * rho ** (n - 1) * vals))
    # tail via the exponential far-field estimate: fit c on [r_inner-4, r_inner]
    samp = np.linspace(r_inner - 4.0, r_inner, 9)
    spts = np.zeros((samp.size, n))
    spts[:, 0] = samp
    c_far = float(np.max(gradient_magnitude(profile, spts, k) * np.exp(c1 * samp)))
    tail, _ = _quad(lambda r: r ** (n - 1) * math.exp(-c1 * r), r_inner, np.inf)
    return main, surface * c_far * tail


def certify_bound(profile: KernelProfile, estimate_id, derivative_order: int = 0,
                  sample_spec: SampleSpec | None = None, c1: float = 0.5) -> BoundCertificate:
    """Fit the constant of one decay estimate over a sample sweep.

    estimate_id selects the bound:
      "2.2"  |b| <= c t^(-n/4) exp(-ALPHA |x|^(4/3) / t^(1/3)), order 0 only;
      "2.3"  |grad^k b| <= c (t^(1/4) + |x|)^(-n-k), k in 1..4;
      "2.4"  ||grad^k b(., t)||_L1 <= c t^(-k/4), k in 1..4, by radial
             quadrature in the self-similar variable with an exponential
             tail bound beyond radius 20;
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
