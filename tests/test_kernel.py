"""Kernel profile, derivatives, mass, and decay certificates."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from biflow import kernel
from biflow.errors import InvalidTimeError, UnsupportedOrderError
from biflow.kernel import (ALPHA, KernelProfile, SampleSpec, BoundCertificate,
                           certify_bound, default_profile, eval_kernel,
                           eval_profile, gradient_magnitude, kernel_mass)

# Oracle: high-resolution quadrature of the k-integral at the origin,
# cross-checked against the Gamma closed form Gamma(5/4)/pi (unit-mass
# normalisation).  Frozen from:
#   (1/(2 pi)) * quad(exp(-k^4), -inf, inf) = 0.28851686930823484
G0_1D = 0.28851686930823484
# n=2 closed form 1/(8 sqrt(pi)) via the polar reduction of the same integral
G0_2D = 0.07052369794346953


def test_origin_value_matches_quadrature_and_gamma_oracle(profile1):
    osc, _ = quad(lambda k: math.exp(-k ** 4), 0, np.inf, epsabs=1e-14)
    oracle = 2.0 * osc / (2.0 * math.pi)
    assert abs(oracle - gamma(1.25) / math.pi) < 1e-14
    assert abs(oracle - G0_1D) < 1e-14
    assert abs(eval_profile(profile1, 0.0) - G0_1D) <= profile1.tolerance


def test_origin_value_2d(profile2):
    assert abs(eval_profile(profile2, np.zeros(2)) - G0_2D) <= profile2.tolerance
    assert abs(G0_2D - 1.0 / (8.0 * math.sqrt(math.pi))) < 1e-15


def test_odd_derivative_vanishes_at_origin(profile1):
    assert eval_profile(profile1, 0.0, (1,)) == pytest.approx(0.0, abs=1e-12)


def test_radial_symmetry_2d(profile2, rng):
    for _ in range(5):
        r = rng.uniform(0.3, 6.0)
        th = rng.uniform(0, 2 * np.pi)
        a = eval_profile(profile2, np.array([r * np.cos(th), r * np.sin(th)]))
        b = eval_profile(profile2, np.array([r, 0.0]))
        assert a == pytest.approx(b, abs=1e-11)


def test_specific_rotation_example(profile2):
    va = eval_profile(profile2, np.array([3.0, 4.0]))
    vb = eval_profile(profile2, np.array([5.0, 0.0]))
    assert va == pytest.approx(vb, abs=1e-12)


def test_kernel_value_at_unit_time_equals_profile(profile1):
    assert eval_kernel(profile1, 0.0, 1.0) == pytest.approx(G0_1D, abs=1e-9)


def test_kernel_self_similarity_exact(profile1):
    for x, t in [(0.5, 0.2), (1.7, 3.0), (4.0, 0.05)]:
        a = eval_kernel(profile1, 2 * x, 16 * t)
        b = eval_kernel(profile1, x, t)
        assert abs(a - 0.5 * b) < 1e-14


def test_kernel_rejects_nonpositive_time(profile1):
    with pytest.raises(InvalidTimeError):
        eval_kernel(profile1, 1.0, 0.0)
    with pytest.raises(InvalidTimeError):
        eval_kernel(profile1, 1.0, -2.0)


@pytest.mark.parametrize("fn, dim, k", [
    ("eval_profile", 1, 5),
    *[("gradient_magnitude", d, k) for k in (5, -1) for d in (1, 2, 3)],
])
def test_order_cap(fn, dim, k):
    p = default_profile(dim)
    # an order above 4 is unsupported; a negative one is malformed
    with pytest.raises(UnsupportedOrderError if k > 4 else ValueError) as info:
        if fn == "eval_profile":
            eval_profile(p, 1.0, (k,))
        else:
            gradient_magnitude(p, np.ones((2, dim)), k)
    assert isinstance(info.value, UnsupportedOrderError) == (k > 4)


def test_profile_invariant_truncation():
    with pytest.raises(ValueError):
        KernelProfile(dim=1, truncation_radius=1.0, tolerance=1e-9)
    with pytest.raises(ValueError):
        KernelProfile(dim=1, truncation_radius=4.0, quadrature_nodes=4)


def test_imaginary_residual_guard():
    # an absurd tolerance sits below the rounding floor of the symmetric
    # quadrature, so the residual check must trip
    from biflow.errors import QuadratureResidualError
    p = default_profile(1, tolerance=1e-30)
    with pytest.raises(QuadratureResidualError):
        eval_profile(p, np.linspace(0.1, 20.0, 50))


@pytest.mark.parametrize("dim", [1, 2])
def test_mass_is_one_with_tail_control(dim):
    p = default_profile(dim)
    for t in (1e-2, 1.0, 1e2):
        assert abs(kernel_mass(p, t) - 1.0) <= 1e-8


def test_first_derivative_matches_centered_differences(profile1):
    # observed convergence rate of the FD error must be second order
    xi = 1.3
    exact = eval_profile(profile1, xi, (1,))

    def fd(h):
        return (eval_profile(profile1, xi + h) - eval_profile(profile1, xi - h)) / (2 * h)

    e1 = abs(fd(2e-2) - exact)
    e2 = abs(fd(1e-2) - exact)
    rate = math.log2(e1 / e2)
    assert rate >= 1.9


def test_3d_derivatives_match_finite_differences():
    p = default_profile(3)
    pt = np.array([0.8, -0.4, 1.1])
    h = 1e-4
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (eval_profile(p, pt + e) - eval_profile(p, pt - e)) / (2 * h)
        order = tuple(1 if k == i else 0 for k in range(3))
        assert eval_profile(p, pt, order) == pytest.approx(fd, abs=5e-9)
    # higher orders against first differences of lower analytic orders
    for full in [(2, 0, 0), (1, 1, 0), (3, 0, 0), (2, 2, 0), (1, 1, 2), (4, 0, 0)]:
        lower = list(full)
        axis = next(k for k, v in enumerate(lower) if v > 0)
        lower[axis] -= 1
        e = np.zeros(3)
        e[axis] = h
        fd = (eval_profile(p, pt + e, tuple(lower))
              - eval_profile(p, pt - e, tuple(lower))) / (2 * h)
        assert eval_profile(p, pt, full) == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_3d_series_quadrature_interface_is_continuous():
    p = default_profile(3)
    for order in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0)]:
        lo = eval_profile(p, np.array([0.6, 0.8, 0.0]) * 0.1999, order)
        hi = eval_profile(p, np.array([0.6, 0.8, 0.0]) * 0.2001, order)
        assert abs(lo - hi) < 5e-6  # bounded by the true local variation


def test_certificate_alpha_is_pinned():
    assert ALPHA == 3.0 * 2.0 ** (1.0 / 3.0) / 16.0
    with pytest.raises(ValueError):
        BoundCertificate("2.2", 0, 1.0, 0.25, 10, 0, (0.0, 1.0))


def test_certify_stretched_exponential(profile1):
    cert = certify_bound(profile1, "2.2")
    assert cert.alpha_or_c1 == ALPHA
    assert np.isfinite(cert.fitted_constant) and cert.fitted_constant > 0
    assert cert.excluded_count > 0  # far-field noise-floor samples are dropped


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_certify_polynomial_decay_refinement_stable(profile1, k):
    a = certify_bound(profile1, "2.3", k)
    b = certify_bound(profile1.refined(), "2.3", k, sample_spec=SampleSpec().refined())
    assert np.isfinite(a.fitted_constant)
    assert abs(b.fitted_constant - a.fitted_constant) <= 0.05 * a.fitted_constant


def test_certify_l1_values_share_the_scaling(profile1):
    cert = certify_bound(profile1, "2.4", 1)
    vals = np.asarray(cert.per_time_values)
    assert vals.size == SampleSpec().num_t
    assert np.max(np.abs(vals - vals[0])) <= 1e-6 * vals[0]


def test_certify_exponential_region(profile1):
    cert = certify_bound(profile1, "2.5", 0)
    x, t = cert.max_ratio_location
    assert t < 1.0 and (t >= 0.5 or x >= 2.0)
    assert cert.alpha_or_c1 == 0.5


def test_certify_rejects_bad_ids_and_orders(profile1):
    with pytest.raises(ValueError):
        certify_bound(profile1, "9.9")
    with pytest.raises(UnsupportedOrderError):
        certify_bound(profile1, "2.2", 1)
    with pytest.raises(UnsupportedOrderError):
        certify_bound(profile1, "2.3", 0)
    with pytest.raises(UnsupportedOrderError):
        certify_bound(profile1, "2.5", 5)


def test_certificate_json_round_trip(profile1):
    cert = certify_bound(profile1, "2.3", 2)
    payload = cert.to_json()
    assert payload["estimate_id"] == "2.3"
    assert payload["order"] == 2
    assert payload["samples"] + payload["excluded"] > 0


def test_gradient_magnitude_is_rotation_invariant(profile2):
    pts = np.array([[1.2, 0.0], [1.2 * np.cos(1.0), 1.2 * np.sin(1.0)]])
    mags = gradient_magnitude(profile2, pts, 2)
    assert mags[0] == pytest.approx(mags[1], rel=1e-9)


# ----------------------------------------------------------------------
# the per-multi-index evaluation, kept as the bitwise oracle of the jet
# ----------------------------------------------------------------------

def _oracle_j0_deriv(m, x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < kernel._J0_SWITCH
    xs = np.where(small, 1.0, x)
    s, c = np.sin(xs), np.cos(xs)
    if m == 0:
        closed = s / xs
    elif m == 1:
        closed = c / xs - s / xs ** 2
    elif m == 2:
        closed = -s / xs - 2 * c / xs ** 2 + 2 * s / xs ** 3
    elif m == 3:
        closed = -c / xs + 3 * s / xs ** 2 + 6 * c / xs ** 3 - 6 * s / xs ** 4
    else:
        closed = (s / xs + 4 * c / xs ** 2 - 12 * s / xs ** 3
                  - 24 * c / xs ** 4 + 24 * s / xs ** 5)
    ser = np.zeros_like(x)
    for p in range(0, 13):
        e = 2 * p - m
        if e < 0:
            continue
        coef = (-1.0) ** p / math.factorial(2 * p + 1)
        for q in range(m):
            coef *= (2 * p - q)
        ser = ser + coef * x ** e
    return np.where(small, ser, closed)


def _oracle_radial_derivs(profile, s, m_max):
    c3 = 1.0 / (2.0 * math.pi ** 2)
    freq = float(np.max(s)) if s.size else 0.0
    r, w = kernel._radial_rule(profile, freq)
    base = w * r ** 2 * np.exp(-r ** 4)
    rs = np.multiply.outer(s, r)
    return [c3 * (_oracle_j0_deriv(m, rs) * (base * r ** m)[None, :]).sum(axis=1)
            for m in range(m_max + 1)]


def _oracle_profile_3d(profile, xi, order):
    m = int(sum(order))
    s = np.sqrt((xi ** 2).sum(axis=1))
    small = s < kernel._SERIES_SWITCH
    ss = np.where(small, 1.0, s)
    u = xi / np.where(s > 0.0, s, 1.0)[:, None]
    a = _oracle_radial_derivs(profile, s, m)
    cs = kernel._series_coeffs()

    def combo(quad_expr, factors, shift):
        return np.where(small, kernel._series_combo(cs, s, factors, shift), quad_expr)

    if m == 0:
        return combo(a[0], 0, 0)
    if m == 1:
        return combo(a[1] / ss, 1, 2) * s * u[:, order.index(1)]
    idx = [ax for ax, rep in enumerate(order) for _ in range(rep)]
    if m == 2:
        q2 = combo(a[1] / ss, 1, 2)
        p2 = combo(a[2] - a[1] / ss, 2, 2)
        i, j = idx
        return p2 * u[:, i] * u[:, j] + q2 * (1.0 if i == j else 0.0)
    if m == 3:
        q3 = combo(a[2] / ss - a[1] / ss ** 2, 2, 3)
        p3 = combo(a[3] - 3 * a[2] / ss + 3 * a[1] / ss ** 2, 3, 3)
        i, j, k = idx
        val = p3 * u[:, i] * u[:, j] * u[:, k]
        for (x1, x2), x3 in (((i, j), k), ((i, k), j), ((j, k), i)):
            if x1 == x2:
                val = val + q3 * u[:, x3]
        return val
    c5 = combo(a[2] / ss ** 2 - a[1] / ss ** 3, 2, 4)
    q4 = combo(a[3] / ss - 3 * a[2] / ss ** 2 + 3 * a[1] / ss ** 3, 3, 4)
    p4 = combo(a[4] - 6 * a[3] / ss + 15 * a[2] / ss ** 2 - 15 * a[1] / ss ** 3, 4, 4)
    i, j, k, l = idx
    val = p4 * u[:, i] * u[:, j] * u[:, k] * u[:, l]
    for p1, p2 in itertools.combinations(range(4), 2):
        rest = [q for q in range(4) if q not in (p1, p2)]
        if idx[p1] == idx[p2]:
            val = val + q4 * u[:, idx[rest[0]]] * u[:, idx[rest[1]]]
    for p1, p2 in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        if idx[p1[0]] == idx[p1[1]] and idx[p2[0]] == idx[p2[1]]:
            val = val + c5
    return val


def _oracle_profile(profile, pts, order):
    n = profile.dim
    if n == 3:
        return _oracle_profile_3d(profile, pts, order)
    prefac = (2.0 * math.pi) ** (-n)
    out = np.empty(pts.shape[0], dtype=complex)
    if n == 1:
        k, w = kernel._axis_rule(profile, float(np.abs(pts).max(initial=0.0)))
        mom = w * (1j * k) ** order[0] * np.exp(-k ** 4)
        for lo in range(0, pts.shape[0], 8192):
            ph = np.exp(1j * np.multiply.outer(pts[lo:lo + 8192, 0], k))
            out[lo:lo + 8192] = ph @ mom
    else:
        k1, w1 = kernel._axis_rule(profile, float(np.abs(pts[:, 0]).max(initial=0.0)))
        k2, w2 = kernel._axis_rule(profile, float(np.abs(pts[:, 1]).max(initial=0.0)))
        ksq = k1[:, None] ** 2 + k2[None, :] ** 2
        core = np.exp(-ksq ** 2)
        core = core * np.multiply.outer(w1 * (1j * k1) ** order[0],
                                        w2 * (1j * k2) ** order[1])
        for lo in range(0, pts.shape[0], 2048):
            e1 = np.exp(1j * np.multiply.outer(pts[lo:lo + 2048, 0], k1))
            e2 = np.exp(1j * np.multiply.outer(pts[lo:lo + 2048, 1], k2))
            out[lo:lo + 2048] = np.einsum("pa,ab,pb->p", e1, core, e2, optimize=True)
    return (prefac * out).real


def _oracle_gradient_magnitude(profile, pts, k):
    if k == 0:
        return np.abs(_oracle_profile(profile, pts, (0,) * profile.dim))
    acc = np.zeros(pts.shape[0])
    for order, weight in kernel._multi_indices(profile.dim, k):
        acc += weight * _oracle_profile(profile, pts, order) ** 2
    return np.sqrt(acc)


# the per-dimension multi-index lists the generator replaced, in their order
_ORACLE_MULTI_INDICES = {
    1: lambda m: [((m,), 1.0)],
    2: lambda m: [((a, m - a), math.factorial(m) / (math.factorial(a) * math.factorial(m - a)))
                  for a in range(m + 1)],
    3: lambda m: [((a, b, m - a - b), math.factorial(m) / (
        math.factorial(a) * math.factorial(b) * math.factorial(m - a - b)))
                  for a in range(m + 1) for b in range(m - a + 1)],
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_multi_indices_keep_order_and_weights(dim):
    for m in range(5):
        got = list(kernel._multi_indices(dim, m))
        want = _ORACLE_MULTI_INDICES[dim](m)
        assert [o for o, _ in got] == [o for o, _ in want]
        assert all(type(w) is float and w == v for (_, w), (_, v) in zip(got, want))


def _oracle_points(dim):
    """The origin, |xi| below the 3D series switch, and far-field points.

    Every point has radial nodes with r|xi| below the j0 series switch; 2D
    gets more than one phase-table chunk of points.
    """
    rng = np.random.Generator(np.random.Philox(7))
    count = {1: 60, 2: 2100, 3: 60}[dim]
    top = {1: 75.0, 2: 3.0, 3: 40.0}[dim]
    radii = np.concatenate([[0.0, 1e-3, 0.05, 0.15, 0.199, 0.2, 0.45],
                            np.geomspace(1e-2, top, count)])
    dirs = rng.normal(size=(radii.size, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return radii[:, None] * dirs


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gradient_magnitude_bitwise_equals_per_multi_index_oracle(dim, refined):
    p = default_profile(dim)
    p = p.refined() if refined else p
    pts = _oracle_points(dim)
    if dim == 3:
        assert np.any(np.linalg.norm(pts, axis=1) < kernel._SERIES_SWITCH)
    for k in range(5):
        got = gradient_magnitude(p, pts, k)
        assert np.array_equal(got, _oracle_gradient_magnitude(p, pts, k)), (dim, k)
    order = (1,) * min(dim, 2) + (0,) * (dim - min(dim, 2))
    assert np.array_equal(eval_profile(p, pts, order), _oracle_profile(p, pts, order))


def test_gradient_magnitude_runs_the_radial_quadrature_once_3d(monkeypatch):
    # every multi-index of one order shares the radial jet of the point set
    calls = []
    radial_derivs = kernel._radial_derivs

    def counted(*args):
        calls.append(args)
        return radial_derivs(*args)

    monkeypatch.setattr(kernel, "_radial_derivs", counted)
    p = default_profile(3)
    pts = _oracle_points(3)[:20]
    for k in range(5):
        calls.clear()
        gradient_magnitude(p, pts, k)
        assert len(calls) == 1, k
