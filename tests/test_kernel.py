"""Kernel profile, derivatives, mass, and decay certificates."""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from biflow import kernel
from biflow.errors import InvalidTimeError, QuadratureResidualError, UnsupportedOrderError
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
    for t in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(InvalidTimeError):
            eval_kernel(profile1, 1.0, t)
        with pytest.raises(InvalidTimeError):
            kernel_mass(profile1, t)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_profile_is_eval_kernel_at_unit_time(dim):
    p = default_profile(dim)
    rng = np.random.default_rng(dim)
    forms = [[0.3] * dim, [[0.3] * dim], rng.normal(size=dim),
             rng.normal(size=(1, dim)), rng.normal(size=(6, dim))]
    if dim == 1:  # scalars and flat lists of points are 1D-only input forms
        forms += [0.3, np.float64(0.2), [0.1, 0.2, 0.3], [0.4], np.array([0.5])]
    for xi in forms:
        for m in range(5):
            for order, _ in kernel._multi_indices(dim, m):
                got, want = eval_profile(p, xi, order), eval_kernel(p, xi, 1.0, order)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.array_equal(got, want), (xi, order)


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
    # dim 2.0 would pass the range check and fail inside the quadrature
    with pytest.raises(ValueError, match="^dim must be an integer, got 2.0$"):
        KernelProfile(dim=2.0, truncation_radius=3.2)
    assert KernelProfile(dim=np.int64(2), truncation_radius=3.2).dim == 2
    # a node count must be a whole number: nan and inf would pass a bound
    # check alone, and 16.5 would run
    for bad in (math.nan, math.inf, 16.5):
        with pytest.raises(ValueError, match="quadrature_nodes must be an integer >= 8"):
            KernelProfile(dim=1, truncation_radius=3.2, quadrature_nodes=bad)
    # a non-finite value would pass every comparison it is checked by
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            KernelProfile(dim=1, truncation_radius=3.2, tolerance=bad)
        with pytest.raises(ValueError, match="truncation_radius must be positive and finite"):
            KernelProfile(dim=1, truncation_radius=bad)


def test_imaginary_residual_guard():
    # an absurd tolerance sits below the rounding floor of the radial
    # quadrature, so the rounding-floor guard must trip
    from biflow.errors import QuadratureResidualError
    p = default_profile(1, tolerance=1e-30)
    with pytest.raises(QuadratureResidualError):
        eval_profile(p, np.linspace(0.1, 20.0, 50))


@pytest.mark.parametrize("points", [np.empty((0, 1)), np.zeros((1, 1)), np.full((1, 1), 1e3)],
                         ids=["empty", "origin", "far"])
def test_rounding_floor_guard_does_not_depend_on_the_point_set(points):
    # every call checks the rule of |xi| = 0 beside the rules its points use,
    # so no batch, an empty one included, slips past the guard
    with pytest.raises(QuadratureResidualError, match="rounding floor"):
        eval_profile(default_profile(1, tolerance=1e-30), points)


@pytest.mark.parametrize("evaluate, x", [
    (eval_profile, math.nan),
    (eval_profile, math.inf),
    (lambda p, x: eval_kernel(p, x, 1.0), 1e200),  # |xi|^2 overflows
], ids=["nan", "inf", "overflow"])
def test_non_finite_points_are_rejected(evaluate, x):
    # a non-finite |xi| has no quadrature rule; it must not turn into NaN
    with pytest.raises(ValueError, match="is not finite"), np.errstate(over="ignore"):
        evaluate(default_profile(1), x)


@pytest.mark.parametrize("dim", [1, 2, 3])
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


@pytest.mark.parametrize("dim", [2, 3])
def test_rounding_floor_guard_trips_only_below_double_precision(dim):
    from biflow.errors import QuadratureResidualError
    pts = np.linspace(0.1, 20.0, 50)[:, None] * np.eye(dim)[0]
    with pytest.raises(QuadratureResidualError, match="rounding floor"):
        eval_profile(default_profile(dim, tolerance=1e-30), pts)
    for p in (default_profile(dim), default_profile(dim, tolerance=1e-10)):
        for k in range(5):
            assert np.all(np.isfinite(gradient_magnitude(p, pts, k)))


def _assert_the_mean_switch_is_seamless(monkeypatch, dim, direction, orders):
    # every spherical mean the profile uses, d = n, n + 2, ..., n + 8, from its
    # Maclaurin series and from the recurrence, just below and just above the
    # one switch: both agree to 3e-15 (|Phi_d| <= 1; d = 11 reads 1.2e-15)
    x = kernel._MEAN_SWITCH * np.array([0.99, 0.999, 1.0, 1.001, 1.01])
    ds = range(dim, dim + 9, 2)
    means = {}
    for switch in (0.0, math.inf):  # the recurrence, then the series, everywhere
        monkeypatch.setattr(kernel, "_MEAN_SWITCH", switch)
        means[switch] = [phi.copy() for phi in kernel._spherical_means(dim, np.ones(1), x, ds)]
    for d, walk, series in zip(ds, means[0.0], means[math.inf]):
        assert np.abs(walk - series).max() <= 3e-15, d
    monkeypatch.undo()
    # moving the switch by 5% either way moves each derivative, along the
    # direction, by at most 1e-15 of its largest value
    p = default_profile(dim)
    pts = np.outer([0.5, 1.0, 2.0, 4.0, 8.0], direction)
    want = [eval_profile(p, pts, order) for order in orders]
    for factor in (0.95, 1.05):
        monkeypatch.setattr(kernel, "_MEAN_SWITCH", factor * kernel._MEAN_SWITCH)
        for order, ref in zip(orders, want):
            got = eval_profile(p, pts, order)
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), (factor, order)
        monkeypatch.undo()


@pytest.mark.parametrize("dim, direction, orders", [
    (1, [1.0], [(0,), (1,), (2,), (3,), (4,)]),
    (2, [0.6, 0.8], [(0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 2), (4, 0)]),
])
def test_series_quadrature_interface_is_continuous(monkeypatch, dim, direction, orders):
    _assert_the_mean_switch_is_seamless(monkeypatch, dim, direction, orders)


def test_3d_series_quadrature_interface_is_continuous(monkeypatch):
    _assert_the_mean_switch_is_seamless(
        monkeypatch, 3, [0.6, 0.8, 0.0], [(0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0)])


def test_kernel_has_one_series_switch():
    # one branch point: the spherical means' series below it, the
    # recurrence above it, and no second switch on |xi| or on any order
    assert _switch_names(Path(kernel.__file__).read_text()) == ["_MEAN_SWITCH"]


def _switch_names(source):
    """Every name ending in _SWITCH that the source assigns."""
    return [target.id for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for top in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for target in ast.walk(top)
            if isinstance(target, ast.Name) and target.id.endswith("_SWITCH")]


def test_switch_lint_sees_every_spelling_of_an_assignment():
    source = ("A_SWITCH = 0.2\n"
              "B_SWITCH: float = 0.5\n"
              "C_SWITCH, D = 1.0, 2.0\n"
              "def f():\n"
              "    E_SWITCH = 3.0\n"
              "F = A_SWITCH\n")
    assert _switch_names(source) == ["A_SWITCH", "B_SWITCH", "C_SWITCH", "E_SWITCH"]


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_l1_tail_closed_form_matches_quadrature(n):
    # estimate 2.4's tail beyond the quadrature radius: the closed form of
    # int_R^inf r^(n-1) e^(-c r) dr against quad
    for c in (0.25, 0.5, 1.0, 2.0):
        for R in (1.0, 5.0, 20.0):
            want, _ = quad(lambda r: r ** (n - 1) * math.exp(-c * r), R, np.inf,
                           epsabs=0.0, epsrel=1e-13)
            assert kernel._exponential_tail(n, c, R) == pytest.approx(want, rel=1e-9, abs=0.0)


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
# the per-multi-index evaluation, the bitwise oracle of the jet; the
# profile's Maclaurin series, its independent reference near the origin;
# and the tensor-product rule the radial path replaced in 1D and 2D
# ----------------------------------------------------------------------

# (2 pi)^(-n) times the area of the unit sphere S^(n-1)
_ORACLE_RADIAL_FACTOR = {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi),
                         3: 1.0 / (2.0 * math.pi ** 2)}


def _maclaurin_derivative(dim, order, pts, terms=17):
    """d^order g at pts from the Maclaurin series of the profile,
    g(xi) = sum_p a_p |xi|^(2p) with a_p = c_n (-1)^p Gamma((2p + n)/4) /
    (4 prod_(q<=p) 2q (2q + n - 2)), expanded into monomials xi^(2 beta),
    differentiated exactly and summed with math.fsum."""
    coefs, powers = [], []
    for p in range(terms):
        a_p = (_ORACLE_RADIAL_FACTOR[dim] * (-1) ** p * math.gamma((2 * p + dim) / 4.0)
               / (4 * math.prod(2 * q * (2 * q + dim - 2) for q in range(1, p + 1))))
        for beta in itertools.product(range(p + 1), repeat=dim):
            if sum(beta) != p or any(2 * b < o for b, o in zip(beta, order)):
                continue
            mult = math.factorial(p) // math.prod(map(math.factorial, beta))
            for b, o in zip(beta, order):
                mult *= math.factorial(2 * b) // math.factorial(2 * b - o)
            coefs.append(a_p * mult)
            powers.append([2 * b - o for b, o in zip(beta, order)])
    monomials = np.prod(pts[None, :, :] ** np.array(powers)[:, None, :], axis=2)
    terms_at = np.array(coefs)[:, None] * monomials
    return np.array([math.fsum(terms_at[:, q]) for q in range(pts.shape[0])])


def _oracle_axis_rule(profile, freq):
    """Symmetric rule on [-K, K] resolving oscillation e^{i freq k}."""
    K = profile.truncation_radius
    per_unit = profile.quadrature_nodes + abs(freq)
    panels = max(4, int(math.ceil(2.0 * K * per_unit / kernel._GL_POINTS)))
    panels += panels % 2  # keep the node set symmetric about k = 0
    return kernel._composite_gl(-K, K, panels)


def _oracle_tensor_profile(profile, pts, order):
    """d^order g by the tensor-product rule over k in [-K, K]^n, n <= 2."""
    n = profile.dim
    prefac = (2.0 * math.pi) ** (-n)
    out = np.empty(pts.shape[0], dtype=complex)
    if n == 1:
        k, w = _oracle_axis_rule(profile, float(np.abs(pts).max(initial=0.0)))
        mom = w * (1j * k) ** order[0] * np.exp(-k ** 4)
        for lo in range(0, pts.shape[0], 8192):
            ph = np.exp(1j * np.multiply.outer(pts[lo:lo + 8192, 0], k))
            out[lo:lo + 8192] = ph @ mom
    else:
        k1, w1 = _oracle_axis_rule(profile, float(np.abs(pts[:, 0]).max(initial=0.0)))
        k2, w2 = _oracle_axis_rule(profile, float(np.abs(pts[:, 1]).max(initial=0.0)))
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
    """The multinomial sum of squares of one eval_profile call per multi-index."""
    if k == 0:
        return np.abs(eval_profile(profile, pts, (0,) * profile.dim))
    acc = np.zeros(pts.shape[0])
    for order, weight in _ORACLE_MULTI_INDICES[profile.dim](k):
        acc += weight * eval_profile(profile, pts, order) ** 2
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
    """The origin, points near it and far-field points.

    Every point has radial nodes with r|xi| below the spherical means'
    series switch; 2D gets more than one chunk of the tensor rule's phase
    tables.
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
    for k in range(5):
        got = gradient_magnitude(p, pts, k)
        assert np.array_equal(got, _oracle_gradient_magnitude(p, pts, k)), (dim, k)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_profile_derivatives_match_the_maclaurin_series(dim):
    # every multi-index of orders 0-4 on |xi| in [0, 1], along an axis, the
    # diagonal and a generic direction, against the profile's own Maclaurin
    # series: no quadrature is shared.  Within 2e-15 of each order's array
    # max; a radial-to-Cartesian rule that divides by |xi| cancels near the
    # origin, and the points just above |xi| = 0.2 read 1.6e-13 at order 4
    # when its series took over only below them
    rng = np.random.Generator(np.random.Philox(11))
    dirs = np.stack([np.eye(dim)[0], np.ones(dim) / math.sqrt(dim), rng.normal(size=dim)])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.concatenate([np.linspace(0.0, 1.0, 21), [1e-3, 0.199, 0.2001, 0.21, 0.23]])
    pts = (radii[:, None, None] * dirs[None]).reshape(-1, dim)
    p = default_profile(dim)
    for m in range(5):
        orders = [order for order, _ in _ORACLE_MULTI_INDICES[dim](m)]
        got = np.array([eval_profile(p, pts, order) for order in orders])
        want = np.array([_maclaurin_derivative(dim, order, pts) for order in orders])
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max(), m


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_radial_path_agrees_with_the_tensor_rule(dim, refined):
    # the one real radial quadrature against the complex tensor-product rule
    # it replaced: every component of orders 0-4, off-axis points and points
    # near the origin included
    p = default_profile(dim)
    p = p.refined() if refined else p
    pts = _oracle_points(dim)
    for k in range(5):
        orders = [order for order, _ in kernel._multi_indices(dim, k)]
        radial = np.array([eval_profile(p, pts, order) for order in orders])
        tensor = np.array([_oracle_tensor_profile(p, pts, order) for order in orders])
        assert np.max(np.abs(radial - tensor)) <= 1e-12 * np.max(np.abs(tensor)), k


def _radial_quadrature_calls(monkeypatch, dim):
    """How often gradient_magnitude runs _radial_derivs, per order 0-4."""
    calls = []
    radial_derivs = kernel._radial_derivs

    def counted(*args):
        calls.append(args)
        return radial_derivs(*args)

    monkeypatch.setattr(kernel, "_radial_derivs", counted)
    p = default_profile(dim)
    pts = _oracle_points(dim)[:20]
    counts = []
    for k in range(5):
        calls.clear()
        gradient_magnitude(p, pts, k)
        counts.append(len(calls))
    return counts


def test_gradient_magnitude_runs_the_radial_quadrature_once_3d(monkeypatch):
    # every multi-index of one order shares the radial jet of the point set
    assert _radial_quadrature_calls(monkeypatch, 3) == [1] * 5


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_magnitude_runs_the_radial_quadrature_once(monkeypatch, dim):
    assert _radial_quadrature_calls(monkeypatch, dim) == [1] * 5


_COMPLEX_NAMES = {"complex", "complex64", "complex128", "complex256", "complexfloating",
                  "csingle", "cdouble", "clongdouble", "iscomplexobj"}


def _complex_uses(source):
    """'line: what' for every complex literal, complex dtype or type name
    (as a name, an attribute or a string), and .real/.imag in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            yield f"{node.lineno}: {node.value!r}"
        elif isinstance(node, ast.Constant) and node.value in _COMPLEX_NAMES:
            yield f"{node.lineno}: {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in _COMPLEX_NAMES:
            yield f"{node.lineno}: {node.id}"
        elif isinstance(node, ast.Attribute) and (
                node.attr in _COMPLEX_NAMES or node.attr in ("real", "imag")):
            yield f"{node.lineno}: .{node.attr}"


def test_kernel_has_no_complex_arithmetic():
    # the profile is one real radial quadrature in every dimension: no phase
    # table, complex dtype or real/imaginary split comes back
    assert list(_complex_uses(Path(kernel.__file__).read_text())) == []


def test_complex_lint_sees_every_spelling():
    source = ("import numpy as np\n"
              "ph = np.exp(1j * np.multiply.outer(xi, k))\n"
              "out = np.empty(4, dtype=complex)\n"
              "z = np.zeros(4, dtype=np.complex128)\n"
              "w = np.zeros(4, dtype='complex128')\n"
              "resid = abs(out.imag).max() + out.real.sum()\n")
    assert sorted(_complex_uses(source)) == sorted([
        "2: 1j", "3: complex", "4: .complex128", "5: 'complex128'", "6: .imag", "6: .real"])


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_each_point_takes_the_rule_of_its_own_frequency(monkeypatch, dim, refined):
    # over a batch spanning |xi| = 0.05-26, each point's table row has
    # 16 max(4, ceil(K (q + |xi|) / 16)) nodes from its own |xi|, not the
    # node count of the batch's largest |xi|
    p = default_profile(dim)
    p = p.refined() if refined else p
    rng = np.random.Generator(np.random.Philox(5))
    dirs = rng.normal(size=(40, dim))
    pts = np.geomspace(0.05, 26.0, 40)[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    seen = []
    spherical_means = kernel._spherical_means

    def spy(n, s, r, ds):
        seen.extend((float(v), r.size) for v in s)
        return spherical_means(n, s, r, ds)

    monkeypatch.setattr(kernel, "_spherical_means", spy)
    gradient_magnitude(p, pts, 2)
    K, q = p.truncation_radius, p.quadrature_nodes
    want = [(s, 16 * max(4, math.ceil(K * (q + s) / 16)))
            for s in map(float, np.sqrt((pts ** 2).sum(axis=1)))]
    assert sorted(seen) == sorted(want)


def _traced_peak(fn, *args):
    """Traced peak of a second call of fn(*args), the first one untraced."""
    fn(*args)  # fills the multi-index caches untraced
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_far_point_does_not_size_the_whole_batch():
    # 1.95 MiB is the traced peak of this 2D batch, 1,000 points with
    # |xi| in [0.05, 5] and one at |xi| = 1000, when each point takes its own
    # rule; the far point's rule for every row read 114.6 MiB
    pts = np.zeros((1001, 2))
    pts[:1000, 0] = np.linspace(0.05, 5.0, 1000)
    pts[1000, 0] = 1e3
    assert _traced_peak(gradient_magnitude, default_profile(2), pts, 2) <= 1.1 * 1.95 * 2 ** 20
