"""Nonlinearities, Picard iteration, constraint and distance diagnostics."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad
from scipy.optimize import brentq

from biflow import fields, flow, semigroup
from biflow.errors import ManifoldTubeExitError
from biflow.fields import (Grid, GridField, SpaceTimeField, Spectrum, gradient,
                           hessian, inverse_transform, laplacian, pointwise_norm)
from biflow.flow import (FlowConfig, FlowDiagnostics, constant_initial_data,
                         constraint_diagnostics, distance_experiment,
                         equator_initial_data, nonlinearity_f1, nonlinearity_f2,
                         nonlinearity_f3, picard_solve)
from biflow.flow import (_check_tube, _clamp_to_tube, _DerivBundle, _f1_from_bundle,
                         _f2_from_bundle, _f3_from_bundle, _tail_radius)
from biflow.kernel import ALPHA
from biflow.manifold import SphereTarget, _h_derivs, distance_to_sphere, dpi, project, rho
from biflow.norms import (NormReport, _cylinder_average_maxima, _stack_magnitudes,
                          _trapezoid_weights, bmo_seminorm, carleson_functional,
                          cylinder_radii, smoothing_ratios, x_norm)
from biflow.semigroup import (apply_G, apply_G_trajectory, apply_S_div_trajectory,
                              apply_S_trajectory, duhamel_sweep, free_spectrum,
                              operator_bound_experiment)


def _cfg(grid, target, **kw):
    base = dict(t_final=1.0, num_frames=32, picard_tol=1e-9)
    base.update(kw)
    return FlowConfig(grid, target, **base)


# ----------------------------------------------------------------------
# nonlinearities
# ----------------------------------------------------------------------

def test_nonlinearities_vanish_on_constant_maps(grid64, sphere3):
    u = constant_initial_data(grid64, [0.0, 1.0, 0.0])
    assert np.abs(nonlinearity_f1(u, sphere3).values).max() == 0.0
    assert np.abs(nonlinearity_f2(u, sphere3).values).max() == 0.0
    assert np.abs(nonlinearity_f3(u, sphere3).values).max() == 0.0


def test_f1_matches_finite_difference_chain_rule(sphere3):
    # oracle: assemble -<Lap u, Lap(DPi(u))> from projection derivatives with
    # periodic centered differences; the spectral assembly must converge to it
    # at second order in the FD step
    eps = 0.1

    def f1_fd_error(M):
        g = Grid(1, 2 * np.pi, M)
        u = equator_initial_data(g, eps)
        h = g.spacing
        vals = u.values
        basis = np.eye(3)
        # matrix field DPi(u(x)) and ambient Laplacian of u by differences
        dpi_mat = np.stack([dpi(sphere3, vals, 1, (np.broadcast_to(b, vals.shape),))
                            for b in basis], axis=-1)  # grid + (l_out, l_in)
        lap_u = (np.roll(vals, -1, 0) - 2 * vals + np.roll(vals, 1, 0)) / h ** 2
        lap_dpi = (np.roll(dpi_mat, -1, 0) - 2 * dpi_mat + np.roll(dpi_mat, 1, 0)) / h ** 2
        oracle = -np.einsum("xi,xij->xj", lap_u, lap_dpi)
        got = nonlinearity_f1(u, sphere3).values
        return np.abs(got - oracle).max()

    e1, e2 = f1_fd_error(64), f1_fd_error(128)
    assert np.log2(e1 / e2) >= 1.9


def test_f2_closed_form_on_great_circle(sphere3):
    # linear-phase equator map u = (cos kx, sin kx, 0): the flux field is
    # k^3 (-sin kx, cos kx, 0) exactly
    g = Grid(1, 2 * np.pi, 64)
    x = g.coordinates()[0]
    u = GridField(g, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=-1))
    f2 = nonlinearity_f2(u, sphere3)
    expect = np.stack([-np.sin(x), np.cos(x), np.zeros_like(x)], axis=-1)
    assert np.abs(f2.values[..., 0, :] - expect).max() < 1e-10


def test_f2_homogeneity_degrees(grid64, sphere3):
    # halving the perturbation amplitude scales each contribution by its
    # gradient degree (2 or 3); the total sits between the two within 5%
    for eps in (0.02,):
        a = nonlinearity_f2(equator_initial_data(grid64, eps), sphere3).values
        b = nonlinearity_f2(equator_initial_data(grid64, eps / 2), sphere3).values
        ratio = np.abs(a).max() / np.abs(b).max()
        assert 4.0 * 0.95 <= ratio <= 8.0 * 1.05


def test_f3_quartic_amplitude_scaling(grid64, sphere3):
    a = nonlinearity_f3(equator_initial_data(grid64, 0.05), sphere3).values
    b = nonlinearity_f3(equator_initial_data(grid64, 0.025), sphere3).values
    ratio = np.abs(a).max() / np.abs(b).max()
    assert ratio == pytest.approx(16.0, rel=0.05)


def test_f3_gradient_power_bound_stable_under_refinement(sphere3, rng):
    # fitted C in |F3| <= C |grad u|^4 over tube-valued band-limited fields
    def fitted(M):
        g = Grid(1, 2 * np.pi, M)
        x = g.coordinates()[0]
        best = 0.0
        for k in range(4):
            phase = 0.2 * np.sin(x + 1.3 * k) + 0.1 * np.cos(2 * x + k)
            radius = 1.0 + 0.2 * np.sin(2 * x + 0.7 * k)
            vals = radius[..., None] * np.stack(
                [np.cos(phase), np.sin(phase), np.zeros_like(phase)], axis=-1)
            u = GridField(g, vals)
            f3 = np.sqrt((nonlinearity_f3(u, sphere3).values ** 2).sum(-1))
            gmag = np.sqrt((gradient(u) ** 2).sum((-2, -1)))
            mask = gmag ** 4 > 1e-8
            best = max(best, float((f3[mask] / gmag[mask] ** 4).max()))
        return best

    c1, c2 = fitted(64), fitted(128)
    assert np.isfinite(c1) and c1 > 0
    assert abs(c2 - c1) <= 0.05 * c1


def test_f1_f2_pointwise_gradient_bounds(sphere3, rng):
    # |F1| <= C (|grad^2 u|^2 + |grad u|^4), |F2| <= C (|grad^2 u||grad u| +
    # |grad u|^3) with one finite fitted C over random tube-valued fields
    from biflow.fields import hessian

    g = Grid(1, 2 * np.pi, 64)
    x = g.coordinates()[0]
    worst1 = worst2 = 0.0
    for k in range(5):
        phase = 0.3 * np.sin(x + 0.9 * k) + 0.15 * np.cos(3 * x - k)
        radius = 1.0 + 0.25 * np.sin(2 * x + k)
        vals = radius[..., None] * np.stack(
            [np.cos(phase), np.sin(phase), np.zeros_like(phase)], axis=-1)
        u = GridField(g, vals)
        gmag = np.sqrt((gradient(u) ** 2).sum((-2, -1)))
        hmag = np.sqrt((hessian(u) ** 2).sum((-3, -2, -1)))
        f1 = np.sqrt((nonlinearity_f1(u, sphere3).values ** 2).sum(-1))
        f2 = np.sqrt((nonlinearity_f2(u, sphere3).values ** 2).sum((-2, -1)))
        rhs1 = hmag ** 2 + gmag ** 4
        rhs2 = hmag * gmag + gmag ** 3
        m1, m2 = rhs1 > 1e-10, rhs2 > 1e-10
        worst1 = max(worst1, float((f1[m1] / rhs1[m1]).max()))
        worst2 = max(worst2, float((f2[m2] / rhs2[m2]).max()))
    assert np.isfinite(worst1) and worst1 > 0
    assert np.isfinite(worst2) and worst2 > 0


# Oracle: the nonlinearities assembled term by term from dpi, one call per
# projection derivative.  The flow evaluates the same sums through the Gram
# form of a ProjectionJet, which adds them in another order, so it must agree
# with these to round-off: within 1e-13 of the oracle's largest magnitude.

def _oracle_f1(u, target):
    vals, grad, lap = u.values, gradient(u), laplacian(u).values
    acc = dpi(target, vals, 2, (lap, lap))
    for a in range(u.grid.dim):
        ga = grad[..., a, :]
        acc = acc + dpi(target, vals, 3, (ga, ga, lap))
    return -acc


def _oracle_f2(u, target):
    vals, grad, hess, lap = u.values, gradient(u), hessian(u), laplacian(u).values
    n = u.grid.dim
    out = np.empty(u.grid.shape + (n, u.codomain_dim))
    for alpha in range(n):
        galpha = grad[..., alpha, :]
        acc = 2.0 * dpi(target, vals, 2, (galpha, lap))
        for a in range(n):
            ga = grad[..., a, :]
            acc = acc + dpi(target, vals, 3, (galpha, ga, ga))
            acc = acc + 2.0 * dpi(target, vals, 2, (hess[..., alpha, a, :], ga))
        out[..., alpha, :] = acc
    return out


def _oracle_f3(u, target):
    vals, grad = u.values, gradient(u)
    n = u.grid.dim
    B = np.zeros_like(vals)
    for a in range(n):
        ga = grad[..., a, :]
        B = B + dpi(target, vals, 2, (ga, ga))
    term1 = np.zeros_like(vals)
    for a in range(n):
        ga = grad[..., a, :]
        term1 = term1 + dpi(target, vals, 3, (ga, ga, B))
    term1 = dpi(target, vals, 1, (term1,))
    term2 = np.zeros_like(vals)
    for a in range(n):
        ga = grad[..., a, :]
        term2 = term2 + dpi(target, vals, 2, (ga, dpi(target, vals, 2, (ga, B))))
    return term1 + 2.0 * term2


def _oracle_constraint(u, target, tolerance=1e-6, seed=1234, num_probes=8):
    grid = u.grid
    rng = np.random.Generator(np.random.Philox(seed))
    probes = rng.normal(size=(num_probes, u.codomain_dim))
    sup_d, masses = [], []
    orth = 0.0
    for j in range(u.num_frames):
        vals = u.values[j]
        sup_d.append(float(distance_to_sphere(vals).max()))
        masses.append(float(rho(target, vals).sum()) * grid.cell_volume)
        base = project(target, vals)
        qv = vals - base
        for v in probes:
            tangent = dpi(target, base, 1, (np.broadcast_to(v, vals.shape),))
            orth = max(orth, float(np.abs((tangent * qv).sum(axis=-1)).max()))
    return {"sup_distance": sup_d, "rho_mass": masses,
            "orthogonality_residual": orth,
            "flagged": bool(max(masses) > tolerance * grid.volume)}


def _off_sphere_field(dim, M, shift=0.0):
    # radius 1 +- 0.2 and a component off the equator plane: inside the tube,
    # off the sphere, with every projection-derivative term nonzero
    g = Grid(dim, 2 * np.pi, M)
    x = g.coordinates()
    phase = 0.3 * np.sin(x[0] + shift) + 0.2 * np.cos(2 * x[-1])
    radius = 1.0 + 0.2 * np.sin(2 * x[0] + 0.3 + shift)
    vals = np.stack([radius * np.cos(phase), radius * np.sin(phase),
                     0.1 * np.cos(x[-1] - shift)], axis=-1)
    return GridField(g, vals)


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32), (3, 16)])
def test_nonlinearities_bitwise_equal_dpi_oracle(dim, M, sphere3):
    u = _off_sphere_field(dim, M)
    for fn, oracle in ((nonlinearity_f1, _oracle_f1), (nonlinearity_f2, _oracle_f2),
                       (nonlinearity_f3, _oracle_f3)):
        got, want = fn(u, sphere3).values, oracle(u, sphere3)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32)])
def test_constraint_diagnostics_equal_dpi_probe(dim, M, sphere3):
    frames = [_off_sphere_field(dim, M, shift).values for shift in (0.0, 0.4, 1.1)]
    u = SpaceTimeField(Grid(dim, 2 * np.pi, M), np.array([0.0, 0.5, 1.0]),
                       np.stack(frames))
    assert constraint_diagnostics(u, sphere3) == _oracle_constraint(u, sphere3)


# ----------------------------------------------------------------------
# the component-major bundle and jet against the field layout they had
# before: each point's components contiguous, every dot product numpy's sum
# over that trailing axis, which is pairwise from 8 components on, where
# the component-major sums add left to right
# ----------------------------------------------------------------------

def _field_dot(a, b):
    return np.sum(a * b, axis=-1, keepdims=True)


class _FieldLayoutJet:
    """ProjectionJet in field layout: y is (..., l), grads (..., n, l)."""

    def __init__(self, target, y, grads):
        self.y = y
        h, h1, h2, h3 = _h_derivs(target, _field_dot(y, y))
        self.h, self.h1x2, self.h2x4, self.h3x8 = h, 2.0 * h1, 4.0 * h2, 8.0 * h3
        self.g = [grads[..., a, :] for a in range(grads.shape[-2])]
        self.S, self.P, self.V = np.zeros_like(h), np.zeros_like(h), np.zeros_like(y)
        for ga in self.g:
            yg = _field_dot(y, ga)
            self.S += _field_dot(ga, ga)
            self.P += yg * yg
            self.V += yg * ga

    def d1(self, v):
        return self.h * v + self.h1x2 * _field_dot(self.y, v) * self.y

    def d2(self, *pairs):
        y = self.y
        acc = np.zeros_like(y)
        vw, yvyw = np.zeros_like(self.h), np.zeros_like(self.h)
        for v, w in pairs:
            yv, yw = _field_dot(y, v), _field_dot(y, w)
            acc += yw * v
            acc += yv * w
            vw += _field_dot(v, w)
            yvyw += yv * yw
        acc *= self.h1x2
        acc += (self.h1x2 * vw + self.h2x4 * yvyw) * y
        return acc

    def trace3(self, z):
        y, S, P, V = self.y, self.S, self.P, self.V
        yz = _field_dot(y, z)
        acc = np.zeros_like(y)
        for ga in self.g:
            acc += _field_dot(ga, z) * ga
        acc *= 2.0 * self.h1x2
        acc += (self.h1x2 * S + self.h2x4 * P) * z
        acc += (2.0 * self.h2x4 * yz) * V
        acc += (self.h2x4 * (S * yz + 2.0 * _field_dot(V, z)) + self.h3x8 * P * yz) * y
        return acc


def _field_layout_bundle(frames, target):
    """F1, F2, F3, |grad u| and |grad^2 u| of a list of frames, stacked, all
    in field layout, C-ordered: a product of two such arrays is contiguous
    over the components, as a reduction over them must see it."""
    grad = np.ascontiguousarray(np.stack([gradient(f) for f in frames]))
    hess = np.ascontiguousarray(np.stack([hessian(f) for f in frames]))
    lap = np.stack([laplacian(f).values for f in frames])
    jet = _FieldLayoutJet(target, np.stack([f.values for f in frames]), grad)
    g = jet.g
    f1 = -(jet.d2((lap, lap)) + jet.trace3(lap))
    f2 = np.empty(grad.shape)
    for alpha, galpha in enumerate(g):
        acc = 2.0 * jet.d2((galpha, lap), *[(hess[..., alpha, a, :], ga) for a, ga in enumerate(g)])
        f2[..., alpha, :] = acc + jet.trace3(galpha)
    B = jet.d2(*[(ga, ga) for ga in g])
    f3 = 2.0 * jet.d2(*[(ga, jet.d2((ga, B))) for ga in g]) + jet.d1(jet.trace3(B))
    mags = np.sqrt((grad ** 2).sum(axis=(-2, -1))), np.sqrt((hess ** 2).sum(axis=(-3, -2, -1)))
    return (f1, f2, f3), mags


def _rotated_off_sphere_stack(dim, M, ambient_dim):
    # the off-sphere frames, embedded in R^l and rotated, so that every
    # component is nonzero
    r = np.random.Generator(np.random.Philox(ambient_dim))
    q, _ = np.linalg.qr(r.normal(size=(ambient_dim, ambient_dim)))
    frames = [_off_sphere_field(dim, M, shift).values for shift in (0.0, 0.4, 1.1)]
    vals = np.zeros((3,) + frames[0].shape[:-1] + (ambient_dim,))
    vals[..., :3] = np.stack(frames)
    return SpaceTimeField(Grid(dim, 2 * np.pi, M), [0.0, 0.2, 0.5], vals @ q.T)


@pytest.mark.parametrize("ambient_dim", [3, 9])
@pytest.mark.parametrize("dim,M", [(1, 32), (2, 16), (3, 16)])
def test_bundle_forcings_and_norm_bitwise_equal_the_field_layout(dim, M, ambient_dim):
    # a frame and a stack, with 3 components and with 9.  Both layouts add
    # fewer than 8 terms left to right, so those sums keep their bits; from 8
    # terms on the field layout's trailing sum is pairwise and the bundle's
    # stays left to right, and the two agree to the stated round-off
    target = SphereTarget(ambient_dim)
    u = _rotated_off_sphere_stack(dim, M, ambient_dim)
    assert np.all(u.values != 0.0)
    frames = [u.frame(j) for j in range(u.num_frames)]
    for v, want in ((u, _field_layout_bundle(frames, target)[0]),
                    (frames[1], [w[0] for w in _field_layout_bundle(frames[1:2], target)[0]])):
        b = _DerivBundle(v.values, target, Spectrum(v))
        got = (np.moveaxis(_f1_from_bundle(b), 0, -1),
               np.moveaxis(_f2_from_bundle(b), (0, 1), (-2, -1)),
               np.moveaxis(_f3_from_bundle(b), 0, -1))
        for g, w in zip(got, want):
            if ambient_dim < 8:
                assert np.array_equal(g, w)
            else:  # measured: 1.2e-15 of the array max
                assert np.abs(g - w).max() <= 2e-15 * np.abs(w).max()
    # the magnitudes a Picard pass writes from a bundle's derivatives, of
    # dim * l and dim**2 * l components
    b = _DerivBundle(u.values, target, Spectrum(u))
    got = _stack_magnitudes(u.grid, u.num_frames, 1,
                            lambda block: (b.grad[:, :, block], b.hess[:, :, :, block]))
    for terms, g, w in zip((dim * ambient_dim, dim ** 2 * ambient_dim), [m[:, 0] for m in got],
                           _field_layout_bundle(frames, target)[1]):
        if terms < 8:
            assert np.array_equal(g, w)
        else:  # measured: 6.0e-16 pointwise
            assert np.all(np.abs(g - w) <= 1e-15 * w)
    got, want = constraint_diagnostics(u, target), _oracle_constraint(u, target)
    if ambient_dim < 8:
        assert got == want
    else:
        # the probe vanishes in exact arithmetic: both residuals are
        # round-off, measured at 2.3e-16 and below
        orth = got.pop("orthogonality_residual"), want.pop("orthogonality_residual")
        assert got == want and max(orth) <= 1e-15


def test_nonlinearities_raise_outside_tube(grid64, sphere3):
    u = GridField(grid64, np.full(grid64.shape + (3,), [1.6, 0.0, 0.0]))
    for fn in (nonlinearity_f1, nonlinearity_f2, nonlinearity_f3):
        with pytest.raises(ManifoldTubeExitError) as err:
            fn(u, sphere3)
        assert err.value.radius == pytest.approx(1.6)


# ----------------------------------------------------------------------
# Picard iteration
# ----------------------------------------------------------------------

def test_constant_data_is_exact_fixed_point(grid64, sphere3):
    cfg = _cfg(grid64, sphere3, num_frames=16)
    traj, diag = picard_solve(cfg, constant_initial_data(grid64, [1.0, 0, 0]))
    assert diag.converged and diag.iterations == 1
    assert diag.diff_norms == [0.0]
    assert np.abs(traj.values - traj.values[0]).max() == 0.0


def test_picard_requires_sphere_valued_data(grid64, sphere3):
    bad = GridField(grid64, np.full(grid64.shape + (3,), [1.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        picard_solve(_cfg(grid64, sphere3), bad)


@pytest.mark.parametrize("points, ambient_dim, t_final", [(16, 3, 1.0), (16, 3, 0.004),
                                                         (64, 4, 1.0)])
def test_picard_rejects_data_off_the_config(monkeypatch, sphere3, points, ambient_dim, t_final):
    # the config is on 64 points into R^3; t_final = 0.004 resolves a scale
    # on its grid but none on u0's 16 points: the solve must name the
    # mismatch, not the scale, and before any transform
    u0 = equator_initial_data(Grid(1, 2.0 * np.pi, points), 0.05, 1, ambient_dim)
    cfg = _cfg(Grid(1, 2.0 * np.pi, 64), sphere3, t_final=t_final)
    monkeypatch.setattr("biflow.flow.Spectrum", None)
    with pytest.raises(ValueError, match="do not match"):
        picard_solve(cfg, u0)


@pytest.mark.parametrize("name, value", [("num_frames", 8.5), ("num_frames", 32.0),
                                         ("max_picard_iters", 3.5)])
def test_flow_config_rejects_a_count_that_is_not_an_integer(grid64, sphere3, name, value):
    # 8.5 frames would make 10 frame times, the last one past t_final
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        _cfg(grid64, sphere3, **{name: value})
    cfg = _cfg(grid64, sphere3, num_frames=np.int64(8), max_picard_iters=np.int32(3))
    assert cfg.times().size == 9 and cfg.times()[-1] == cfg.t_final


def test_solve_is_second_order_in_time(sphere3):
    # frame times T (m/N)^4: doubling N quarters u_N(T) - u_2N(T), and the
    # contraction factor settles as the frames refine
    g = Grid(1, 2.0 * np.pi, 256)
    u0 = equator_initial_data(g, 0.7)
    final, theta = {}, {}
    for frames in (16, 32, 64):
        traj, diag = picard_solve(_cfg(g, sphere3, t_final=0.01, num_frames=frames,
                                       picard_tol=1e-11), u0)
        assert diag.converged
        final[frames], theta[frames] = traj.values[-1], max(diag.contraction_ratios)
    ratio = np.abs(final[16] - final[32]).max() / np.abs(final[32] - final[64]).max()
    assert 3.5 <= ratio <= 4.5  # measured 3.94
    assert abs(theta[32] - theta[64]) < 0.01  # measured 0.2998 and 0.2954


def test_solution_norm_and_contraction_settle_across_grid_sizes(sphere3):
    # the same data on M = 64 .. 512 points: the last iterate's solution norm
    # spreads by under 1% (not monotone in M) and max theta by under 0.005
    norm, theta = [], []
    for M in (64, 128, 256, 512):
        g = Grid(1, 2.0 * np.pi, M)
        _, diag = picard_solve(_cfg(g, sphere3, t_final=0.01, picard_tol=1e-11),
                               equator_initial_data(g, 0.7))
        assert diag.converged
        norm.append(diag.iterate_norms[-1])
        theta.append(max(diag.contraction_ratios))
    assert max(norm) / min(norm) - 1 < 0.01  # measured 0.71%: 1.6487 .. 1.6370
    assert max(theta) - min(theta) < 0.005  # measured 0.30202 .. 0.29972


def test_small_data_contraction_family(grid64, sphere3):
    cfg = _cfg(grid64, sphere3)
    thetas = {}
    for eps in (0.02, 0.05, 0.1):
        traj, diag = picard_solve(cfg, equator_initial_data(grid64, eps))
        assert diag.converged
        assert max(diag.contraction_ratios) < 1.0
        thetas[eps] = max(diag.contraction_ratios)
    assert thetas[0.02] <= thetas[0.05] + 1e-9 <= thetas[0.1] + 2e-9


def test_fixed_point_residual_within_twice_tolerance(grid64, sphere3):
    cfg = _cfg(grid64, sphere3)
    _, diag = picard_solve(cfg, equator_initial_data(grid64, 0.05))
    assert diag.converged
    assert diag.fixed_point_residual <= 2 * cfg.picard_tol


def test_flow_self_similarity(sphere3):
    g1 = Grid(1, 2 * np.pi, 64)
    traj1, _ = picard_solve(_cfg(g1, sphere3, picard_tol=1e-10),
                            equator_initial_data(g1, 0.05))
    g2 = Grid(1, np.pi, 64)  # x -> 2x: same samples, half box
    x2 = g2.coordinates()[0]
    phase = 0.05 * np.sin(2 * x2)
    vals = np.stack([np.cos(phase), np.sin(phase), np.zeros_like(phase)], axis=-1)
    traj2, _ = picard_solve(_cfg(g2, sphere3, t_final=1.0 / 16, picard_tol=1e-10),
                            GridField(g2, vals))
    assert np.abs(traj2.values - traj1.values).max() <= 1e-6


@pytest.mark.parametrize("dim,M,frames", [(1, 64, 16), (2, 16, 8)])
def test_every_layer_is_covariant_under_parabolic_scaling(dim, M, frames, sphere3):
    # (L, T) -> (lam L, lam^4 T) with the same M and the same frames: the
    # solution norm, d_k and theta_k of the flow are scale invariant, and so
    # are the BMO seminorm and the Carleson functionals at the scaled radius.
    # Powers of two scale floats exactly, so each keeps its bits; a layer
    # that used an absolute length or time, or summed in an order that
    # depended on one, would not
    u0 = (equator_initial_data(Grid(1, 2 * np.pi, M), 0.3) if dim == 1
          else _wavy_initial_data(dim, M, 0.3))
    L = u0.grid.box_length

    def numbers(lam):
        f = GridField(Grid(dim, lam * L, M), u0.values)
        R = lam * L / 4
        out = [bmo_seminorm(f, R), carleson_functional(f, 1, R), carleson_functional(f, 2, R)]
        for mode in ("extrinsic", "intrinsic"):
            cfg = _cfg(f.grid, sphere3, t_final=lam ** 4 * 0.5, num_frames=frames, mode=mode,
                       max_picard_iters=6)
            diag = picard_solve(cfg, f)[1].to_json()
            out.append({key: diag[key] for key in ("iterate_norms", "d_k", "theta_k")})
        if dim > 1:
            return out, []
        # the smoothing ratios, both halves of the operator bounds, and the
        # distance estimate's K, lhs and verdicts keep their bits too; its
        # times come from np.geomspace, which does not scale exactly, so the
        # times over lam^4 and the right-hand sides are equal to round-off
        ratios = smoothing_ratios(f, R)
        assert [row.pop("R") for row in ratios] == [R / 2 ** j for j in range(len(ratios))]
        dist = distance_experiment(f, R)
        out += [ratios, operator_bound_experiment(f.grid, cfg.times(), 4, 0), dist["K"],
                [(row["lhs"], row["holds"]) for row in dist["rows"]]]
        return out, [(row["t"] / lam ** 4, row["rhs"]) for row in dist["rows"]]

    want, want_rows = numbers(1.0)
    assert min(want[:3]) > 0.0 and len(want[3]["theta_k"]) >= 4
    for lam in (0.5, 2.0):
        got, rows = numbers(lam)
        assert got == want
        assert len(rows) == len(want_rows)
        for (t, rhs), (want_t, want_rhs) in zip(rows, want_rows):
            assert abs(t - want_t) <= 1e-14 * want_t and abs(rhs - want_rhs) <= 1e-14 * want_rhs


def test_two_dimensional_flow_converges(sphere3):
    g = Grid(2, 2 * np.pi, 32)
    x, y = g.coordinates()
    phase = 0.05 * np.sin(x) * np.cos(y)
    vals = np.stack([np.cos(phase), np.sin(phase), np.zeros_like(phase)], axis=-1)
    cfg = FlowConfig(g, sphere3, t_final=0.5, num_frames=16, picard_tol=1e-9)
    _, diag = picard_solve(cfg, GridField(g, vals))
    assert diag.converged
    assert max(diag.contraction_ratios) < 1.0
    assert max(diag.rho_mass) <= 1e-6 * g.volume
    assert diag.orthogonality_residual <= 1e-12


def test_intrinsic_mode_converges(grid64, sphere3):
    cfg = _cfg(grid64, sphere3, mode="intrinsic")
    traj, diag = picard_solve(cfg, equator_initial_data(grid64, 0.05))
    assert diag.converged
    assert max(diag.contraction_ratios) < 1.0


def test_modes_agree_on_great_circle_family(grid64, sphere3):
    # the quartic correction is normal on circle-valued maps, so the two
    # mild solutions separate only at the correction's own (eps^4) scale
    eps = 0.05
    ext, _ = picard_solve(_cfg(grid64, sphere3, mode="extrinsic"),
                          equator_initial_data(grid64, eps))
    intr, _ = picard_solve(_cfg(grid64, sphere3, mode="intrinsic"),
                           equator_initial_data(grid64, eps))
    gap = np.abs(ext.values - intr.values).max()
    assert gap <= 10 * eps ** 4


def test_clamp_policy_flags_nothing_on_small_data(grid64, sphere3):
    cfg = _cfg(grid64, sphere3, tube_exit_policy="clamp")
    _, diag = picard_solve(cfg, equator_initial_data(grid64, 0.05))
    assert diag.converged and not diag.tube_clamped


def test_tube_exit_names_first_offending_frame_and_in_frame_location(sphere3):
    g = Grid(2, 2 * np.pi, 16)
    vals = np.zeros((4,) + g.shape + (3,))
    vals[..., 0] = 1.0
    vals[2, 5, 7, 0] = 1.7   # first frame out, and its worst point
    vals[2, 1, 2, 0] = 1.6
    vals[3, 0, 0, 0] = 1.9   # worse, but in a later frame
    times = np.array([0.0, 0.1, 0.25, 0.5])
    with pytest.raises(ManifoldTubeExitError) as err:
        _check_tube(vals, sphere3, times)
    assert err.value.location == (5, 7)
    assert err.value.radius == pytest.approx(1.7)
    assert "at frame t=0.25: |u|=1.700000 at lattice index (5, 7)" in str(err.value)


def test_clamp_moves_every_point_the_tube_check_rejects(sphere3):
    # |u| = 1.5 + 1e-5 is outside the tube of radius 0.5 by less than a
    # relative 1e-5, which a tolerance-based comparison would overlook
    g = Grid(1, 2 * np.pi, 16)
    vals = np.zeros(g.shape + (3,))
    vals[:, 0] = np.linspace(0.6, 1.4, 16)
    vals[3, 0] = 1.5 + 1e-5
    with pytest.raises(ManifoldTubeExitError):
        _check_tube(vals, sphere3)
    out, did = _clamp_to_tube(vals, sphere3)
    assert did
    assert np.sqrt((out[3] ** 2).sum()) == pytest.approx(1.5, abs=1e-15)
    inside = np.arange(16) != 3
    assert out[inside].tobytes() == vals[inside].tobytes()
    vals[3, 0] = 1.5  # on the edge: inside
    assert _clamp_to_tube(vals, sphere3) == (vals, False)
    # both edges, over many directions: scaling onto the edge rounds a
    # share of points an ulp outside, and the clamp must correct them
    rng = np.random.Generator(np.random.Philox(11))
    dirs = rng.normal(size=(20000, 3))
    dirs /= np.sqrt((dirs ** 2).sum(axis=-1, keepdims=True))
    for lo, hi in ((1.5, 2.0), (0.3, 0.5)):
        vals = dirs * rng.uniform(lo, hi, size=(20000, 1))
        outside = np.abs(np.sqrt((vals ** 2).sum(axis=-1)) - 1.0) > sphere3.tube_radius
        out, did = _clamp_to_tube(vals, sphere3)
        assert did
        _check_tube(out, sphere3)
        assert out[~outside].tobytes() == vals[~outside].tobytes()
        radii = np.sqrt((out[outside] ** 2).sum(axis=-1))
        assert np.abs(radii - (1.5 if lo > 1 else 0.5)).max() <= 1e-15


def test_rough_data_exits_tube_with_location(grid64, sphere3):
    cfg = _cfg(grid64, sphere3, num_frames=24, max_picard_iters=12)
    with pytest.raises(ManifoldTubeExitError) as err:
        picard_solve(cfg, equator_initial_data(grid64, 1.4, 2))
    assert err.value.radius is not None and err.value.location is not None


def test_contraction_failure_reported_with_diagnostics(grid64, sphere3):
    # clamping keeps the run alive long enough for three consecutive
    # non-contracting ratios to be observed and reported, not raised
    cfg = _cfg(grid64, sphere3, num_frames=24, max_picard_iters=20,
               tube_exit_policy="clamp")
    traj, diag = picard_solve(cfg, equator_initial_data(grid64, 1.8, 2))
    assert not diag.converged
    assert diag.tube_clamped
    assert diag.failure == "contraction-failure"
    assert sum(r >= 1.0 for r in diag.contraction_ratios[-3:]) == 3
    assert traj.num_frames == cfg.num_frames + 1


# ----------------------------------------------------------------------
# the stack Picard path against the per-frame one
# ----------------------------------------------------------------------

# Oracle: the solution norm and the Picard iteration one frame at a time.
# Each frame's derivatives are read off its own coefficients: a frame's
# transform, or, given a stack of coefficients, that frame's slice of it.
# The solver works on whole frame stacks and must reproduce these bits
# exactly.

def _oracle_x_norm(u, T=None, coeffs=None):
    grid = u.grid
    if T is None:
        T = float(u.times[-1])
    sup_part = weighted = weighted_arg = 0.0
    grad_pow4 = np.empty((u.num_frames,) + grid.shape)
    hess_pow2 = np.empty((u.num_frames,) + grid.shape)
    for j in range(u.num_frames):
        fr = u.frame(j)
        spec = Spectrum(fr) if coeffs is None else Spectrum.with_coeffs(grid, coeffs[:, j])
        gmag = pointwise_norm(spec.gradient(), grid)
        hmag = pointwise_norm(spec.hessian(), grid)
        grad_pow4[j] = gmag ** 4
        hess_pow2[j] = hmag ** 2
        t = u.times[j]
        if 0 < t <= T * (1 + 1e-12):
            sup_part = max(sup_part, fr.sup_norm())
            wval = t ** 0.25 * float(gmag.max()) + t ** 0.5 * float(hmag.max())
            if wval > weighted:
                weighted, weighted_arg = wval, t
    scales = []
    m4_best = m2_best = 0.0
    arg4 = arg2 = None
    for r in cylinder_radii(u.times, T ** 0.25, grid):
        w = _trapezoid_weights(u.times, min(r ** 4, T))
        m4 = _cylinder_average_maxima(grid, np.tensordot(w, grad_pow4, axes=(0, 0))[None],
                                      r)[0] ** 0.25
        m2 = _cylinder_average_maxima(grid, np.tensordot(w, hess_pow2, axes=(0, 0))[None],
                                      r)[0] ** 0.5
        scales.append((r, m4, m2))
        if m4 > m4_best:
            m4_best, arg4 = m4, r
        if m2 > m2_best:
            m2_best, arg2 = m2, r
    return NormReport(sup_part, weighted + m4_best + m2_best, tuple(scales),
                      {"weighted_sup_time": weighted_arg,
                       "morrey4_radius": arg4, "morrey2_radius": arg2})


def _oracle_forcing_frames(config, traj, coeffs):
    """Per frame, in field layout: the forcings F1, F2 [, F3] from a bundle
    of that frame alone, and whether any frame was clamped.  Clamped frames
    have no coefficients: with any clamped, every frame is transformed, as
    the solver transforms the whole clamped stack."""
    grid, target = config.grid, config.target
    frames, clamped_any = [], False
    for j in range(traj.num_frames):
        vals = traj.values[j]
        if config.tube_exit_policy == "clamp":
            vals, did = _clamp_to_tube(vals, target)
            clamped_any |= did
        else:
            _check_tube(vals, target)
        frames.append(GridField(grid, vals))
    parts = []
    for j, field in enumerate(frames):
        if clamped_any or coeffs is None:
            spec = Spectrum(field)
        else:
            spec = Spectrum.with_coeffs(grid, coeffs[:, j])
        bundle = _DerivBundle(field.values, target, spec)
        frame_parts = [np.moveaxis(_f1_from_bundle(bundle), 0, -1),
                       np.moveaxis(_f2_from_bundle(bundle), (0, 1), (-2, -1))]
        if config.mode == "intrinsic":
            frame_parts.append(np.moveaxis(_f3_from_bundle(bundle), 0, -1))
        parts.append(frame_parts)
    return parts, clamped_any


def _oracle_apply_T(config, u0, traj, coeffs):
    """The solver's mode-space order, one frame at a time: per frame the
    coefficients div F2 + F1 [+ F3], then one sweep of the stack, plus the
    free evolution's coefficients, and each frame inverted on its own."""
    grid, times = config.grid, traj.times
    parts, clamped = _oracle_forcing_frames(config, traj, coeffs)
    summed = []
    for f1, f2, *f3 in parts:
        acc = Spectrum(GridField(grid, f2)).divergence()
        acc += Spectrum(GridField(grid, f1)).coeffs
        if f3:
            acc += Spectrum(GridField(grid, f3[0])).coeffs
        summed.append(acc)
    new_coeffs = duhamel_sweep(grid, times, np.stack(summed, axis=1))
    new_coeffs += free_spectrum(Spectrum(u0), times).coeffs
    frames = [np.moveaxis(inverse_transform(grid, new_coeffs[:, j]), 0, -1)
              for j in range(times.size)]
    return SpaceTimeField(grid, times, np.stack(frames)), new_coeffs, clamped


def _physical_oracle_apply_T(config, u0, traj, coeffs):
    """The Picard map part by part in physical space, as the solver ran it
    before it summed in mode space: each forcing stack transformed and swept
    on its own, the frames added, and every iterate transformed forward."""
    grid, times = config.grid, traj.times
    parts, clamped = _oracle_forcing_frames(config, traj, None)
    f1, f2, *f3 = (SpaceTimeField(grid, times, np.stack(p)) for p in zip(*parts))
    new = (apply_G_trajectory(u0, times).values + apply_S_trajectory(f1).values
           + apply_S_div_trajectory(f2).values)
    if f3:
        new = new + apply_S_trajectory(f3[0]).values
    return SpaceTimeField(grid, times, new), None, clamped


def _oracle_picard(config, u0, physical=False):
    """picard_solve through _oracle_apply_T, whose iterates keep their
    coefficients and whose norms read them; or, physical, through
    _physical_oracle_apply_T, whose norms transform every iterate's frames."""
    T, times = config.t_final, config.times()
    apply_T = _physical_oracle_apply_T if physical else _oracle_apply_T
    diag = FlowDiagnostics()
    current = apply_G_trajectory(u0, times)
    coeffs = None if physical else free_spectrum(Spectrum(u0), times).coeffs
    diag.iterate_norms.append(_oracle_x_norm(current, T, coeffs).total)

    def diff_norm(new, new_coeffs):
        diff = SpaceTimeField(new.grid, times, new.values - current.values)
        return _oracle_x_norm(diff, T, None if coeffs is None else new_coeffs - coeffs).total

    for k in range(config.max_picard_iters):
        new, new_coeffs, clamped = apply_T(config, u0, current, coeffs)
        diag.tube_clamped |= clamped
        d_k = diff_norm(new, new_coeffs)
        diag.diff_norms.append(d_k)
        diag.iterate_norms.append(_oracle_x_norm(new, T, new_coeffs).total)
        diag.iterations = k + 1
        if len(diag.diff_norms) >= 2 and diag.diff_norms[-2] > 0:
            diag.contraction_ratios.append(d_k / diag.diff_norms[-2])
        current, coeffs = new, new_coeffs
        if d_k <= config.picard_tol:
            diag.converged = True
            break
        if len(diag.contraction_ratios) >= 3 and all(
                r >= 1.0 for r in diag.contraction_ratios[-3:]):
            diag.failure = "contraction-failure"
            break
    if diag.converged:
        diag.fixed_point_residual = diff_norm(*apply_T(config, u0, current, coeffs)[:2])
    frag = _oracle_constraint(current, config.target)
    diag.sup_distance = frag["sup_distance"]
    diag.rho_mass = frag["rho_mass"]
    diag.orthogonality_residual = frag["orthogonality_residual"]
    diag.constraint_flag = frag["flagged"]
    return current, diag


def _check_against_oracles(cfg, u0):
    """picard_solve bit for bit against the mode-space oracle, and within
    round-off of the physical-space one, with the same iterations and flags."""
    traj, diag = picard_solve(cfg, u0)
    oracle_traj, oracle_diag = _oracle_picard(cfg, u0)
    assert traj.values.tobytes() == oracle_traj.values.tobytes()
    assert diag.to_json() == oracle_diag.to_json()
    phys_traj, phys = _oracle_picard(cfg, u0, physical=True)
    for key in ("iterations", "converged", "failure", "tube_clamped"):
        assert getattr(diag, key) == getattr(phys, key)
    assert np.abs(traj.values - phys_traj.values).max() <= 1e-12
    norms, want = np.array(diag.iterate_norms), np.array(phys.iterate_norms)
    assert np.abs(norms - want).max() <= 1e-13 * np.abs(want).max()
    d_k, want = np.array(diag.diff_norms), np.array(phys.diff_norms)
    assert np.abs(d_k - want).max() <= 1e-10 * want.max()
    return diag


def _wavy_initial_data(dim, M, eps):
    g = Grid(dim, 2 * np.pi, M)
    x = g.coordinates()
    phase = eps * np.sin(x[0]) * np.cos(x[-1] + 0.3)
    tilt = 0.5 * eps * np.cos(x[-1])
    vals = np.stack([np.cos(phase) * np.cos(tilt), np.sin(phase) * np.cos(tilt),
                     np.sin(tilt)], axis=-1)
    return GridField(g, vals)


# 1D and 2D run to convergence and the fixed-point check; 3D, the slowest,
# stops after two applications
@pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
@pytest.mark.parametrize("dim,M,frames,t_final,iters", [
    (1, 64, 16, 1.0, 20), (2, 16, 8, 0.5, 20), (3, 16, 4, 0.5, 2)])
def test_picard_solve_bitwise_equals_per_frame_oracle(dim, M, frames, t_final, iters,
                                                      mode, sphere3, monkeypatch):
    # with the default blocks (one for 1D and 2D, 2 frames each in 3D), then
    # again in blocks of 3 frames, the last one ragged
    u0 = _wavy_initial_data(dim, M, 0.1)
    cfg = _cfg(u0.grid, sphere3, t_final=t_final, num_frames=frames, mode=mode,
               max_picard_iters=iters)
    diag = _check_against_oracles(cfg, u0)
    assert diag.converged == (iters == 20) and diag.iterations >= 2
    monkeypatch.setattr(fields, "_BLOCK_POINTS", 3 * M ** dim)
    assert len(fields.frame_blocks(u0.grid, frames + 1)) == frames // 3 + 1
    assert _check_against_oracles(cfg, u0).to_json() == diag.to_json()


def test_clamped_picard_solve_bitwise_equals_per_frame_oracle(grid64, sphere3):
    cfg = _cfg(grid64, sphere3, num_frames=24, max_picard_iters=20,
               tube_exit_policy="clamp")
    diag = _check_against_oracles(cfg, equator_initial_data(grid64, 1.8, 2))
    assert diag.tube_clamped and diag.failure == "contraction-failure"


@pytest.mark.parametrize("mode,parts", [("extrinsic", 2), ("intrinsic", 3)])
def test_picard_application_sweeps_once_and_transforms_no_iterate(mode, parts, grid64,
                                                                   sphere3, monkeypatch):
    # S is linear and acts mode by mode: an application transforms each
    # frame of each forcing part once, one call per block of frames, sweeps
    # their summed coefficients once and inverts the new iterate once.  No
    # iterate and no iterate difference is transformed forward: each iterate
    # keeps the coefficients it came from.
    counts = Counter()
    sweep, rfftn, inverse = semigroup.duhamel_sweep, scipy.fft.rfftn, flow.inverse_transform

    def counted_sweep(*args):
        counts["sweep"] += 1
        return sweep(*args)

    def counted_rfftn(x, *args, **kwargs):
        # a stack: component and frame axes before the grid axis; u0 and the
        # norm scans' ball sums have one axis fewer
        if np.ndim(x) >= grid64.dim + 2:
            counts["stack forward"] += 1
            counts["forcing frames"] += np.shape(x)[-1 - grid64.dim]
        return rfftn(x, *args, **kwargs)

    def counted_inverse(grid, coeffs):
        counts["iterate inverse"] += 1
        return inverse(grid, coeffs)

    monkeypatch.setattr(semigroup, "duhamel_sweep", counted_sweep)
    monkeypatch.setattr(flow, "duhamel_sweep", counted_sweep)
    monkeypatch.setattr(scipy.fft, "rfftn", counted_rfftn)
    monkeypatch.setattr(flow, "inverse_transform", counted_inverse)
    # 17 frames in blocks of 5, 5, 5 and 2
    monkeypatch.setattr(fields, "_BLOCK_POINTS", 5 * grid64.points_per_axis)
    assert len(fields.frame_blocks(grid64, 17)) == 4
    cfg = _cfg(grid64, sphere3, num_frames=16, mode=mode)
    _, diag = picard_solve(cfg, equator_initial_data(grid64, 0.05))
    applications = diag.iterations + 1  # and the fixed-point check
    assert diag.converged and applications >= 3
    assert counts == {"sweep": applications, "stack forward": parts * 4 * applications,
                      "forcing frames": parts * 17 * applications,
                      "iterate inverse": applications}


@pytest.mark.parametrize("dim,M,mode,policy,iters", [
    (2, 16, "extrinsic", "error", 20), (2, 16, "intrinsic", "error", 20),
    (3, 16, "extrinsic", "error", 3), (1, 64, "extrinsic", "clamp", 20)])
def test_picard_solve_and_constraint_diagnostics_do_not_depend_on_the_block_size(
        dim, M, mode, policy, iters, sphere3, monkeypatch):
    # blocks hold whole frames and every step acts on each frame alone: one
    # frame per block, 17 frames in blocks of 3 (the last of 2) and one block
    # give the same bits
    if policy == "clamp":
        u0 = equator_initial_data(Grid(dim, 2 * np.pi, M), 1.8, 2)
    else:
        u0 = _wavy_initial_data(dim, M, 0.1)
    cfg = _cfg(u0.grid, sphere3, t_final=0.5, num_frames=16, mode=mode,
               tube_exit_policy=policy, max_picard_iters=iters)
    runs = []
    for per_block, blocks in ((1, 17), (3, 6), (17, 1)):
        monkeypatch.setattr(fields, "_BLOCK_POINTS", per_block * M ** dim)
        assert len(fields.frame_blocks(u0.grid, 17)) == blocks
        traj, diag = picard_solve(cfg, u0)
        runs.append((traj.values.tobytes(), diag.to_json(),
                     constraint_diagnostics(traj, sphere3)))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1]["tube_clamped"] == (policy == "clamp")
    assert runs[0][1]["iterations"] >= 3


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32), (3, 16)])
def test_stack_x_norm_bitwise_equals_per_frame_oracle(dim, M):
    # with SIMD array powers, times[-1] ** 0.25 is one where the array and
    # the scalar power round differently: the weights must be scalar powers
    times = 3.4 * (np.arange(7) / 6) ** 4
    frames = [_off_sphere_field(dim, M, 0.3 * j).values * (1.0 + 0.1 * j)
              for j in range(times.size)]
    u = SpaceTimeField(Grid(dim, 2 * np.pi, M), times, np.stack(frames))
    for T in (None, 0.5 * (times[-2] + times[-1]), times[-3]):
        got, want = x_norm(u, T), _oracle_x_norm(u, T)
        assert got == want
        assert got.argmax["weighted_sup_time"] > 0
        assert len(got.scales) >= 1


def _traced_peak(cfg, u0):
    picard_solve(cfg, u0)  # builds the multiplier, ball and sweep caches untraced
    tracemalloc.start()
    try:
        picard_solve(cfg, u0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_solve_peak_memory_holds_one_bundle_at_a_time(sphere3):
    # 6.70 MiB is the traced peak of this solve, whose bundles hold one block
    # of 2 frames at a time; 8.70 MiB while a block's derivatives lived on
    # into the next block's and d_k made a block's gradient and Hessian
    # together, 12.75 MiB with the whole-stack bundle, and about 20 MiB with
    # a previous iterate's kept alive across the Duhamel sweeps
    u0 = _wavy_initial_data(3, 16, 0.1)
    cfg = _cfg(u0.grid, sphere3, t_final=0.5, num_frames=4)
    assert _traced_peak(cfg, u0) <= 1.1 * 6.70 * 2 ** 20


def test_picard_solve_peak_memory_sums_the_jet_in_place(sphere3):
    # 3.90 MiB is the traced peak of this solve, in blocks of 8 frames and
    # 1, with the jet's Gram-form sums added in place (4.02 MiB before every
    # magnitude stack took one blocked path); its whole-stack bundle read
    # 4.27 MiB, and the sums written as out-of-place expressions 4.51 MiB
    # before that
    g = Grid(2, 2 * np.pi, 32)
    cfg = _cfg(g, sphere3, num_frames=8)
    assert _traced_peak(cfg, equator_initial_data(g, 0.05)) <= 1.05 * 3.90 * 2 ** 20


def test_three_dimensional_solve_peak_memory_is_one_block_of_frames(sphere3):
    # the 3D solve of the benchmark's evolve workload, 9 frames of 16^3
    # points: 8.94 MiB traced in blocks of 2 frames (10.32 MiB while a
    # block's derivatives lived on into the next block's and d_k made a
    # block's gradient and Hessian together), against 22.79 MiB with the
    # whole-stack bundle, projection jet and constraint projection
    g = Grid(3, 2 * np.pi, 16)
    cfg = _cfg(g, sphere3, num_frames=8)
    assert _traced_peak(cfg, equator_initial_data(g, 0.05)) <= 1.05 * 8.94 * 2 ** 20


# ----------------------------------------------------------------------
# constraint diagnostics
# ----------------------------------------------------------------------

def test_constant_map_has_zero_residuals(grid64, sphere3):
    cfg = _cfg(grid64, sphere3, num_frames=8)
    traj, _ = picard_solve(cfg, constant_initial_data(grid64, [0, 0, 1.0]))
    frag = constraint_diagnostics(traj, sphere3)
    assert max(frag["sup_distance"]) == 0.0
    assert max(frag["rho_mass"]) == 0.0
    assert frag["orthogonality_residual"] == 0.0


def test_converged_run_preserves_constraint(grid64, sphere3):
    cfg = _cfg(grid64, sphere3)
    _, diag = picard_solve(cfg, equator_initial_data(grid64, 0.05))
    assert max(diag.rho_mass) <= 1e-6 * grid64.volume
    assert diag.orthogonality_residual <= 1e-12
    assert not diag.constraint_flag


def test_constraint_defect_shrinks_under_refinement(sphere3):
    def defect(M, frames):
        g = Grid(1, 2 * np.pi, M)
        cfg = FlowConfig(g, sphere3, t_final=1.0, num_frames=frames,
                         picard_tol=1e-11)
        _, diag = picard_solve(cfg, equator_initial_data(g, 0.1))
        return max(diag.rho_mass)

    coarse, fine = defect(32, 12), defect(64, 24)
    assert np.log2(coarse / fine) >= 1.0


# ----------------------------------------------------------------------
# distance experiment
# ----------------------------------------------------------------------

def test_distance_zero_for_constant_data(grid128, sphere3):
    u0 = constant_initial_data(grid128, [1.0, 0, 0])
    for t in (1e-4, 1e-2):
        sm = apply_G(u0, t)
        assert np.abs(np.sqrt((sm.values ** 2).sum(-1)) - 1).max() < 1e-14


def test_distance_estimate_holds_with_slack(grid128, sphere3):
    u0 = equator_initial_data(grid128, 0.2)
    report = distance_experiment(u0, R=grid128.box_length / 4, delta=0.05)
    assert report["all_hold"]
    assert report["K"] > 1.0
    for row in report["rows"]:
        assert row["lhs"] <= row["rhs"]


def _quad_tail(K, dim, **tolerances):
    """int_K^inf e^(-ALPHA r^(4/3)) r^(dim-1) dr by adaptive quadrature."""
    val, _ = quad(lambda r: math.exp(-ALPHA * r ** (4.0 / 3.0)) * r ** (dim - 1),
                  K, np.inf, **tolerances)
    return val


def _bracketed_tail_radius(delta, c_n, dim):
    """The kernel-tail radius as a quad root bracketed in [1, 80] to xtol 1e-6."""
    def tail(K):
        return c_n * _quad_tail(K, dim) - delta
    if tail(1.0) <= 0:
        return 1.0
    return brentq(tail, 1.0, 80.0, xtol=1e-6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_radius_is_the_root_of_the_kernel_tail(dim):
    # the incomplete-gamma root against quadrature, from K = 1 down to the
    # smallest tails; K = 1 exactly when the tail from 1 is within delta
    for c_n in (0.1, 1.0, 10.0, 100.0):
        for delta in (2.0, 1.0, 0.05, 1e-3, 1e-8, 1e-20, 1e-100, 1e-300):
            K = _tail_radius(delta, c_n, dim)
            if K == 1.0:
                assert c_n * _quad_tail(1.0, dim) <= delta
                continue
            tail = c_n * _quad_tail(K, dim, epsabs=0.0, epsrel=1e-13)
            assert tail == pytest.approx(delta, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_radius_is_within_xtol_of_the_bracketed_root(dim):
    # measured: 2.2e-7 apart at worst (2.3e-8 relative), the bracketed
    # root's own quad error
    for c_n in (0.1, 1.0, 10.0, 100.0):
        for delta in (1.0, 0.2, 0.05, 0.01):
            assert abs(_tail_radius(delta, c_n, dim)
                       - _bracketed_tail_radius(delta, c_n, dim)) <= 1e-6


def test_distance_experiment_resolves_the_tiniest_delta():
    # a bracketed root fails for delta = 1e-300 (the tail at 80 is still
    # above it); the closed form has no bracket
    grid = Grid(1, 2 * np.pi, 128)
    u0 = equator_initial_data(grid, 0.2, 1, 3)
    report = distance_experiment(u0, grid.box_length / 4, delta=1e-300)
    assert len(report["rows"]) == 8 and report["all_hold"]
    assert 80.0 < report["K"] < math.inf
    # below what the inverse resolves K is infinite, and the error says why
    with pytest.raises(ValueError, match="delta=5e-324 is too small"):
        distance_experiment(u0, grid.box_length / 4, delta=5e-324)


def test_distance_lhs_monotone_in_amplitude(grid128, sphere3):
    t = 1e-4
    sups = []
    for eps in (0.1, 0.2, 0.4):
        sm = apply_G(equator_initial_data(grid128, eps), t)
        sups.append(np.abs(np.sqrt((sm.values ** 2).sum(-1)) - 1).max())
    assert sups[0] <= sups[1] <= sups[2]
