"""Nonlinearities, Picard iteration, constraint and distance diagnostics."""

import numpy as np
import pytest

from biflow.errors import ManifoldTubeExitError
from biflow.fields import (Grid, GridField, SpaceTimeField, Spectrum, gradient,
                           hessian, laplacian, pointwise_norm)
from biflow.flow import (FlowConfig, FlowDiagnostics, constant_initial_data,
                         constraint_diagnostics, distance_experiment,
                         equator_initial_data, nonlinearity_f1, nonlinearity_f2,
                         nonlinearity_f3, picard_solve)
from biflow.flow import (_check_tube, _clamp_to_tube, _DerivBundle, _f1_from_bundle,
                         _f2_from_bundle, _f3_from_bundle)
from biflow.manifold import distance_to_sphere, dpi, project, rho
from biflow.norms import (NormReport, _cylinder_average_max,
                          _resolved_cylinder_radii, _trapezoid_weights, x_norm)
from biflow.semigroup import (apply_G, apply_G_trajectory, apply_S_div_trajectory,
                              apply_S_trajectory)


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
# projection derivative.  The flow evaluates them through a ProjectionJet and
# must reproduce these bits exactly.

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
        got = fn(u, sphere3).values
        assert got.tobytes() == oracle(u, sphere3).tobytes()


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32)])
def test_constraint_diagnostics_equal_dpi_probe(dim, M, sphere3):
    frames = [_off_sphere_field(dim, M, shift).values for shift in (0.0, 0.4, 1.1)]
    u = SpaceTimeField(Grid(dim, 2 * np.pi, M), np.array([0.0, 0.5, 1.0]),
                       np.stack(frames))
    assert constraint_diagnostics(u, sphere3) == _oracle_constraint(u, sphere3)


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

# Oracle: the solution norm and the Picard iteration one frame at a time,
# each frame transformed on its own and every iterate transformed twice, for
# its norm and for the next application.  The solver works on whole frame
# stacks and must reproduce these bits exactly.

def _oracle_x_norm(u, T=None):
    grid = u.grid
    if T is None:
        T = float(u.times[-1])
    sup_part = weighted = weighted_arg = 0.0
    grad_pow4 = np.empty((u.num_frames,) + grid.shape)
    hess_pow2 = np.empty((u.num_frames,) + grid.shape)
    for j in range(u.num_frames):
        fr = u.frame(j)
        spec = Spectrum(fr)
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
    for r in _resolved_cylinder_radii(u.times, T ** 0.25, grid):
        w = _trapezoid_weights(u.times, min(r ** 4, T))
        m4 = _cylinder_average_max(grid, np.tensordot(w, grad_pow4, axes=(0, 0)), r) ** 0.25
        m2 = _cylinder_average_max(grid, np.tensordot(w, hess_pow2, axes=(0, 0)), r) ** 0.5
        scales.append((r, m4, m2))
        if m4 > m4_best:
            m4_best, arg4 = m4, r
        if m2 > m2_best:
            m2_best, arg2 = m2, r
    return NormReport(sup_part, weighted + m4_best + m2_best, tuple(scales),
                      {"weighted_sup_time": weighted_arg,
                       "morrey4_radius": arg4, "morrey2_radius": arg2})


def _oracle_apply_T(config, hat_u0, traj):
    grid, target = config.grid, config.target
    clamped_any = False
    f1_frames, f2_frames, f3_frames = [], [], []
    for j in range(traj.num_frames):
        vals = traj.values[j]
        if config.tube_exit_policy == "clamp":
            vals, did = _clamp_to_tube(vals, target)
            clamped_any |= did
        else:
            _check_tube(vals, target)
        bundle = _DerivBundle(GridField(grid, vals), target)
        f1_frames.append(_f1_from_bundle(bundle))
        f2_frames.append(_f2_from_bundle(bundle))
        if config.mode == "intrinsic":
            f3_frames.append(_f3_from_bundle(bundle))
    f1 = SpaceTimeField(grid, traj.times, np.stack(f1_frames))
    f2 = SpaceTimeField(grid, traj.times, np.stack(f2_frames))
    new = hat_u0 + apply_S_trajectory(f1) + apply_S_div_trajectory(f2)
    if config.mode == "intrinsic":
        f3 = SpaceTimeField(grid, traj.times, np.stack(f3_frames))
        new = new + apply_S_trajectory(f3)
    return new, clamped_any


def _oracle_picard(config, u0):
    T = config.t_final
    hat_u0 = apply_G_trajectory(u0, config.times())
    diag = FlowDiagnostics()
    diag.iterate_norms.append(_oracle_x_norm(hat_u0, T).total)
    current = hat_u0
    for k in range(config.max_picard_iters):
        new, clamped = _oracle_apply_T(config, hat_u0, current)
        diag.tube_clamped |= clamped
        d_k = _oracle_x_norm(new - current, T).total
        diag.diff_norms.append(d_k)
        diag.iterate_norms.append(_oracle_x_norm(new, T).total)
        diag.iterations = k + 1
        if len(diag.diff_norms) >= 2 and diag.diff_norms[-2] > 0:
            diag.contraction_ratios.append(d_k / diag.diff_norms[-2])
        current = new
        if d_k <= config.picard_tol:
            diag.converged = True
            break
        if len(diag.contraction_ratios) >= 3 and all(
                r >= 1.0 for r in diag.contraction_ratios[-3:]):
            diag.failure = "contraction-failure"
            break
    if diag.converged:
        fixed, _ = _oracle_apply_T(config, hat_u0, current)
        diag.fixed_point_residual = _oracle_x_norm(fixed - current, T).total
    frag = _oracle_constraint(current, config.target)
    diag.sup_distance = frag["sup_distance"]
    diag.rho_mass = frag["rho_mass"]
    diag.orthogonality_residual = frag["orthogonality_residual"]
    diag.constraint_flag = frag["flagged"]
    return current, diag


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
                                                      mode, sphere3):
    u0 = _wavy_initial_data(dim, M, 0.1)
    cfg = _cfg(u0.grid, sphere3, t_final=t_final, num_frames=frames, mode=mode,
               max_picard_iters=iters)
    traj, diag = picard_solve(cfg, u0)
    oracle_traj, oracle_diag = _oracle_picard(cfg, u0)
    assert diag.converged == (iters == 20) and diag.iterations >= 2
    assert traj.values.tobytes() == oracle_traj.values.tobytes()
    assert diag.to_json() == oracle_diag.to_json()


def test_clamped_picard_solve_bitwise_equals_per_frame_oracle(grid64, sphere3):
    cfg = _cfg(grid64, sphere3, num_frames=24, max_picard_iters=20,
               tube_exit_policy="clamp")
    u0 = equator_initial_data(grid64, 1.8, 2)
    traj, diag = picard_solve(cfg, u0)
    oracle_traj, oracle_diag = _oracle_picard(cfg, u0)
    assert diag.tube_clamped and diag.failure == "contraction-failure"
    assert traj.values.tobytes() == oracle_traj.values.tobytes()
    assert diag.to_json() == oracle_diag.to_json()


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


def test_distance_lhs_monotone_in_amplitude(grid128, sphere3):
    t = 1e-4
    sups = []
    for eps in (0.1, 0.2, 0.4):
        sm = apply_G(equator_initial_data(grid128, eps), t)
        sups.append(np.abs(np.sqrt((sm.values ** 2).sum(-1)) - 1).max())
    assert sups[0] <= sups[1] <= sups[2]
