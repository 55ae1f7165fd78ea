"""Nonlinear flow assembly and the whole-trajectory Picard iteration.

The mild formulation splits the right-hand side into a zero-order part F1,
a part entering as a divergence F2, and (in intrinsic mode) a quartic part
F3.  All three are pointwise-geometric contractions of projection derivatives
against spectral derivatives of the iterate:

    F1[u]   = -( D2Pi(u)(Lap u, Lap u) + sum_a D3Pi(u)(d_a u, d_a u, Lap u) )
    F2[u]_a =  2 D2Pi(u)(d_a u, Lap u) + sum_b D3Pi(u)(d_a u, d_b u, d_b u)
               + 2 sum_b D2Pi(u)(d_a d_b u, d_b u)
    F3[u]   =  DPi(u)[ D3Pi(u)(grad u, grad u, B) ]
               + 2 sum_a D2Pi(u)(d_a u, D2Pi(u)(d_a u, B)),
    B       =  sum_a D2Pi(u)(d_a u, d_a u),

using the full symmetry of the projection's derivative tensors.  The Picard
map sends a whole trajectory to a whole trajectory,

    T u = (free evolution of u0) + S(F1[u]) + S(div F2[u]) [+ S(F3[u])],

so the contraction factor is directly observable as the ratio of successive
trajectory differences in the solution norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as _quad
from scipy.optimize import brentq as _brentq

from .errors import ManifoldTubeExitError
from .fields import Grid, GridField, SpaceTimeField, Spectrum, pointwise_norm
from .kernel import ALPHA, SampleSpec, certify_bound, default_profile
from .manifold import ProjectionJet, SphereTarget, distance_to_sphere, project
from .norms import bmo_seminorm, x_norm, x_norm_from_magnitudes
from .semigroup import (apply_G, apply_G_trajectory, apply_S_div_trajectory,
                        apply_S_trajectory)

__all__ = [
    "FlowConfig",
    "FlowDiagnostics",
    "nonlinearity_f1",
    "nonlinearity_f2",
    "nonlinearity_f3",
    "picard_solve",
    "constraint_diagnostics",
    "distance_experiment",
    "equator_initial_data",
    "constant_initial_data",
]


@dataclass(frozen=True)
class FlowConfig:
    """Everything one Picard run needs."""

    grid: Grid
    target: SphereTarget
    t_final: float
    num_frames: int = 32
    time_exponent: float = 4.0
    mode: str = "extrinsic"
    max_picard_iters: int = 20
    picard_tol: float = 1e-9
    tube_exit_policy: str = "error"

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.max_picard_iters < 2:
            raise ValueError("max_picard_iters must be >= 2")
        if self.mode not in ("extrinsic", "intrinsic"):
            raise ValueError("mode must be 'extrinsic' or 'intrinsic'")
        if self.tube_exit_policy not in ("error", "clamp"):
            raise ValueError("tube_exit_policy must be 'error' or 'clamp'")
        if self.num_frames < 4:
            raise ValueError("need at least 4 frames")

    def times(self) -> np.ndarray:
        """Frame times T (m / m_max)^p, refined near t = 0 for the t^(i/4) weights."""
        m = np.arange(self.num_frames + 1)
        return self.t_final * (m / self.num_frames) ** self.time_exponent


@dataclass
class FlowDiagnostics:
    """Per-iteration and per-frame health record of one run."""

    iterate_norms: list = field(default_factory=list)
    diff_norms: list = field(default_factory=list)        # d_k
    contraction_ratios: list = field(default_factory=list)  # theta_k = d_{k+1}/d_k
    converged: bool = False
    iterations: int = 0
    failure: str | None = None
    fixed_point_residual: float | None = None
    sup_distance: list = field(default_factory=list)
    rho_mass: list = field(default_factory=list)
    orthogonality_residual: float | None = None
    constraint_flag: bool = False
    tube_clamped: bool = False

    def to_json(self) -> dict:
        return {
            "iterate_norms": self.iterate_norms,
            "d_k": self.diff_norms,
            "theta_k": self.contraction_ratios,
            "converged": self.converged,
            "iterations": self.iterations,
            "failure": self.failure,
            "fixed_point_residual": self.fixed_point_residual,
            "sup_distance": self.sup_distance,
            "rho_mass": self.rho_mass,
            "orthogonality_residual": self.orthogonality_residual,
            "constraint_flag": self.constraint_flag,
            "tube_clamped": self.tube_clamped,
        }


# ----------------------------------------------------------------------
# nonlinearities
# ----------------------------------------------------------------------

def _check_tube(values: np.ndarray, target: SphereTarget, times=None):
    """Raise if a point leaves the tube.  With frame times, values is a stack,
    and the error names the first offending frame and its worst point."""
    frames = values if times is not None else values[None]
    dev = np.abs(np.sqrt((frames ** 2).sum(axis=-1)) - 1.0)
    bad = np.nonzero(dev.reshape(len(dev), -1).max(axis=1) > target.tube_radius)[0]
    if bad.size:
        j = bad[0]
        loc = tuple(int(i) for i in np.unravel_index(int(np.argmax(dev[j])), dev[j].shape))
        radius = float(np.sqrt((frames[j][loc] ** 2).sum()))
        where = "" if times is None else f" at frame t={times[j]:.4g}"
        raise ManifoldTubeExitError(
            f"iterate left the projection tube{where}: |u|={radius:.6f} "
            f"at lattice index {loc}", location=loc, radius=radius)


class _DerivBundle:
    """Spectral derivatives of a frame or a frame stack, from one transform,
    and the projection jet at its values, shared by the nonlinearities and,
    for a stack, by its solution norm."""

    def __init__(self, u: GridField | SpaceTimeField, target: SphereTarget):
        self.u = u
        spec = Spectrum(u)
        self.grad = spec.gradient()     # [frames +] grid + (n, l)
        self.hess = spec.hessian()      # [frames +] grid + (n, n, l)
        # a copy, so the complex inverse transform under .real is freed
        self.lap = spec.derivative("laplacian").copy()  # [frames +] grid + (l,)
        self.jet = ProjectionJet(target, u.values)
        # jet keys of the gradient components d_a u and of Lap u
        self.g = [self.jet.vec(self.grad[..., a, :]) for a in range(u.grid.dim)]
        self.L = self.jet.vec(self.lap)

    def x_norm(self, T: float) -> float:
        """Total solution norm of the stack, from the derivatives above."""
        mags = [pointwise_norm(d, self.u.grid, lead=1) for d in (self.grad, self.hess)]
        return x_norm_from_magnitudes(self.u, *mags, T).total


def _f1_from_bundle(b: _DerivBundle) -> np.ndarray:
    jet, g, L = b.jet, b.g, b.L
    acc = jet.d2(L, L)
    for ga in g:
        acc = acc + jet.d3(ga, ga, L)
    return -acc


def nonlinearity_f1(u: GridField, target: SphereTarget) -> GridField:
    """Zero-order nonlinearity -<Lap u, Lap(DPi(u))> via the chain rule.

    Satisfies the pointwise bound |F1[u]| <= C (|grad^2 u|^2 + |grad u|^4)
    with C from the projection's derivative bounds on the tube.
    """
    _check_tube(u.values, target)
    return GridField(u.grid, _f1_from_bundle(_DerivBundle(u, target)))


def _f2_from_bundle(b: _DerivBundle) -> np.ndarray:
    jet, g, L = b.jet, b.g, b.L
    n = b.u.grid.dim
    out = np.empty(b.u.values.shape[:-1] + (n, b.u.codomain_dim))
    for alpha in range(n):
        galpha = g[alpha]
        acc = 2.0 * jet.d2(galpha, L)
        for a in range(n):
            ga = g[a]
            acc = acc + jet.d3(galpha, ga, ga)
            h = jet.vec(b.hess[..., alpha, a, :])
            acc = acc + 2.0 * jet.d2(h, ga)
            jet.forget(h)
        out[..., alpha, :] = acc
    return out


def nonlinearity_f2(u: GridField, target: SphereTarget) -> GridField:
    """Flux nonlinearity 2<Lap u, grad(DPi(u))> + grad(D2Pi(u)(grad u, grad u)).

    Returns one ambient field per spatial axis (values grid + (n, l)); the
    divergence is taken later, inside the Duhamel integral.  Pointwise bound
    |F2[u]| <= C (|grad^2 u| |grad u| + |grad u|^3).
    """
    _check_tube(u.values, target)
    return GridField(u.grid, _f2_from_bundle(_DerivBundle(u, target)))


def _f3_from_bundle(b: _DerivBundle) -> np.ndarray:
    jet, g = b.jet, b.g
    u = b.u.values
    B = np.zeros_like(u)
    for ga in g:
        B = B + jet.d2(ga, ga)
    kB = jet.vec(B)
    term1 = np.zeros_like(u)
    for ga in g:
        term1 = term1 + jet.d3(ga, ga, kB)
    term1 = jet.d1(jet.vec(term1))
    term2 = np.zeros_like(u)
    for ga in g:
        term2 = term2 + jet.d2(ga, jet.vec(jet.d2(ga, kB)))
    return term1 + 2.0 * term2


def nonlinearity_f3(u: GridField, target: SphereTarget) -> GridField:
    """Quartic intrinsic correction; satisfies |F3[u]| <= C |grad u|^4.

    Every factor carries one gradient of u, so the sup norm scales exactly
    with the fourth power of a perturbation amplitude on sphere-valued data.
    """
    _check_tube(u.values, target)
    return GridField(u.grid, _f3_from_bundle(_DerivBundle(u, target)))


# ----------------------------------------------------------------------
# Picard iteration
# ----------------------------------------------------------------------

def _clamp_to_tube(values: np.ndarray, target: SphereTarget) -> tuple[np.ndarray, bool]:
    """Scale every point the tube check rejects radially onto the tube's edge,
    so that it passes the check; the other points keep their bits.

    A point whose radius is zero or below the smallest normal float has no
    direction to scale along and is left as it is.
    """
    r = target.tube_radius
    radii = np.sqrt((values ** 2).sum(axis=-1, keepdims=True))
    move = np.abs(radii - 1.0) > r
    if not move.any():
        return values, False
    move &= radii >= np.finfo(float).tiny
    goal = np.clip(radii, 1.0 - r, 1.0 + r)
    out = values
    while move.any():
        out = np.where(move, out * (goal / np.where(move, radii, 1.0)), out)
        radii = np.sqrt((out ** 2).sum(axis=-1, keepdims=True))
        # rounding can leave a scaled point an ulp or two outside: rescale
        # those from their new radius to a goal one ulp nearer the sphere
        move &= np.abs(radii - 1.0) > r
        goal = np.nextafter(goal, 1.0)
    return out, True


def _forcing(config: FlowConfig, traj: SpaceTimeField,
             bundle: _DerivBundle) -> tuple[list[SpaceTimeField], bool]:
    """F1, F2 (and in intrinsic mode F3) of a trajectory from its bundle, once
    its frames pass the tube check; clamped frames get a bundle of their own."""
    clamped = False
    if config.tube_exit_policy == "clamp":
        vals, clamped = _clamp_to_tube(traj.values, config.target)
        if clamped:
            bundle = _DerivBundle(SpaceTimeField(traj.grid, traj.times, vals), config.target)
    else:
        _check_tube(traj.values, config.target, traj.times)
    parts = [_f1_from_bundle, _f2_from_bundle]
    if config.mode == "intrinsic":
        parts.append(_f3_from_bundle)
    return [SpaceTimeField(traj.grid, traj.times, f(bundle)) for f in parts], clamped


def _apply_T(hat_u0: SpaceTimeField, forcing: list[SpaceTimeField]) -> SpaceTimeField:
    """The Duhamel map applied to the trajectory whose forcing is given."""
    f1, f2, *f3 = forcing
    new = hat_u0 + apply_S_trajectory(f1) + apply_S_div_trajectory(f2)
    return new + apply_S_trajectory(f3[0]) if f3 else new


def picard_solve(config: FlowConfig, u0: GridField) -> tuple[SpaceTimeField, FlowDiagnostics]:
    """Iterate the Duhamel map from the free evolution until the trajectory
    difference in the solution norm drops below ``picard_tol``.

    Each iterate is transformed once: its derivative bundle gives both its
    solution norm and the forcing of the next application.  Non-contraction
    (three consecutive difference ratios >= 1) stops the iteration with
    ``failure='contraction-failure'``; diagnostics are still returned.  A
    tube exit raises unless the policy is 'clamp'.
    """
    sphere_dev = float(np.abs(np.sqrt((u0.values ** 2).sum(axis=-1)) - 1.0).max())
    if sphere_dev > 1e-10:
        raise ValueError(f"initial data must map into the sphere (deviation {sphere_dev:.2e})")

    times = config.times()
    T = config.t_final
    hat_u0 = apply_G_trajectory(u0, times)
    diag = FlowDiagnostics()
    bundle = _DerivBundle(hat_u0, config.target)
    diag.iterate_norms.append(bundle.x_norm(T))

    current = hat_u0
    for k in range(config.max_picard_iters):
        forcing, clamped = _forcing(config, current, bundle)
        del bundle  # free the derivatives before the Duhamel sweeps
        new = _apply_T(hat_u0, forcing)
        del forcing
        diag.tube_clamped |= clamped
        d_k = x_norm(new - current, T).total
        diag.diff_norms.append(d_k)
        bundle = _DerivBundle(new, config.target)
        diag.iterate_norms.append(bundle.x_norm(T))
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
        forcing, _ = _forcing(config, current, bundle)
        del bundle
        diag.fixed_point_residual = x_norm(_apply_T(hat_u0, forcing) - current, T).total

    frag = constraint_diagnostics(current, config.target)
    diag.sup_distance = frag["sup_distance"]
    diag.rho_mass = frag["rho_mass"]
    diag.orthogonality_residual = frag["orthogonality_residual"]
    diag.constraint_flag = frag["flagged"]
    return current, diag


# ----------------------------------------------------------------------
# diagnostics and experiments
# ----------------------------------------------------------------------

def constraint_diagnostics(u: SpaceTimeField, target: SphereTarget) -> dict:
    """Per-frame distance to the sphere, defect mass, and tangency residual.

    The tangency residual probes <DPi(Pi(u)) v, Q(u)> for 8 random ambient v
    drawn with seed 1234; it vanishes identically because the defect is
    normal at the projected point, so any nonzero value is numerical.  The
    run is flagged when a frame's defect mass exceeds 1e-6 times the box
    volume.
    """
    grid, vals = u.grid, u.values
    rng = np.random.Generator(np.random.Philox(1234))
    probes = rng.normal(size=(8, u.codomain_dim))
    sup_d = distance_to_sphere(vals).reshape(u.num_frames, -1).max(axis=1)
    base = project(target, vals)
    qv = vals - base
    rho = 0.5 * np.sum(qv * qv, axis=-1)  # manifold.rho, from the one projection
    masses = rho.reshape(u.num_frames, -1).sum(axis=1) * grid.cell_volume
    jet = ProjectionJet(target, base)
    orth = 0.0
    for v in probes:
        tangent = jet.d1(jet.vec(np.broadcast_to(v, vals.shape)))
        orth = max(orth, float(np.abs((tangent * qv).sum(axis=-1)).max()))
    flagged = bool(masses.max() > 1e-6 * grid.volume)
    return {
        "sup_distance": sup_d.tolist(),
        "rho_mass": masses.tolist(),
        "orthogonality_residual": orth,
        "flagged": flagged,
    }


def _tail_radius(delta: float, c_n: float, dim: int) -> float:
    """Smallest K with c_n * int_K^inf e^(-ALPHA r^(4/3)) r^(n-1) dr <= delta."""
    def tail(K):
        val, _ = _quad(lambda r: math.exp(-ALPHA * r ** (4.0 / 3.0)) * r ** (dim - 1),
                       K, np.inf)
        return c_n * val - delta
    if tail(1.0) <= 0:
        return 1.0
    return float(_brentq(tail, 1.0, 80.0, xtol=1e-6))


def distance_experiment(u0: GridField, R: float, delta: float = 0.05) -> dict:
    """Check the smoothed field's distance to the unit sphere against the
    oscillation bound  dist(G u0 (., t), N) <= K^n [u0]_(BMO at K t^(1/4)) + delta
    for t <= R^4 / K^4, with K computed from the kernel-tail criterion of the
    default kernel profile's estimate 2.2 certificate.

    Both sides are evaluated and reported at 8 geometrically spaced times.
    """
    grid = u0.grid
    n = grid.dim
    cert = certify_bound(default_profile(n), "2.2",
                         sample_spec=SampleSpec(num_x=15, num_t=7))
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
    sup_u0 = float(np.sqrt((u0.values ** 2).sum(axis=-1)).max())
    c_n = 2.0 * sup_u0 * cert.fitted_constant * surface
    K = _tail_radius(delta, c_n, n)
    t_hi = R ** 4 / K ** 4
    t_lo = (2.0 * grid.spacing / K) ** 4 * 1.01  # keep the BMO radius resolvable
    if t_lo >= t_hi:
        raise ValueError("no sampled times: K t^(1/4) unresolvable below R^4/K^4")
    ts = np.geomspace(t_lo, t_hi, 8)
    rows = []
    for t in ts:
        smoothed = apply_G(u0, float(t))
        lhs = float(distance_to_sphere(smoothed.values).max())
        radius = min(K * t ** 0.25, grid.box_length / 2.0)
        rhs = K ** n * bmo_seminorm(u0, radius) + delta
        rows.append({"t": float(t), "lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs)})
    return {"K": float(K), "delta": delta, "R": R, "rows": rows,
            "all_hold": all(r["holds"] for r in rows)}


# ----------------------------------------------------------------------
# initial data families
# ----------------------------------------------------------------------

def equator_initial_data(grid: Grid, amplitude: float, frequency: int = 1,
                         ambient_dim: int = 3) -> GridField:
    """Sphere-valued phase perturbation of an equator point.

    u0(x) = (cos(eps s), sin(eps s), 0, ...) with s = sin(2 pi q x_1 / L):
    exactly unit length, oscillation controlled by the amplitude eps.
    """
    coords = grid.coordinates()
    phase = amplitude * np.sin(2.0 * np.pi * frequency * coords[0] / grid.box_length)
    vals = np.zeros(grid.shape + (ambient_dim,))
    vals[..., 0] = np.cos(phase)
    vals[..., 1] = np.sin(phase)
    return GridField(grid, vals)


def constant_initial_data(grid: Grid, point) -> GridField:
    point = np.asarray(point, dtype=float)
    point = point / np.sqrt((point ** 2).sum())
    return GridField.constant(grid, point)
