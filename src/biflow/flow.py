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
from .fields import Grid, GridField, SpaceTimeField, Spectrum
from .kernel import ALPHA, KernelProfile, SampleSpec, certify_bound, default_profile
from .manifold import ProjectionJet, SphereTarget, distance_to_sphere, project, rho
from .norms import bmo_seminorm, x_norm
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
    constraint_tol: float = 1e-6

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

def _check_tube(values: np.ndarray, target: SphereTarget, where: str = ""):
    dev = np.abs(np.sqrt((values ** 2).sum(axis=-1)) - 1.0)
    worst = float(dev.max())
    if worst > target.tube_radius:
        loc = tuple(int(i) for i in np.unravel_index(int(np.argmax(dev)), dev.shape))
        radius = float(np.sqrt((values[loc] ** 2).sum()))
        raise ManifoldTubeExitError(
            f"iterate left the projection tube{where}: |u|={radius:.6f} "
            f"at lattice index {loc}", location=loc, radius=radius)


class _DerivBundle:
    """Spectral derivatives of one frame, from one transform, and the
    projection jet at it, shared by the nonlinearities."""

    def __init__(self, u: GridField, target: SphereTarget):
        self.u = u
        spec = Spectrum(u)
        self.grad = spec.gradient()     # grid + (n, l)
        self.hess = spec.hessian()      # grid + (n, n, l)
        self.lap = spec.derivative("laplacian")  # grid + (l,)
        self.jet = ProjectionJet(target, u.values)
        # jet keys of the gradient components d_a u and of Lap u
        self.g = [self.jet.vec(self.grad[..., a, :]) for a in range(u.grid.dim)]
        self.L = self.jet.vec(self.lap)


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
    out = np.empty(b.u.grid.shape + (n, b.u.codomain_dim))
    for alpha in range(n):
        galpha = g[alpha]
        acc = 2.0 * jet.d2(galpha, L)
        for a in range(n):
            ga = g[a]
            acc = acc + jet.d3(galpha, ga, ga)
            acc = acc + 2.0 * jet.d2(jet.vec(b.hess[..., alpha, a, :]), ga)
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
    radii = np.sqrt((values ** 2).sum(axis=-1, keepdims=True))
    lo, hi = 1.0 - target.tube_radius, 1.0 + target.tube_radius
    clipped = np.clip(radii, lo, hi)
    if np.allclose(clipped, radii):
        return values, False
    return values * (clipped / np.maximum(radii, 1e-300)), True


def _apply_T(config: FlowConfig, hat_u0: SpaceTimeField,
             traj: SpaceTimeField) -> tuple[SpaceTimeField, bool]:
    """One application of the Duhamel map to a whole trajectory."""
    grid, target = config.grid, config.target
    clamped_any = False
    f1_frames, f2_frames, f3_frames = [], [], []
    for j in range(traj.num_frames):
        vals = traj.values[j]
        if config.tube_exit_policy == "clamp":
            vals, did = _clamp_to_tube(vals, target)
            clamped_any |= did
        else:
            _check_tube(vals, target, where=f" at frame t={traj.times[j]:.4g}")
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


def picard_solve(config: FlowConfig, u0: GridField) -> tuple[SpaceTimeField, FlowDiagnostics]:
    """Iterate the Duhamel map from the free evolution until the trajectory
    difference in the solution norm drops below ``picard_tol``.

    Non-contraction (three consecutive difference ratios >= 1) stops the
    iteration with ``failure='contraction-failure'``; diagnostics are still
    returned.  A tube exit raises unless the policy is 'clamp'.
    """
    sphere_dev = float(np.abs(np.sqrt((u0.values ** 2).sum(axis=-1)) - 1.0).max())
    if sphere_dev > 1e-10:
        raise ValueError(f"initial data must map into the sphere (deviation {sphere_dev:.2e})")

    times = config.times()
    T = config.t_final
    hat_u0 = apply_G_trajectory(u0, times)
    diag = FlowDiagnostics()
    diag.iterate_norms.append(x_norm(hat_u0, T).total)

    current = hat_u0
    converged = False
    for k in range(config.max_picard_iters):
        new, clamped = _apply_T(config, hat_u0, current)
        diag.tube_clamped |= clamped
        d_k = x_norm(new - current, T).total
        diag.diff_norms.append(d_k)
        diag.iterate_norms.append(x_norm(new, T).total)
        diag.iterations = k + 1
        if len(diag.diff_norms) >= 2 and diag.diff_norms[-2] > 0:
            diag.contraction_ratios.append(d_k / diag.diff_norms[-2])
        current = new
        if d_k <= config.picard_tol:
            converged = True
            break
        if len(diag.contraction_ratios) >= 3 and all(
                r >= 1.0 for r in diag.contraction_ratios[-3:]):
            diag.failure = "contraction-failure"
            break

    diag.converged = converged
    if converged:
        fixed, _ = _apply_T(config, hat_u0, current)
        diag.fixed_point_residual = x_norm(fixed - current, T).total

    frag = constraint_diagnostics(current, config.target,
                                  tolerance=config.constraint_tol, seed=1234)
    diag.sup_distance = frag["sup_distance"]
    diag.rho_mass = frag["rho_mass"]
    diag.orthogonality_residual = frag["orthogonality_residual"]
    diag.constraint_flag = frag["flagged"]
    return current, diag


# ----------------------------------------------------------------------
# diagnostics and experiments
# ----------------------------------------------------------------------

def constraint_diagnostics(u: SpaceTimeField, target: SphereTarget,
                           tolerance: float = 1e-6, seed: int = 1234,
                           num_probes: int = 8) -> dict:
    """Per-frame distance to the sphere, defect mass, and tangency residual.

    The tangency residual probes <DPi(Pi(u)) v, Q(u)> for random ambient v;
    it vanishes identically because the defect is normal at the projected
    point, so any nonzero value is numerical.
    """
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
        jet = ProjectionJet(target, base)
        for v in probes:
            tangent = jet.d1(jet.vec(np.broadcast_to(v, vals.shape)))
            orth = max(orth, float(np.abs((tangent * qv).sum(axis=-1)).max()))
    flagged = bool(max(masses) > tolerance * grid.volume)
    return {
        "sup_distance": sup_d,
        "rho_mass": masses,
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


def distance_experiment(u0: GridField, target: SphereTarget, R: float,
                        delta: float = 0.05, K: float | None = None,
                        profile: KernelProfile | None = None,
                        num_times: int = 8) -> dict:
    """Check the smoothed field's distance to the sphere against the
    oscillation bound  dist(G u0 (., t), N) <= K^n [u0]_(BMO at K t^(1/4)) + delta
    for t <= R^4 / K^4, with K computed from the kernel-tail criterion.

    Both sides are evaluated and reported per sampled time.
    """
    grid = u0.grid
    n = grid.dim
    profile = profile or default_profile(n)
    if K is None:
        cert = certify_bound(profile, "2.2",
                             sample_spec=SampleSpec(num_x=15, num_t=7))
        surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
        sup_u0 = float(np.sqrt((u0.values ** 2).sum(axis=-1)).max())
        c_n = 2.0 * sup_u0 * cert.fitted_constant * surface
        K = _tail_radius(delta, c_n, n)
    t_hi = R ** 4 / K ** 4
    t_lo = (2.0 * grid.spacing / K) ** 4 * 1.01  # keep the BMO radius resolvable
    if t_lo >= t_hi:
        raise ValueError("no sampled times: K t^(1/4) unresolvable below R^4/K^4")
    ts = np.geomspace(t_lo, t_hi, num_times)
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
