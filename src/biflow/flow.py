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
trajectory differences in the solution norm.  S acts mode by mode, so T sums
the forcings' coefficients before its one Duhamel sweep.

Only the sweep couples frames.  The nonlinearities, the derivative
magnitudes of the solution norm and the constraint diagnostics are pointwise
in (t, x), so the solver takes them one block of whole frames at a time
(``fields.frame_blocks``): a block's derivatives, projection jet and
forcings are freed before the next block's are made, and every frame keeps
the bits of the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import gamma as _gamma, gammaincc as _gammaincc, gammainccinv as _gammainccinv

from .errors import ManifoldTubeExitError, ScaleUnresolvableError
from .fields import (Grid, GridField, SpaceTimeField, Spectrum, components_first,
                     components_last, forward_transform, frame_blocks, inverse_transform)
from .kernel import (ALPHA, CERTIFICATE_ORDERS, UNIT_SPHERE_AREA, SampleSpec, certify_bound,
                     default_profile)
from .manifold import ProjectionJet, SphereTarget, distance_to_sphere, project
from .norms import bmo_seminorm, cylinder_radii, x_norm_scan
from .semigroup import apply_G_trajectory, duhamel_sweep, free_spectrum

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
    mode: str = "extrinsic"
    max_picard_iters: int = 20
    picard_tol: float = 1e-9
    tube_exit_policy: str = "error"

    def __post_init__(self):
        for name in ("num_frames", "max_picard_iters"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("t_final", "picard_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_picard_iters < 2:
            raise ValueError("max_picard_iters must be >= 2")
        if self.mode not in ("extrinsic", "intrinsic"):
            raise ValueError("mode must be 'extrinsic' or 'intrinsic'")
        if self.tube_exit_policy not in ("error", "clamp"):
            raise ValueError("tube_exit_policy must be 'error' or 'clamp'")
        if self.num_frames < 4:
            raise ValueError("need at least 4 frames")
        try:  # the radii the solution norm of a run scans
            cylinder_radii(self.times(), self.t_final ** 0.25, self.grid)
        except ScaleUnresolvableError as exc:
            raise ScaleUnresolvableError(f"t_final = {self.t_final}: {exc}") from None

    def times(self) -> np.ndarray:
        """Frame times T (m / num_frames)^4, refined near t = 0 for the t^(i/4) weights."""
        m = np.arange(self.num_frames + 1)
        return self.t_final * (m / self.num_frames) ** 4


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
        out = asdict(self)
        out["d_k"], out["theta_k"] = out.pop("diff_norms"), out.pop("contraction_ratios")
        return out


# ----------------------------------------------------------------------
# nonlinearities
# ----------------------------------------------------------------------

def _check_tube(values: np.ndarray, target: SphereTarget, times=None):
    """Raise if a point leaves the tube.  With frame times, values is a stack,
    and the error names the first offending frame and its worst point."""
    frames = values if times is not None else values[None]
    dev = distance_to_sphere(frames)
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
    """Spectral derivatives of a frame or a block of frames, read off its
    given spectrum, and the projection jet at its values (field layout),
    shared by the nonlinearities and, in a Picard pass, by the block's
    derivative magnitudes.  Everything it holds is component-major, as in
    ``fields``; the forcings it gives are too."""

    def __init__(self, values: np.ndarray, target: SphereTarget, spec: Spectrum):
        self.grad = spec.gradient()     # (n, l) + [frames +] grid
        self.hess = spec.hessian()      # (n, n, l) + [frames +] grid
        self.lap = spec.derivative("laplacian")  # (l,) + [frames +] grid
        self.jet = ProjectionJet(target, components_first(values, 1), self.grad)


def _f1_from_bundle(b: _DerivBundle) -> np.ndarray:
    acc = b.jet.d2((b.lap, b.lap))
    acc += b.jet.trace3(b.lap)
    return np.negative(acc, out=acc)


def nonlinearity_f1(u: GridField, target: SphereTarget) -> GridField:
    """Zero-order nonlinearity -<Lap u, Lap(DPi(u))> via the chain rule.

    Satisfies the pointwise bound |F1[u]| <= C (|grad^2 u|^2 + |grad u|^4)
    with C from the projection's derivative bounds on the tube.
    """
    _check_tube(u.values, target)
    bundle = _DerivBundle(u.values, target, Spectrum(u))
    return GridField(u.grid, components_last(_f1_from_bundle(bundle), 1))


def _f2_from_bundle(b: _DerivBundle) -> np.ndarray:
    jet, g = b.jet, b.jet.g
    out = np.empty(b.grad.shape)
    for alpha, galpha in enumerate(g):
        acc = jet.d2((galpha, b.lap), *[(b.hess[alpha, a], ga) for a, ga in enumerate(g)])
        acc *= 2.0
        acc += jet.trace3(galpha)
        out[alpha] = acc
    return out


def nonlinearity_f2(u: GridField, target: SphereTarget) -> GridField:
    """Flux nonlinearity 2<Lap u, grad(DPi(u))> + grad(D2Pi(u)(grad u, grad u)).

    Returns one ambient field per spatial axis (values grid + (n, l)); the
    divergence is taken later, inside the Duhamel integral.  Pointwise bound
    |F2[u]| <= C (|grad^2 u| |grad u| + |grad u|^3).
    """
    _check_tube(u.values, target)
    bundle = _DerivBundle(u.values, target, Spectrum(u))
    return GridField(u.grid, components_last(_f2_from_bundle(bundle), 2))


def _f3_from_bundle(b: _DerivBundle) -> np.ndarray:
    jet, g = b.jet, b.jet.g
    B = jet.d2(*[(ga, ga) for ga in g])
    acc = jet.d2(*[(ga, jet.d2((ga, B))) for ga in g])
    acc *= 2.0
    acc += jet.d1(jet.trace3(B))
    return acc


def nonlinearity_f3(u: GridField, target: SphereTarget) -> GridField:
    """Quartic intrinsic correction; satisfies |F3[u]| <= C |grad u|^4.

    Every factor carries one gradient of u, so the sup norm scales exactly
    with the fourth power of a perturbation amplitude on sphere-valued data.
    """
    _check_tube(u.values, target)
    bundle = _DerivBundle(u.values, target, Spectrum(u))
    return GridField(u.grid, components_last(_f3_from_bundle(bundle), 1))


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


def _forcing_coeffs(grid: Grid, mode: str, bundle: _DerivBundle) -> np.ndarray:
    """Coefficients of div F2 + F1 (and in intrinsic mode + F3) of the frames
    of a bundle; each part is transformed as soon as it is made."""
    acc = Spectrum.with_coeffs(grid, forward_transform(grid, _f2_from_bundle(bundle))).divergence()
    acc += forward_transform(grid, _f1_from_bundle(bundle))
    if mode == "intrinsic":
        acc += forward_transform(grid, _f3_from_bundle(bundle))
    return acc


def _iterate_pass(config: FlowConfig, traj: SpaceTimeField, coeffs: np.ndarray,
                  forcing: bool) -> tuple[float, np.ndarray | None, bool]:
    """One pass over the frame blocks of an iterate and the coefficients it
    was inverted from: its solution norm and, if forcing, the coefficients
    of its forcing (``_forcing_coeffs``), once its frames pass the tube
    check, with whether the clamp moved a point.

    Clamped frames have no coefficients, so once a point is clamped every
    frame's forcing reads the transform of the clamped stack; the norm
    always reads the iterate's own coefficients."""
    grid, target = traj.grid, config.target
    vals, clamped, forcing_coeffs = traj.values, False, coeffs
    if forcing and config.tube_exit_policy == "clamp":
        vals, clamped = _clamp_to_tube(vals, target)
        if clamped:
            forcing_coeffs = Spectrum(SpaceTimeField(grid, traj.times, vals)).coeffs
    acc = np.empty_like(coeffs) if forcing else None

    def derivatives(block):
        spec = Spectrum.with_coeffs(grid, coeffs[:, block])
        if not forcing:
            return spec.gradient(), spec.hessian()
        if config.tube_exit_policy == "error":
            _check_tube(vals[block], target, traj.times[block])
        bundle = _DerivBundle(vals[block], target,
                              Spectrum.with_coeffs(grid, forcing_coeffs[:, block]))
        acc[:, block] = _forcing_coeffs(grid, config.mode, bundle)
        return (spec.gradient(), spec.hessian()) if clamped else (bundle.grad, bundle.hess)

    norm, = x_norm_scan(grid, traj.times, 1, lambda block: traj.values[block][..., None],
                        derivatives, config.t_final)
    return norm.total, acc, clamped


def _apply_T(u0_spec: Spectrum, times: np.ndarray,
             forcing: np.ndarray) -> tuple[SpaceTimeField, np.ndarray]:
    """The Duhamel map applied to the trajectory whose forcing coefficients
    are given: one sweep in mode space, plus the free evolution, then one
    inverse transform.  Returns the new iterate and its coefficients."""
    grid = u0_spec.grid
    coeffs = duhamel_sweep(grid, times, forcing)
    coeffs += free_spectrum(u0_spec, times).coeffs
    return SpaceTimeField(grid, times, components_last(inverse_transform(grid, coeffs), 1)), coeffs


def picard_solve(config: FlowConfig, u0: GridField) -> tuple[SpaceTimeField, FlowDiagnostics]:
    """Iterate the Duhamel map from the free evolution until the trajectory
    difference in the solution norm drops below ``picard_tol``.

    No iterate is transformed forward: its solution norm, its forcing and
    d_k read the coefficients it came from.  Each application works one
    block of whole frames at a time (``fields.frame_blocks``): a block's
    derivatives, projection jet and forcings are freed before the next
    block's are made, and only the stacks of derivative magnitudes and of
    summed forcing coefficients span the trajectory.  The tube check (or
    clamp) and the forcing run only for an iterate the loop goes on from
    or whose fixed-point residual is wanted.

    Non-contraction (three consecutive difference ratios >= 1) stops the
    iteration with ``failure='contraction-failure'``; diagnostics are still
    returned.  A tube exit raises unless the policy is 'clamp'; u0 off the
    config's grid, target dimension or sphere raises ValueError.
    """
    if u0.grid != config.grid or u0.codomain_dim != config.target.ambient_dim:
        raise ValueError(f"initial data on {u0.grid} in R^{u0.codomain_dim} do not match the "
                         f"config's {config.grid} in R^{config.target.ambient_dim}")
    sphere_dev = float(distance_to_sphere(u0.values).max())
    if sphere_dev > 1e-10:
        raise ValueError(f"initial data must map into the sphere (deviation {sphere_dev:.2e})")

    times, T, grid = config.times(), config.t_final, u0.grid
    u0_spec = Spectrum(u0)
    diag = FlowDiagnostics()
    current = apply_G_trajectory(u0, times)
    coeffs = free_spectrum(u0_spec, times).coeffs
    norm, forcing, clamped = _iterate_pass(config, current, coeffs, True)
    diag.iterate_norms.append(norm)

    def diff_norm(new, new_coeffs):  # of new minus the iterate held, read off coefficients
        def derivatives(block):
            spec = Spectrum.with_coeffs(grid, new_coeffs[:, block] - coeffs[:, block])
            yield spec.gradient()
            yield spec.hessian()
        return x_norm_scan(grid, times, 1,
                           lambda block: (new.values[block] - current.values[block])[..., None],
                           derivatives, T)[0].total

    for k in range(config.max_picard_iters):
        diag.tube_clamped |= clamped  # of the forcing this application takes
        new, new_coeffs = _apply_T(u0_spec, times, forcing)
        del forcing
        d_k = diff_norm(new, new_coeffs)
        diag.diff_norms.append(d_k)
        diag.iterations = k + 1
        if len(diag.diff_norms) >= 2 and diag.diff_norms[-2] > 0:
            diag.contraction_ratios.append(d_k / diag.diff_norms[-2])
        converged = d_k <= config.picard_tol
        failed = not converged and len(diag.contraction_ratios) >= 3 and all(
            r >= 1.0 for r in diag.contraction_ratios[-3:])
        current, coeffs = new, new_coeffs  # the previous iterate is freed here
        # the new iterate's forcing feeds the next application or the residual
        goes_on = converged or (not failed and k + 1 < config.max_picard_iters)
        norm, forcing, clamped = _iterate_pass(config, current, coeffs, goes_on)
        diag.iterate_norms.append(norm)
        if converged:
            diag.converged = True
            break
        if failed:
            diag.failure = "contraction-failure"
            break

    if diag.converged:
        diag.fixed_point_residual = diff_norm(*_apply_T(u0_spec, times, forcing))

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
    volume.  Every figure is a per-frame reduction or a maximum, so the
    frames are taken one block at a time (``fields.frame_blocks``).
    """
    grid = u.grid
    rng = np.random.Generator(np.random.Philox(1234))
    probes = rng.normal(size=(8, u.codomain_dim))
    sup_d, masses, orth = [], [], 0.0
    for block in frame_blocks(grid, u.num_frames):
        vals = u.values[block]
        frames = len(vals)
        sup_d += distance_to_sphere(vals).reshape(frames, -1).max(axis=1).tolist()
        base = project(target, vals)
        qv = vals - base
        rho = 0.5 * np.sum(qv * qv, axis=-1)  # manifold.rho, from the one projection
        masses += (rho.reshape(frames, -1).sum(axis=1) * grid.cell_volume).tolist()
        # no gradient fields: the tangency probe needs d1 alone
        y, qv = components_first(base, 1), components_first(qv, 1)
        jet = ProjectionJet(target, y, np.empty((0,) + y.shape))
        for v in probes:
            tangent = jet.d1(v.reshape((-1,) + (1,) * (y.ndim - 1)))
            residual = np.multiply(tangent, qv, order="C").sum(axis=0)
            orth = max(orth, float(np.abs(residual).max()))
    return {
        "sup_distance": sup_d,
        "rho_mass": masses,
        "orthogonality_residual": orth,
        "flagged": bool(max(masses) > 1e-6 * grid.volume),
    }


def _tail_radius(delta: float, c_n: float, dim: int) -> float:
    """Smallest K >= 1 with c_n * int_K^inf e^(-ALPHA r^(4/3)) r^(n-1) dr <= delta.

    With s = ALPHA r^(4/3) the tail is 3/4 ALPHA^(-a) Gamma(a) Q(a, ALPHA K^(4/3)),
    a = 3n/4 and Q the regularised upper incomplete gamma function, so K is
    the exact root (Q^-1(a, delta / (c_n 3/4 ALPHA^(-a) Gamma(a))) / ALPHA)^(3/4).
    It is infinite when delta is too small for the inverse to resolve."""
    a = 0.75 * dim
    q = delta / (c_n * 0.75 * ALPHA ** -a * _gamma(a))
    if _gammaincc(a, ALPHA) <= q:  # the tail from K = 1 is already within delta
        return 1.0
    return max(1.0, float((_gammainccinv(a, q) / ALPHA) ** 0.75))


def distance_experiment(u0: GridField, R: float, delta: float = 0.05) -> dict:
    """Check the smoothed field's distance to the unit sphere against the
    oscillation bound  dist(G u0 (., t), N) <= K^n [u0]_(BMO at K t^(1/4)) + delta
    for t <= R^4 / K^4, with K computed from the kernel-tail criterion of the
    default kernel profile's estimate 2.2 certificate.

    Both sides are evaluated and reported at 8 geometrically spaced times.
    """
    grid = u0.grid
    n = grid.dim
    # estimate 2.2, the first in the catalogue
    cert = certify_bound(default_profile(n), next(iter(CERTIFICATE_ORDERS)),
                         sample_spec=SampleSpec(num_x=15, num_t=7))
    c_n = 2.0 * u0.sup_norm() * cert.fitted_constant * UNIT_SPHERE_AREA[n]
    K = _tail_radius(delta, c_n, n)
    if not math.isfinite(K):
        raise ValueError(f"delta={delta!r} is too small: the kernel-tail radius K is not finite")
    t_hi = R ** 4 / K ** 4
    t_lo = (2.0 * grid.spacing / K) ** 4 * 1.01  # keep the BMO radius resolvable
    if t_lo >= t_hi:
        raise ValueError("no sampled times: K t^(1/4) unresolvable below R^4/K^4")
    ts = np.geomspace(t_lo, t_hi, 8)
    smoothed = apply_G_trajectory(u0, (0.0, *ts)).values[1:]
    rows = []
    for t, frame in zip(ts, smoothed):
        lhs = float(distance_to_sphere(frame).max())
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
