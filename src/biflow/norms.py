"""Function-space functionals on discrete fields.

Implements the local mean-oscillation seminorm, the Carleson square
functional of smoothed gradients, the smoothing-estimate ratios of the free
evolution, and the three space-time norms the solver iterates in: the
solution norm (weighted sup of gradients plus two parabolic-cylinder Morrey
integrals) and the two forcing norms.

All suprema over centers and scales are discretised: every lattice point is a
candidate center, scales run over dyadic radii.  The scan is therefore a
lower-bound estimator of the continuum supremum; a brute-force all-radii scan
is provided to quantify the gap on small grids, and refinement tests certify
stability.  Cylinder time integrals use the trapezoid rule over the stored
frames, splitting the last interval when a cylinder height falls between
frames.  The oscillation seminorm uses the literal r^(-n) normalisation (not
the ball-volume average); the inner mean is the plain ball average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScaleUnresolvableError
from .fields import (Grid, GridField, SpaceTimeField, Spectrum, ball_convolve,
                     ball_offsets, pointwise_norm)
from .semigroup import apply_G

__all__ = [
    "NormReport",
    "bmo_seminorm",
    "bmo_seminorm_brute",
    "carleson_functional",
    "smoothing_ratios",
    "x_norm",
    "x_norm_from_magnitudes",
    "y1_norm",
    "y2_norm",
]


@dataclass(frozen=True)
class NormReport:
    """Computed norm with its scale table and argmax metadata."""

    sup_part: float
    seminorm_part: float
    scales: tuple = field(default=())
    argmax: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in (self.sup_part, self.seminorm_part):
            if not np.isfinite(v) or v < 0:
                raise ValueError("norm ingredients must be finite and nonnegative")

    @property
    def total(self) -> float:
        return self.sup_part + self.seminorm_part

    def to_json(self) -> dict:
        return {
            "sup_part": self.sup_part,
            "seminorm_part": self.seminorm_part,
            "total": self.total,
            "scales": [list(s) for s in self.scales],
            "argmax": self.argmax,
        }


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _dyadic_radii(top: float, grid: Grid) -> list[float]:
    """Radii top, top/2, ... down to the smallest the lattice resolves."""
    radii = []
    r = min(top, grid.box_length / 2.0)
    while r >= 2.0 * grid.spacing:
        radii.append(r)
        r /= 2.0
    if not radii:
        raise ScaleUnresolvableError(
            f"no dyadic radius fits between 2h={2*grid.spacing:.3g} and {top:.3g}")
    return radii


def _geometric_nodes(top: float, octaves: int, points_per_octave: int) -> np.ndarray:
    """Descending times top * 2^(-j/q), j = 0 .. octaves*q, q points per octave."""
    q = points_per_octave
    return top * 2.0 ** (-np.arange(octaves * q + 1, dtype=float) / q)


def _free_magnitudes(u0: GridField, t: float, orders=(1, 2)) -> list[np.ndarray]:
    """Pointwise |grad^i G(t) u0| for each order i, from one transform."""
    spec = Spectrum(apply_G(u0, t))
    return [pointwise_norm(spec.gradient() if i == 1 else spec.hessian(), u0.grid)
            for i in orders]


def _cylinder_average_max(grid: Grid, mass: np.ndarray, r: float) -> float:
    """max over centers of the ball integral of mass, times r^(-n)."""
    return float(ball_convolve(grid, mass, r).max()) * grid.cell_volume / r ** grid.dim


def _trapezoid_weights(times: np.ndarray, t_end: float) -> np.ndarray:
    """Trapezoid weights for int_0^t_end over the frame grid.

    The last partial interval is handled by linear interpolation of the
    integrand at t_end.
    """
    w = np.zeros_like(times)
    for j in range(times.size - 1):
        t0, t1 = times[j], times[j + 1]
        if t1 <= t_end:
            h = t1 - t0
            w[j] += h / 2.0
            w[j + 1] += h / 2.0
        elif t0 < t_end:
            d = t_end - t0
            theta = d / (t1 - t0)
            w[j] += d * (2.0 - theta) / 2.0
            w[j + 1] += d * theta / 2.0
            break
        else:
            break
    return w


def _resolved_cylinder_radii(u_times: np.ndarray, top: float, grid: Grid) -> list[float]:
    """Dyadic radii whose cylinder height contains at least two positive frames."""
    radii = []
    for r in _dyadic_radii(top, grid):
        if np.sum((u_times > 0) & (u_times <= r ** 4 * (1 + 1e-12))) >= 2:
            radii.append(r)
    if not radii:
        raise ScaleUnresolvableError("time grid too coarse for the smallest dyadic scale")
    return radii


# ----------------------------------------------------------------------
# mean oscillation
# ----------------------------------------------------------------------

def _oscillation_value(f: GridField, r: float) -> float:
    """max over centers of r^(-n) * h^n * sum_ball |f - ball average|."""
    grid = f.grid
    offs = ball_offsets(grid, r)
    count = offs.shape[0]
    means = np.stack([ball_convolve(grid, f.values[..., c], r)
                      for c in range(f.codomain_dim)], axis=-1) / count
    acc = np.zeros(grid.shape)
    axes = tuple(range(grid.dim))
    for off in offs:
        shifted = np.roll(f.values, shift=tuple(-off), axis=axes)
        acc += np.sqrt(((shifted - means) ** 2).sum(axis=-1))
    return float(acc.max()) * grid.cell_volume / r ** grid.dim


def bmo_seminorm(f: GridField, R: float) -> float:
    """Local mean-oscillation seminorm, sup over centers and dyadic r <= R.

    Lower-bound estimator: all lattice centers, radii {R, R/2, ..., >= 2h}.
    """
    grid = f.grid
    if R > grid.box_length / 2.0:
        raise ValueError("R must be at most half the box length")
    if R <= 2.0 * grid.spacing:
        raise ScaleUnresolvableError(f"R={R:.3g} is not above 2h={2*grid.spacing:.3g}")
    return max(_oscillation_value(f, r) for r in _dyadic_radii(R, grid))


def bmo_seminorm_brute(f: GridField, R: float) -> float:
    """Exhaustive oracle: every lattice center, every integer-step radius <= R."""
    grid = f.grid
    if R > grid.box_length / 2.0:
        raise ValueError("R must be at most half the box length")
    radii = [j * grid.spacing for j in range(1, int(R / grid.spacing) + 1)]
    if not radii:
        raise ScaleUnresolvableError("R below one lattice spacing")
    return max(_oscillation_value(f, r) for r in radii)


# ----------------------------------------------------------------------
# Carleson square functional
# ----------------------------------------------------------------------

def carleson_functional(f: GridField, derivative_order: int, R: float) -> float:
    """sup over centers and dyadic r <= R of the square-function mass

        r^(-n) int_0^r int_{B_r(x)} |Phi_t * f|^2 dx dt / t,

    with Phi the i-th gradient of the kernel profile.  The convolution is
    computed spectrally through the identity Phi_t * f = t^i grad^i (G f)(., t^4),
    so the evaluation never needs kernel quadrature.  The t-integral runs over a
    geometric grid with 8 points per octave spanning 10 octaves below each
    radius (the omitted mass near t=0 is O(t_min^2) for band-limited data).
    """
    if derivative_order not in (1, 2):
        raise ValueError("the square functional is defined for gradient orders 1 and 2")
    grid = f.grid
    if R > grid.box_length / 2.0:
        raise ValueError("R must be at most half the box length")
    radii = _dyadic_radii(R, grid)

    # global geometric t-nodes: R * 2^(-j/q), q per octave; nodes for
    # r = R/2^m are the tail of the same sequence starting at index m*q
    q = 8
    t_nodes = _geometric_nodes(R, 10 + int(round(np.log2(R / radii[-1]))), q)
    dlog = np.log(2.0) / q

    i = derivative_order
    sq = np.empty((t_nodes.size,) + grid.shape)
    for j, t in enumerate(t_nodes):
        mag, = _free_magnitudes(f, t ** 4, (i,))
        sq[j] = (t ** i * mag) ** 2

    best = 0.0
    for m, r in enumerate(radii):
        sel = sq[m * q:]
        w = np.full(sel.shape[0], dlog)
        w[0] = w[-1] = dlog / 2.0
        best = max(best, _cylinder_average_max(grid, np.tensordot(w, sel, axes=(0, 0)), r))
    return best


def smoothing_ratios(u0: GridField, R: float) -> dict:
    """Measured constants of the three smoothing estimates at one scale R.

    The free evolution of u0 is sampled on a geometric time grid with 6 points
    per octave spanning 36 octaves below R^4, plus 4 per halving from R down
    to the smallest dyadic radius.  It resolves every mode's decay window
    with the same relative density at every scale (a fixed frame grid would
    weight the scales unevenly and drift the ratios).  The cylinder integral,
    the weighted gradient sup, and the quartic cylinder integral are each
    divided by the matching power of the oscillation seminorm of u0.
    """
    grid = u0.grid
    bmo = bmo_seminorm(u0, R)
    radii = _dyadic_radii(R, grid)
    t_nodes = _geometric_nodes(R ** 4, 36 + int(round(np.log2(R / radii[-1]))) * 4, 6)

    g2 = np.empty((t_nodes.size,) + grid.shape)
    g4 = np.empty_like(g2)
    h2 = np.empty_like(g2)
    wsup = 0.0
    for j, t in enumerate(t_nodes):
        gm, hm = _free_magnitudes(u0, float(t))
        g2[j], g4[j], h2[j] = gm ** 2, gm ** 4, hm ** 2
        wsup = max(wsup, t ** 0.25 * float(gm.max()) + t ** 0.5 * float(hm.max()))

    def integrate(mass_frames, t_top):
        # trapezoid in t over the geometric nodes below t_top (descending)
        sel = t_nodes <= t_top * (1 + 1e-12)
        ts = t_nodes[sel][::-1]
        vals = mass_frames[sel][::-1]
        w = np.zeros_like(ts)
        dt = np.diff(ts)
        w[:-1] += dt / 2.0
        w[1:] += dt / 2.0
        w[0] += ts[0]  # remaining sliver [0, t_min] at the frozen value
        return np.tensordot(w, vals, axes=(0, 0))

    cyl = 0.0
    quart = 0.0
    for r in radii:
        mass2 = integrate(h2, r ** 4) + integrate(g2, r ** 4) / r ** 2
        cyl = max(cyl, _cylinder_average_max(grid, mass2, r))
        quart = max(quart, _cylinder_average_max(grid, integrate(g4, r ** 4), r))
    sup_u0 = float(np.sqrt((u0.values ** 2).sum(axis=-1)).max())
    return {
        "R": R,
        "bmo": bmo,
        "cylinder_ratio": cyl / bmo ** 2,
        "weighted_sup_ratio": wsup / bmo,
        "quartic_ratio": quart / (sup_u0 ** 2 * bmo ** 2),
    }


# ----------------------------------------------------------------------
# space-time norms
# ----------------------------------------------------------------------

def _positive_frames(u: SpaceTimeField, T: float):
    sel = (u.times > 0) & (u.times <= T * (1 + 1e-12))
    return np.nonzero(sel)[0]


def x_norm(u: SpaceTimeField, T: float | None = None) -> NormReport:
    """Solution-space norm: sup |u| plus the gradient seminorm.

    seminorm = sup_t (t^(1/4) ||grad u||_inf + t^(1/2) ||grad^2 u||_inf)
             + sup_scales (R^(-n) int_{P_R} |grad u|^4)^(1/4)
             + sup_scales (R^(-n) int_{P_R} |grad^2 u|^2)^(1/2)

    over parabolic cylinders P_R(x, R^4) = B_R(x) x [0, R^4] with dyadic R at
    or below T^(1/4) and every lattice center.  The stack is transformed once.
    """
    spec = Spectrum(u)
    return x_norm_from_magnitudes(u, pointwise_norm(spec.gradient(), u.grid, lead=1),
                                  pointwise_norm(spec.hessian(), u.grid, lead=1), T)


def x_norm_from_magnitudes(u: SpaceTimeField, grad_mag: np.ndarray,
                           hess_mag: np.ndarray, T: float | None = None) -> NormReport:
    """``x_norm`` of u from its pointwise |grad u| and |grad^2 u|, each of
    shape (num_frames,) + grid.shape, for a caller that holds them already."""
    grid = u.grid
    if T is None:
        T = float(u.times[-1])
    if u.times[-1] < T * (1 - 1e-12):
        raise ValueError("frames do not reach the requested final time")
    pos = _positive_frames(u, T)
    if pos.size == 0:
        raise ScaleUnresolvableError("no positive frame times at or below T")

    sup_part = float(np.sqrt((u.values[pos] ** 2).sum(axis=-1)).max())
    gmax = grad_mag[pos].reshape(pos.size, -1).max(axis=1)
    hmax = hess_mag[pos].reshape(pos.size, -1).max(axis=1)
    # scalar powers of t: numpy's array power may round them differently
    wvals = [t ** 0.25 * g + t ** 0.5 * h for t, g, h in zip(u.times[pos], gmax, hmax)]
    j = int(np.argmax(wvals))
    weighted, weighted_arg = (wvals[j], u.times[pos[j]]) if wvals[j] > 0 else (0.0, 0.0)
    grad_pow4 = grad_mag ** 4
    hess_pow2 = hess_mag ** 2

    radii = _resolved_cylinder_radii(u.times, T ** 0.25, grid)
    scales = []
    m4_best, m2_best = 0.0, 0.0
    arg4 = arg2 = None
    for r in radii:
        w = _trapezoid_weights(u.times, min(r ** 4, T))
        m4 = _cylinder_average_max(grid, np.tensordot(w, grad_pow4, axes=(0, 0)), r) ** 0.25
        m2 = _cylinder_average_max(grid, np.tensordot(w, hess_pow2, axes=(0, 0)), r) ** 0.5
        scales.append((r, m4, m2))
        if m4 > m4_best:
            m4_best, arg4 = m4, r
        if m2 > m2_best:
            m2_best, arg2 = m2, r

    seminorm = weighted + m4_best + m2_best
    return NormReport(sup_part, seminorm, tuple(scales),
                      {"weighted_sup_time": weighted_arg,
                       "morrey4_radius": arg4, "morrey2_radius": arg2})


def _y_norm(f: SpaceTimeField, T: float, time_weight: float,
            power: float, outer: float) -> NormReport:
    grid = f.grid
    if f.times[-1] < T * (1 - 1e-12):
        raise ValueError("frames do not reach the requested final time")
    flat = f.values.reshape(f.values.shape[: 1 + grid.dim] + (-1,))
    mags = np.sqrt((flat ** 2).sum(axis=-1))

    pos = _positive_frames(f, T)
    fmax = mags[pos].max(axis=tuple(range(1, mags.ndim)))
    svals = [t ** time_weight * m for t, m in zip(f.times[pos], fmax)]  # scalar powers
    j = int(np.argmax(svals)) if svals else 0
    sup_part, sup_arg = (svals[j], f.times[pos[j]]) if svals and svals[j] > 0 else (0.0, 0.0)

    radii = _resolved_cylinder_radii(f.times, T ** 0.25, grid)
    powed = mags ** power
    best, arg_r = 0.0, None
    scales = []
    for r in radii:
        w = _trapezoid_weights(f.times, min(r ** 4, T))
        val = _cylinder_average_max(grid, np.tensordot(w, powed, axes=(0, 0)), r) ** outer
        scales.append((r, val))
        if val > best:
            best, arg_r = val, r
    return NormReport(sup_part, best, tuple(scales),
                      {"sup_time": sup_arg, "cylinder_radius": arg_r})


def y1_norm(f: SpaceTimeField, T: float | None = None) -> NormReport:
    """Forcing norm sup_t t ||f||_inf + sup cylinders r^(-n) int |f|."""
    if T is None:
        T = float(f.times[-1])
    return _y_norm(f, T, time_weight=1.0, power=1.0, outer=1.0)


def y2_norm(f: SpaceTimeField, T: float | None = None) -> NormReport:
    """Flux norm sup_t t^(3/4) ||f||_inf + sup (r^(-n) int |f|^(4/3))^(3/4)."""
    if T is None:
        T = float(f.times[-1])
    return _y_norm(f, T, time_weight=0.75, power=4.0 / 3.0, outer=0.75)
