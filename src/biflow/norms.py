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
stability.  The space-time and smoothing scans share one trapezoid rule in t,
which splits the last interval when a cylinder height falls between frames.
The oscillation seminorm uses the literal r^(-n) normalisation (not the
ball-volume average); the inner mean is the plain ball average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScaleUnresolvableError
from .fields import (Grid, GridField, SpaceTimeField, Spectrum, ball_convolve,
                     ball_offsets, frame_blocks, pointwise_norm)
from . import semigroup

__all__ = [
    "NormReport",
    "bmo_seminorm",
    "bmo_seminorm_brute",
    "carleson_functional",
    "cylinder_radii",
    "smoothing_ratios",
    "x_norm",
    "x_norm_scan",
    "x_norms",
    "y1_norm",
    "y1_norms",
    "y2_norm",
    "y2_norms",
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


def _free_magnitudes(u0: GridField, ts: np.ndarray, orders) -> list[np.ndarray]:
    """Stacks of pointwise |grad^i G(t) u0| over the nodes ts, one (nodes, 1)
    + grid.shape stack per order i (``_stack_magnitudes``).  u0 is transformed
    once; each block of nodes is one ``free_spectrum``, whose derivatives are
    read off it with their inverse transforms alone."""
    spec = Spectrum(u0)

    def derivatives(block):
        free = semigroup.free_spectrum(spec, ts[block])
        yield from (free.gradient() if i == 1 else free.hessian() for i in orders)
    return _stack_magnitudes(u0.grid, len(ts), 1, derivatives)


def _cylinder_average_maxima(grid: Grid, masses: np.ndarray, r: float) -> list[float]:
    """Per mass of a (members,) + grid.shape stack: max over centers of its
    ball integral, times r^(-n); one ball_convolve for the whole stack."""
    peaks = ball_convolve(grid, masses, r).reshape(len(masses), -1).max(axis=1)
    return [float(p) * grid.cell_volume / r ** grid.dim for p in peaks]


def _trapezoid_weights(times: np.ndarray, t_end: float) -> np.ndarray:
    """Trapezoid weights for int_0^t_end over the ascending frame grid; the
    interval that t_end cuts takes the linear interpolant at t_end."""
    w = np.zeros_like(times)
    half = np.diff(times) / 2.0
    full = int(np.count_nonzero(times[1:] <= t_end))  # the whole intervals
    w[:full] += half[:full]
    w[1:full + 1] += half[:full]
    if full < half.size and times[full] < t_end:
        d = t_end - times[full]
        theta = d / (times[full + 1] - times[full])
        w[full] += d * (2.0 - theta) / 2.0
        w[full + 1] += d * theta / 2.0
    return w


def cylinder_radii(u_times: np.ndarray, top: float, grid: Grid) -> list[float]:
    """Dyadic radii at or below top = T^(1/4) whose cylinder height holds two
    positive frames or more: those a space-time norm up to T scans."""
    radii = [r for r in _dyadic_radii(top, grid)
             if np.sum((u_times > 0) & (u_times <= r ** 4 * (1 + 1e-12))) >= 2]
    if not radii:
        raise ScaleUnresolvableError("time grid too coarse for the smallest dyadic scale")
    return radii


# ----------------------------------------------------------------------
# mean oscillation
# ----------------------------------------------------------------------

# lattice points of the ball-offset windows the oscillation scan holds at once
_OFFSET_CHUNK_POINTS = 2 ** 13


def _oscillation_value(f: GridField, r: float) -> float:
    """max over centers of r^(-n) * h^n * sum_ball |f - ball average|.

    f shifted by an offset is a window of one periodic padding of its
    component-major stack.  The offsets are taken in chunks of about
    ``_OFFSET_CHUNK_POINTS`` lattice points: each chunk's windows are gathered
    into one array and their magnitudes summed on a stack whose row 0 is the
    running sum, so offsets still add in ``ball_offsets`` order, left to
    right."""
    grid = f.grid
    offs = ball_offsets(grid, r)
    comps = np.stack([f.values[..., c] for c in range(f.codomain_dim)])
    means = ball_convolve(grid, comps, r)[:, None] / offs.shape[0]
    s = int(np.abs(offs).max())
    padded = np.pad(comps, [(0, 0)] + [(s, s)] * grid.dim, mode="wrap")
    del comps  # read via padded: not held beside a chunk
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, grid.shape, axis=tuple(range(1, 1 + grid.dim)))
    per = min(offs.shape[0], max(1, _OFFSET_CHUNK_POINTS // grid.points_per_axis ** grid.dim))
    mags = np.zeros((per + 1,) + grid.shape)  # row 0: the sum so far
    for start in range(0, offs.shape[0], per):
        chunk = offs[start:start + per]
        # (comps, offsets) + grid.shape
        sq = windows[(slice(None),) + tuple(s + chunk[:, a] for a in range(grid.dim))]
        np.square(np.subtract(sq, means, out=sq), out=sq)
        dist = mags[1:len(chunk) + 1]
        np.sqrt(sq.sum(axis=0, out=dist), out=dist)
        del sq  # freed before the next chunk is gathered
        mags[0] = mags[:len(chunk) + 1].sum(axis=0)
    return float(mags[0].max()) * grid.cell_volume / r ** grid.dim


def _check_top_radius(grid: Grid, R: float) -> None:
    """Reject a top radius that is not finite or exceeds half the box length."""
    if not -np.inf < R <= grid.box_length / 2.0:
        raise ValueError(f"R must be finite and at most half the box length, got {R}")


def _oscillation_table(f: GridField, R: float) -> list[float]:
    """``_oscillation_value`` at each dyadic radius R, R/2, ... >= 2h."""
    grid = f.grid
    _check_top_radius(grid, R)
    if R <= 2.0 * grid.spacing:
        raise ScaleUnresolvableError(f"R={R:.3g} is not above 2h={2*grid.spacing:.3g}")
    return [_oscillation_value(f, r) for r in _dyadic_radii(R, grid)]


def bmo_seminorm(f: GridField, R: float) -> float:
    """Local mean-oscillation seminorm, sup over centers and dyadic r <= R.

    Lower-bound estimator: all lattice centers, radii {R, R/2, ..., >= 2h};
    the max of ``_oscillation_table``.
    """
    return max(_oscillation_table(f, R))


def bmo_seminorm_brute(f: GridField, R: float) -> float:
    """Exhaustive oracle: every lattice center, every integer-step radius <= R."""
    grid = f.grid
    _check_top_radius(grid, R)
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
    _check_top_radius(grid, R)
    radii = _dyadic_radii(R, grid)

    # global geometric t-nodes: R * 2^(-j/q), q per octave; nodes for
    # r = R/2^m are the tail of the same sequence starting at index m*q
    q = 8
    t_nodes = _geometric_nodes(R, 10 + int(round(np.log2(R / radii[-1]))), q)
    dlog = np.log(2.0) / q

    # scalar powers of t: numpy's array power may round them differently
    i = derivative_order
    sq, = _free_magnitudes(f, np.array([t ** 4 for t in t_nodes]), (i,))
    sq *= np.array([t ** i for t in t_nodes]).reshape((-1,) + (1,) * (grid.dim + 1))
    sq **= 2

    best = 0.0
    for m, r in enumerate(radii):
        sel = sq[m * q:]
        w = np.full(sel.shape[0], dlog)
        w[0] = w[-1] = dlog / 2.0
        best = max(best, _cylinder_average_maxima(grid, np.tensordot(w, sel, axes=(0, 0)), r)[0])
    return best


def smoothing_ratios(u0: GridField, R: float) -> list[dict]:
    """Measured constants of the three smoothing estimates, one row per
    dyadic scale R, R/2, ... above 2h.

    The free evolution of u0 is sampled on a geometric time grid with 6 points
    per octave spanning 36 octaves below R^4, plus 4 per halving from R down
    to the smallest dyadic radius.  It resolves every mode's decay window
    with the same relative density at every scale (a fixed frame grid would
    weight the scales unevenly and drift the ratios).  The cylinder integral,
    the weighted gradient sup, and the quartic cylinder integral are each
    divided by the matching power of the oscillation seminorm of u0.

    The scales share one node sequence: the nodes of R/2^j are those of R
    from index 24j on, down to the same bottom node, and its radii are R's
    from the j-th on.  So each row is read off one node stack and one
    per-radius table of oscillations and cylinder maxima: row j takes the
    maxima over the radii from the j-th and the nodes from the 24j-th.
    """
    grid = u0.grid
    osc = _oscillation_table(u0, R)
    radii = _dyadic_radii(R, grid)
    bmos = [max(osc[j:]) for j, r in enumerate(radii) if r > 2.0 * grid.spacing]
    if min(bmos) == 0.0:
        raise ValueError("cylinder_ratio, weighted_sup_ratio and quartic_ratio are "
                         f"undefined at R={radii[bmos.index(0.0)]:.3g}: the "
                         "oscillation seminorm of u0 is 0")
    q, per_halving = 6, 4
    t_nodes = _geometric_nodes(R ** 4, 36 + (len(radii) - 1) * per_halving, q)

    gm, hm = _free_magnitudes(u0, t_nodes, (1, 2))
    g4 = gm ** 4
    gmax, hmax = (m.reshape(t_nodes.size, -1).max(axis=1) for m in (gm, hm))
    weighted = [t ** 0.25 * gx + t ** 0.5 * hx for t, gx, hx in zip(t_nodes, gmax, hmax)]
    # squared in place: no node stack beyond g^2, g^4 and h^2 is held
    g2, h2 = np.square(gm, out=gm), np.square(hm, out=hm)

    def integrate(mass_frames, t_top):
        # trapezoid in t over the geometric nodes below t_top (descending)
        # the nodes descend, so those below t_top are a tail: a view, no copy
        start = t_nodes.size - np.count_nonzero(t_nodes <= t_top * (1 + 1e-12))
        ts = t_nodes[start:][::-1]
        vals = mass_frames[start:][::-1]
        w = _trapezoid_weights(ts, ts[-1])
        w[0] += ts[0]  # remaining sliver [0, t_min] at the frozen value
        return np.tensordot(w, vals, axes=(0, 0))

    cyl, quart = [], []  # per radius
    for r in radii:
        mass2 = integrate(h2, r ** 4) + integrate(g2, r ** 4) / r ** 2
        cyl.append(_cylinder_average_maxima(grid, mass2, r)[0])
        quart.append(_cylinder_average_maxima(grid, integrate(g4, r ** 4), r)[0])
    sup2 = u0.sup_norm() ** 2
    return [{
        "R": radii[j],
        "bmo": bmo,
        "cylinder_ratio": max(cyl[j:]) / bmo ** 2,
        "weighted_sup_ratio": max(weighted[j * q * per_halving:]) / bmo,
        "quartic_ratio": max(quart[j:]) / (sup2 * bmo ** 2),
    } for j, bmo in enumerate(bmos)]


# ----------------------------------------------------------------------
# space-time norms
# ----------------------------------------------------------------------

def _first_peak(values, keys, none):
    """(max value, its key), the first key on ties; (0.0, none) unless positive."""
    j = int(np.argmax(values))
    return (values[j], keys[j]) if values[j] > 0 else (0.0, none)


def _space_time_scan(grid: Grid, times: np.ndarray, T: float | None, sup_terms,
                     cylinder_terms):
    """The two halves every space-time norm is built from, for every member
    of a stack in one pass.

    Each term holds a magnitude stack m of shape (num_frames, members) +
    grid.shape: sup_terms are pairs (m, a), cylinder_terms triples
    (m, p, outer).  Over the positive frames at or below T (default: the last
    frame time) it returns (pos, halves):

    - pos indexes those frames;
    - halves holds one (sup, peaks, scales) per member:
      - sup is (max over the frames of sum_k t^a_k max|m_k|, that time);
      - peaks holds (value, radius) per cylinder term, value the max over
        dyadic radii r <= T^(1/4) of (r^(-n) max_x int_{P_r(x)} m^p)^outer;
      - scales lists (r, value per cylinder term) for every radius.

    Every member gets the bits of a one-member scan of its own slice: each
    radius takes one tensordot and one ball_convolve per term for all of
    them, and the final scaling, power and argmax are per member.
    """
    if T is None:
        T = float(times[-1])
    if times[-1] < T * (1 - 1e-12):
        raise ValueError("frames do not reach the requested final time")
    pos = np.nonzero((times > 0) & (times <= T * (1 + 1e-12)))[0]
    if pos.size == 0:
        raise ScaleUnresolvableError("no positive frame times at or below T")
    members = sup_terms[0][0].shape[1]

    frame_max = [(m[pos].reshape(pos.size, members, -1).max(axis=2), a) for m, a in sup_terms]
    # scalar powers of t: numpy's array power may round them differently
    wvals = np.array([sum(t ** a * fm[i] for fm, a in frame_max)
                      for i, t in enumerate(times[pos])])

    radii = cylinder_radii(times, T ** 0.25, grid)
    powered = [(m ** p, outer) for m, p, outer in cylinder_terms]
    rows = []  # per radius and cylinder term, the value of every member
    for r in radii:
        w = _trapezoid_weights(times, min(r ** 4, T))
        rows.append([[v ** outer for v in _cylinder_average_maxima(
            grid, np.tensordot(w, mp, axes=(0, 0)), r)] for mp, outer in powered])

    halves = []
    for k in range(members):
        scales = tuple((r, *(vals[k] for vals in row)) for r, row in zip(radii, rows))
        halves.append((_first_peak(wvals[:, k], times[pos], 0.0),
                       [_first_peak([s[c] for s in scales], radii, None)
                        for c in range(1, 1 + len(cylinder_terms))],
                       scales))
    return pos, halves


def _stack_magnitudes(grid: Grid, num_frames: int, members: int, derivatives) -> list[np.ndarray]:
    """One (num_frames, members) + grid.shape stack of pointwise magnitudes per
    array, filled block by block (``frame_blocks``): derivatives(block) gives
    one block's component-major arrays, members before frames, one at a time,
    and map frees each once reduced, before a generator makes the next.  Every
    magnitude of this module is made here, summed by ``pointwise_norm``."""
    def magnitudes(deriv):  # of one block, (frames, members) + grid.shape
        deriv = deriv.reshape((-1, members) + deriv.shape[-1 - grid.dim:])
        return np.swapaxes(pointwise_norm(deriv, grid, lead=2), 0, 1)

    out = []
    for block in frame_blocks(grid, num_frames):
        for k, mags in enumerate(map(magnitudes, derivatives(block))):
            if k == len(out):
                out.append(np.empty((num_frames, members) + grid.shape))
            out[k][block] = mags
    return out


def _member_magnitudes(grid: Grid, num_frames: int, members: int, values) -> np.ndarray:
    """Pointwise magnitude of each member of a field-layout stack, (num_frames,
    members) + grid.shape (``_stack_magnitudes``): values(block) gives the
    frames of that slice, (frames,) + grid.shape + components + (members,),
    and a view moves its component and member axes in front."""
    def components(block):
        v = values(block)
        yield np.moveaxis(v, range(1 + grid.dim, v.ndim), range(v.ndim - 1 - grid.dim))
    return _stack_magnitudes(grid, num_frames, members, components)[0]


def x_norm_scan(grid: Grid, times: np.ndarray, members: int, values, derivatives,
                T: float | None) -> list[NormReport]:
    """``x_norm`` of each member of a stack, with each member's bits, from one
    scan.  values(block) gives the field-layout values of the frames of that
    slice, members last (``_member_magnitudes``), and derivatives(block) their
    component-major gradient, then Hessian (``_stack_magnitudes``)."""
    grad_mag, hess_mag = _stack_magnitudes(grid, times.size, members, derivatives)
    u_mag = _member_magnitudes(grid, times.size, members, values)  # last: not held meanwhile
    pos, halves = _space_time_scan(grid, times, T, [(grad_mag, 0.25), (hess_mag, 0.5)],
                                   [(grad_mag, 4, 0.25), (hess_mag, 2, 0.5)])
    sups = u_mag[pos].reshape(pos.size, members, -1).max(axis=(0, 2))
    return [NormReport(float(s), weighted + m4 + m2, scales,
                       {"weighted_sup_time": weighted_arg,
                        "morrey4_radius": arg4, "morrey2_radius": arg2})
            for s, ((weighted, weighted_arg), [(m4, arg4), (m2, arg2)], scales)
            in zip(sups, halves)]


def _spectral_derivatives(u: SpaceTimeField, block: slice):
    """Gradient, then Hessian, of one block of frames, from one transform."""
    spec = Spectrum(u, block)
    yield spec.gradient()
    yield spec.hessian()


def x_norm(u: SpaceTimeField, T: float | None = None) -> NormReport:
    """Solution-space norm: sup |u| plus the gradient seminorm.

    seminorm = sup_t (t^(1/4) ||grad u||_inf + t^(1/2) ||grad^2 u||_inf)
             + sup_scales (R^(-n) int_{P_R} |grad u|^4)^(1/4)
             + sup_scales (R^(-n) int_{P_R} |grad^2 u|^2)^(1/2)

    over parabolic cylinders P_R(x, R^4) = B_R(x) x [0, R^4] with dyadic R at
    or below T^(1/4) and every lattice center (``x_norm_scan``).
    """
    return x_norm_scan(u.grid, u.times, 1, lambda block: u.values[block][..., None],
                       lambda block: _spectral_derivatives(u, block), T)[0]


def x_norms(u: SpaceTimeField, T: float | None) -> list[NormReport]:
    """``x_norm`` of each member u.values[..., m:m+1] of a stack whose last
    axis indexes the members, with each member's bits, from one scan."""
    return x_norm_scan(u.grid, u.times, u.codomain_dim, u.values.__getitem__,
                       lambda block: _spectral_derivatives(u, block), T)


# (time weight, power, outer) of each forcing norm: its sup part is
# sup_t t^weight ||f||_inf and its cylinder part (r^(-n) int |f|^power)^outer
_Y1 = (1.0, 1.0, 1.0)
_Y2 = (0.75, 4.0 / 3.0, 0.75)


def _y_reports(grid: Grid, times: np.ndarray, members: int, values, T: float | None,
               time_weight: float, power: float, outer: float) -> list[NormReport]:
    """Forcing norm of each member of a stack (``_member_magnitudes``)."""
    mags = _member_magnitudes(grid, times.size, members, values)
    _, halves = _space_time_scan(grid, times, T, [(mags, time_weight)], [(mags, power, outer)])
    return [NormReport(sup_part, best, scales, {"sup_time": sup_arg, "cylinder_radius": arg_r})
            for (sup_part, sup_arg), [(best, arg_r)], scales in halves]


def y1_norm(f: SpaceTimeField, T: float | None = None) -> NormReport:
    """Forcing norm sup_t t ||f||_inf + sup cylinders r^(-n) int |f|."""
    return _y_reports(f.grid, f.times, 1, lambda block: f.values[block][..., None], T, *_Y1)[0]


def y2_norm(f: SpaceTimeField, T: float | None = None) -> NormReport:
    """Flux norm sup_t t^(3/4) ||f||_inf + sup (r^(-n) int |f|^(4/3))^(3/4)."""
    return _y_reports(f.grid, f.times, 1, lambda block: f.values[block][..., None], T, *_Y2)[0]


def y1_norms(f: SpaceTimeField, T: float | None) -> list[NormReport]:
    """``y1_norm`` of each member f.values[..., m:m+1] of a stack whose last
    axis indexes the members, with each member's bits, from one scan."""
    return _y_reports(f.grid, f.times, f.codomain_dim, f.values.__getitem__, T, *_Y1)


def y2_norms(f: SpaceTimeField, T: float | None) -> list[NormReport]:
    """``y2_norm`` of each member f.values[..., m:m+1] of a stack whose last
    axis indexes the members, with each member's bits, from one scan."""
    return _y_reports(f.grid, f.times, f.codomain_dim, f.values.__getitem__, T, *_Y2)
