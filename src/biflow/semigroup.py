"""Linear solution operators of the fourth-order heat equation on the box.

The free evolution G and the Duhamel response S are realised per Fourier
mode.  The symbol of the spatial operator is |k|^4, which is brutally stiff,
so S integrates each mode exactly against a piecewise-linear-in-time
interpolant of the forcing using the phi functions

    phi1(z) = (1 - e^-z)/z,      phi2(z) = (1 - phi1(z))/z,

evaluated by Taylor series below a small threshold to dodge cancellation.
One sweep over the frame grid yields the response at every stored time via
the recurrence u(t_{j+1}) = e^(-dt |k|^4) u(t_j) + (local phi integral).
S is linear, so ``duhamel_sweep`` takes any sum of coefficients: the
``apply_S*`` operators sweep one forcing, the Picard map of ``flow`` its sum.
The per-interval factors e^(-d |k|^4), phi1 and phi2 depend only on the grid
and the frame times, so they are built once into a cached table that every
sweep over the same frames reads.

Mode coefficients are the half spectrum of ``fields`` (scipy's real
transforms, ``workers=1``), so the sweeps and the free evolution run on
M // 2 + 1 modes along the last grid axis, with |k|^4 read from
``multiplier(grid, "biharmonic")``.  They are component-major, as every
array of the spectral layer: component axes, then the frame axis, then the
grid axes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidTimeError, TimeMisalignedError
from .fields import (Grid, GridField, SpaceTimeField, Spectrum, components_last,
                     inverse_transform, multiplier)

__all__ = [
    "PHI_SERIES_THRESHOLD",
    "apply_G",
    "apply_G_trajectory",
    "free_spectrum",
    "duhamel_sweep",
    "apply_S",
    "apply_S_trajectory",
    "apply_S_div_trajectory",
    "operator_bound_experiment",
    "random_forcing",
    "random_band_limited_field",
]

PHI_SERIES_THRESHOLD = 1e-2

# members x frames x grid points of one forcing stack in
# operator_bound_experiment: the 1D operators suite (128 x 13 x 32) is one
# stack, and a 3D grid of 32^3 points takes one member at a time
_STACK_VALUES = 2 ** 16


def _decay_and_phis(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^-z, phi1(z), phi2(z)) from one exponential; series for z below the
    threshold, where the closed forms cancel."""
    z = np.asarray(z, dtype=float)
    small = z < PHI_SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)
    decay = np.exp(-z)
    closed1 = (1.0 - decay) / zs  # discarded where small, so zs = 1 is harmless
    closed2 = (1.0 - closed1) / zs
    series1 = 1.0 - z / 2.0 + z ** 2 / 6.0 - z ** 3 / 24.0 + z ** 4 / 120.0 - z ** 5 / 720.0
    series2 = 0.5 - z / 6.0 + z ** 2 / 24.0 - z ** 3 / 120.0 + z ** 4 / 720.0 - z ** 5 / 5040.0
    return decay, np.where(small, series1, closed1), np.where(small, series2, closed2)


def apply_G(u0: GridField, t: float) -> GridField:
    """Free evolution at one time: a frame of ``apply_G_trajectory``."""
    if not 0 <= t < np.inf:
        raise InvalidTimeError(f"free evolution requires finite t >= 0, got {t}")
    if t == 0:
        return u0
    return apply_G_trajectory(u0, (0.0, t)).frame(1)


def apply_G_trajectory(u0: GridField, times) -> SpaceTimeField:
    """Free evolution sampled on a frame grid (times[0] must be 0): one
    transform of u0, its ``free_spectrum`` at every time, one inverse
    transform of the stack.  Frames at t = 0 are u0's values."""
    times = np.asarray(times, dtype=float)
    comps = u0.values.ndim - u0.grid.dim
    # the coefficients are a temporary, freed before the frames are copied
    frames = components_last(
        inverse_transform(u0.grid, free_spectrum(Spectrum(u0), times).coeffs), comps)
    frames[times == 0.0] = u0.values
    return SpaceTimeField(u0.grid, times, frames)


def free_spectrum(spec: Spectrum, times) -> Spectrum:
    """Spectrum of the free evolution of one frame at each of times: its
    coefficients times e^(-t |k|^4), with the frame axis just before the grid
    axes.  No transform runs; each derivative of G(t) u0 is read off it as
    the inverse of its coefficients times the derivative's symbol."""
    grid = spec.grid
    times = np.asarray(times, dtype=float)
    decay = np.exp(-times.reshape((-1,) + (1,) * grid.dim) * multiplier(grid, "biharmonic"))
    return Spectrum.with_coeffs(grid, np.expand_dims(spec.coeffs, -1 - grid.dim) * decay)


@lru_cache(maxsize=1)
def _sweep_table(grid: Grid, times: tuple) -> tuple:
    """Read-only (e^-z, phi1(z), phi2(z)) at z = d |k|^4 for each interval
    d of the frame times, built once per (grid, times) like ``multiplier``:
    every sweep of a solve reads the one table held."""
    sym = multiplier(grid, "biharmonic")
    table = tuple(_decay_and_phis((times[j + 1] - times[j]) * sym)
                  for j in range(len(times) - 1))
    for arrays in table:
        for a in arrays:
            a.setflags(write=False)
    return table


def duhamel_sweep(grid: Grid, times: np.ndarray, spec_frames: np.ndarray) -> np.ndarray:
    """Mode-space Duhamel response at every frame time.

    spec_frames are component-major half-spectrum coefficients: component
    axes, then the frame axis, then the grid axes; frame j holds the
    forcing at times[j], and the forcing is its piecewise-linear
    interpolant.  Per subinterval of length d,

        contribution = d * (f_a * phi1(z) + (f_b - f_a) * phi2(z)),  z = d |k|^4,

    carried forward by the semigroup factor e^(-d |k|^4).  Every mode and
    component is on its own, so the layout does not change a bit.
    """
    def frame(j):  # index of frame j
        return (..., j) + (slice(None),) * grid.dim

    out = np.zeros_like(spec_frames)
    acc = np.zeros_like(spec_frames[frame(0)])
    for j, (decay, p1, p2) in enumerate(_sweep_table(grid, tuple(times.tolist()))):
        d = times[j + 1] - times[j]
        fa, fb = spec_frames[frame(j)], spec_frames[frame(j + 1)]
        acc = decay * acc + d * (fa * p1 + (fb - fa) * p2)
        out[frame(j + 1)] = acc
    return out


def _frame_index(times: np.ndarray, t_target: float) -> int:
    hit = np.nonzero(np.isclose(times, t_target, rtol=1e-12, atol=1e-14))[0]
    if hit.size == 0:
        raise TimeMisalignedError(f"time {t_target} is not on the stored frame grid")
    return int(hit[0])


def apply_S(f: SpaceTimeField, t_target: float) -> GridField:
    """Duhamel response int_0^t e^(-(t-s) Lap^2) f(s) ds at a stored frame time."""
    return apply_S_trajectory(f).frame(_frame_index(f.times, t_target))


def apply_S_trajectory(f: SpaceTimeField) -> SpaceTimeField:
    """Duhamel response at every frame time in one sweep."""
    out = duhamel_sweep(f.grid, f.times, Spectrum(f).coeffs)
    comps = f.values.ndim - 1 - f.grid.dim
    return SpaceTimeField(f.grid, f.times, components_last(inverse_transform(f.grid, out), comps))


def apply_S_div_trajectory(F: SpaceTimeField) -> SpaceTimeField:
    """Duhamel response to a divergence at every frame time; the derivative is
    taken on the mode coefficients inside the integral."""
    out = duhamel_sweep(F.grid, F.times, Spectrum(F).divergence())
    comps = F.values.ndim - 2 - F.grid.dim
    return SpaceTimeField(F.grid, F.times, components_last(inverse_transform(F.grid, out), comps))


# ----------------------------------------------------------------------
# random forcings and operator-bound experiments
# ----------------------------------------------------------------------

def _draw_modes(rng: np.random.Generator, dim: int, max_mode: int, shapes: int) -> tuple:
    """Wavevectors (modes, dim, shapes), amplitudes and phases (modes, shapes)
    of band-limited shapes of 2 max_mode modes, drawn shape by shape and mode
    by mode: m in [-max_mode, max_mode]^dim, N(0, 1) / (1 + |m|^2), [0, 2 pi)."""
    if max_mode < 1:
        raise ValueError(f"max_mode must be at least 1, got {max_mode}: "
                         "every forcing would be zero")
    ms = np.empty((2 * max_mode, dim, shapes), dtype=np.int64)
    amps, phases = np.empty((2, 2 * max_mode, shapes))
    for s in range(shapes):
        for j in range(2 * max_mode):
            m = ms[j, :, s] = rng.integers(-max_mode, max_mode + 1, size=dim)
            amps[j, s] = rng.normal() / (1.0 + float(m @ m))
            phases[j, s] = rng.uniform(0, 2 * np.pi)
    return ms, amps, phases


def _mode_sums(grid: Grid, ms: np.ndarray, amps: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """grid.shape + shape axes: per shape of a ``_draw_modes`` stack, the sum
    of amp cos(2 pi m.x / L + phase) over its modes, each term formed as a
    lone mode's is and added to zero in mode order, as a per-mode loop adds."""
    expand = (slice(None),) + (None,) * grid.dim
    coords = [x[(...,) + (None,) * (amps.ndim - 1)] for x in grid.coordinates()]
    arg = sum(2 * np.pi * ms[:, ax][expand] * x / grid.box_length for ax, x in enumerate(coords))
    arg += phases[expand]
    return np.multiply(np.cos(arg, out=arg), amps[expand], out=arg).sum(axis=0)


def _draw_forcing(rng, dim: int, times: np.ndarray, max_mode: int, shapes: int) -> tuple:
    """A random forcing's modes (``_draw_modes``), then its envelope."""
    modes = _draw_modes(rng, dim, max_mode, shapes)
    T = times[-1] if times[-1] > 0 else 1.0
    c0, c1v, c2 = rng.uniform(0.25, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    return (*modes, c0 + c1v * (times / T) + c2 * (times / T) ** 2)


def _forcing_frames(grid: Grid, draws) -> np.ndarray:
    """(frames,) + grid.shape + (shapes, members): each member's shapes under
    its envelope, one ``_draw_forcing`` per member, one ``_mode_sums`` for all."""
    ms, amps, phases, envelopes = (np.stack(a, axis=-1) for a in zip(*draws))
    return envelopes[(slice(None),) + (None,) * (grid.dim + 1)] * _mode_sums(grid, ms, amps, phases)


def random_band_limited_field(grid: Grid, rng: np.random.Generator,
                              max_mode: int = 3, codomain_dim: int = 1) -> GridField:
    """Random real field with spectrum supported on modes |m| <= max_mode and
    unit amplitude scale: 2 max_mode random cosines per component."""
    return GridField(grid, _mode_sums(grid, *_draw_modes(rng, grid.dim, max_mode, codomain_dim)))


def random_forcing(grid: Grid, times, rng: np.random.Generator,
                   max_mode: int = 3, codomain_dim: int = 1,
                   per_axis: bool = False) -> SpaceTimeField:
    """Random space-time forcing: band-limited shapes of unit amplitude scale
    (per component, and per axis if per_axis) under a smooth envelope."""
    times = np.asarray(times, dtype=float)
    axes = (grid.dim,) if per_axis else ()
    frames = _forcing_frames(grid, [_draw_forcing(rng, grid.dim, times, max_mode,
                                                  int(np.prod(axes)) * codomain_dim)])
    return SpaceTimeField(grid, times, frames.reshape(frames.shape[:-2] + axes + (codomain_dim,)))


def operator_bound_experiment(grid: Grid, times, ensemble_size: int, seed: int,
                              max_mode: int = 3) -> dict:
    """Fitted norms of S and S(div .) over a seeded forcing ensemble.

    Returns the max over the ensemble of ||S f||_X / ||f||_Y1 and
    ||S(div F)||_X / ||F||_Y2, with degenerate members excluded and counted.
    Under "first_half" are the same four figures over the first
    ensemble_size // 2 members, which a call of that size with the same seed
    draws too; None below 2 members.

    Members are stacked on the codomain axis, up to _STACK_VALUES values per
    forcing stack, and each stack takes one sweep and one transform per
    operator and one norm scan per norm.  Each acts on each component alone,
    so every member keeps the bits of its own sweep and scan.
    """
    # deferred: norms imports this module
    from .norms import x_norms, y1_norms, y2_norms

    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be at least 1, got {ensemble_size}")
    times = np.asarray(times, dtype=float)
    T = float(times[-1])
    rng = np.random.Generator(np.random.Philox(seed))
    per_stack = max(1, _STACK_VALUES // (times.size * grid.points_per_axis ** grid.dim))

    def draw(size):
        # f then F for each member: the draw order of one member at a time;
        # then every member's shapes in one pass per stack
        fs, Fs = zip(*[(_draw_forcing(rng, grid.dim, times, max_mode, 1),
                        _draw_forcing(rng, grid.dim, times, max_mode, grid.dim))
                       for _ in range(size)])
        return (SpaceTimeField(grid, times, _forcing_frames(grid, fs)[..., 0, :]),
                SpaceTimeField(grid, times, _forcing_frames(grid, Fs)))

    def ratios(forcing, solve, y_norms):
        # ||S f||_X / ||f||_Y of each member; None where ||f||_Y = 0
        ys = [y.total for y in y_norms(forcing, T)]
        return [x.total / y if y > 0 else None
                for x, y in zip(x_norms(solve(forcing), T), ys)]

    ratios_s, ratios_div = [], []  # per member; None where it is excluded
    for start in range(0, ensemble_size, per_stack):
        f, F = draw(min(per_stack, ensemble_size - start))
        ratios_s += ratios(f, apply_S_trajectory, y1_norms)
        ratios_div += ratios(F, apply_S_div_trajectory, y2_norms)

    def figures(size):
        s = [r for r in ratios_s[:size] if r is not None]
        d = [r for r in ratios_div[:size] if r is not None]
        return {"s_over_y1": float(np.max(s)), "sdiv_over_y2": float(np.max(d)),
                "ensemble_size": size, "excluded": 2 * size - len(s) - len(d)}

    report = figures(ensemble_size)
    report["first_half"] = figures(ensemble_size // 2) if ensemble_size >= 2 else None
    return report
