"""Linear solution operators of the fourth-order heat equation on the box.

The free evolution G and the Duhamel response S are realised per Fourier
mode.  The symbol of the spatial operator is |k|^4, which is brutally stiff,
so S integrates each mode exactly against a piecewise-linear-in-time
interpolant of the forcing using the phi functions

    phi1(z) = (1 - e^-z)/z,      phi2(z) = (1 - phi1(z))/z,

evaluated by Taylor series below a small threshold to dodge cancellation.
One sweep over the frame grid yields the response at every stored time via
the recurrence u(t_{j+1}) = e^(-dt |k|^4) u(t_j) + (local phi integral).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidTimeError, TimeMisalignedError
from .fields import (Grid, GridField, SpaceTimeField, Spectrum, inverse_transform,
                     multiplier)

__all__ = [
    "PHI_SERIES_THRESHOLD",
    "symbol",
    "phi1",
    "phi2",
    "apply_G",
    "apply_G_trajectory",
    "apply_S",
    "apply_S_trajectory",
    "apply_S_div_trajectory",
    "operator_bound_experiment",
    "random_forcing",
    "random_band_limited_field",
]

PHI_SERIES_THRESHOLD = 1e-2


def symbol(grid: Grid) -> np.ndarray:
    """Per-mode biharmonic symbol |k|^4, zero only at the mean mode."""
    return multiplier(grid, "laplacian") ** 2


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


def phi1(z: np.ndarray) -> np.ndarray:
    """(1 - e^-z)/z with series evaluation for z below the threshold."""
    return _decay_and_phis(z)[1]


def phi2(z: np.ndarray) -> np.ndarray:
    """(1 - phi1(z))/z, the second exponential-integrator weight."""
    return _decay_and_phis(z)[2]


def apply_G(u0: GridField, t: float) -> GridField:
    """Free evolution: multiply each mode by e^(-t |k|^4)."""
    if t < 0:
        raise InvalidTimeError("free evolution requires t >= 0")
    if t == 0:
        return u0
    return GridField(u0.grid, Spectrum(u0).apply(np.exp(-t * symbol(u0.grid))))


def apply_G_trajectory(u0: GridField, times) -> SpaceTimeField:
    """Free evolution sampled on a frame grid (times[0] must be 0)."""
    times = np.asarray(times, dtype=float)
    spec = Spectrum(u0)
    sym = symbol(u0.grid)
    frames = np.stack([u0.values if t == 0.0 else spec.apply(np.exp(-t * sym))
                       for t in times])
    return SpaceTimeField(u0.grid, times, frames)


def _duhamel_sweep(grid: Grid, times: np.ndarray, spec_frames: np.ndarray) -> np.ndarray:
    """Mode-space Duhamel response at every frame time.

    spec_frames[j] are the mode coefficients of the forcing at times[j]; the
    forcing is its piecewise-linear interpolant.  Per subinterval of length d,

        contribution = d * (f_a * phi1(z) + (f_b - f_a) * phi2(z)),  z = d |k|^4,

    carried forward by the semigroup factor e^(-d |k|^4).
    """
    sym = symbol(grid)[..., None]
    out = np.zeros_like(spec_frames)
    acc = np.zeros_like(spec_frames[0])
    for j in range(times.size - 1):
        d = times[j + 1] - times[j]
        decay, p1, p2 = _decay_and_phis(d * sym)
        fa, fb = spec_frames[j], spec_frames[j + 1]
        acc = decay * acc + d * (fa * p1 + (fb - fa) * p2)
        out[j + 1] = acc
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
    out = _duhamel_sweep(f.grid, f.times, Spectrum(f).coeffs)
    return SpaceTimeField(f.grid, f.times, inverse_transform(f.grid, out))


def apply_S_div_trajectory(F: SpaceTimeField) -> SpaceTimeField:
    """Duhamel response to a divergence at every frame time; the derivative is
    taken on the mode coefficients inside the integral."""
    out = _duhamel_sweep(F.grid, F.times, Spectrum(F).divergence())
    return SpaceTimeField(F.grid, F.times, inverse_transform(F.grid, out))


# ----------------------------------------------------------------------
# random forcings and operator-bound experiments
# ----------------------------------------------------------------------

def random_band_limited_field(grid: Grid, rng: np.random.Generator,
                              max_mode: int = 3, codomain_dim: int = 1) -> GridField:
    """Random real field with spectrum supported on modes |m| <= max_mode and
    unit amplitude scale."""
    coords = grid.coordinates()
    L = grid.box_length
    vals = np.zeros(grid.shape + (codomain_dim,))
    for c in range(codomain_dim):
        acc = np.zeros(grid.shape)
        for _ in range(2 * max_mode):
            m = rng.integers(-max_mode, max_mode + 1, size=grid.dim)
            amp = rng.normal() / (1.0 + float(m @ m))
            phase = rng.uniform(0, 2 * np.pi)
            arg = sum(2 * np.pi * m[ax] * coords[ax] / L for ax in range(grid.dim))
            acc += amp * np.cos(arg + phase)
        vals[..., c] = acc
    return GridField(grid, vals)


def random_forcing(grid: Grid, times, rng: np.random.Generator,
                   max_mode: int = 3, codomain_dim: int = 1,
                   per_axis: bool = False) -> SpaceTimeField:
    """Random space-time forcing: band-limited shapes of unit amplitude scale
    under smooth envelopes."""
    times = np.asarray(times, dtype=float)
    shapes = [random_band_limited_field(grid, rng, max_mode, codomain_dim)
              for _ in range(grid.dim if per_axis else 1)]
    T = times[-1] if times[-1] > 0 else 1.0
    c0, c1v, c2 = rng.uniform(0.25, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    envelope = c0 + c1v * (times / T) + c2 * (times / T) ** 2
    if per_axis:
        base = np.stack([s.values for s in shapes], axis=-2)  # grid + (n, l)
        frames = envelope[(...,) + (None,) * (base.ndim)] * base[None, ...]
    else:
        base = shapes[0].values
        frames = envelope[(...,) + (None,) * base.ndim] * base[None, ...]
    return SpaceTimeField(grid, times, frames)


def operator_bound_experiment(grid: Grid, times, ensemble_size: int, seed: int,
                              max_mode: int = 3) -> dict:
    """Fitted norms of S and S(div .) over a seeded forcing ensemble.

    Returns the max over the ensemble of ||S f||_X / ||f||_Y1 and
    ||S(div F)||_X / ||F||_Y2, with degenerate members excluded and counted.
    """
    from .norms import x_norm, y1_norm, y2_norm  # deferred: norms imports this module

    times = np.asarray(times, dtype=float)
    T = float(times[-1])
    rng = np.random.Generator(np.random.Philox(seed))
    ratios_s, ratios_div = [], []
    excluded = 0
    for _ in range(ensemble_size):
        f = random_forcing(grid, times, rng, max_mode=max_mode)
        y1 = y1_norm(f, T).total
        if y1 <= 0:
            excluded += 1
        else:
            ratios_s.append(x_norm(apply_S_trajectory(f), T).total / y1)
        F = random_forcing(grid, times, rng, max_mode=max_mode, per_axis=True)
        y2 = y2_norm(F, T).total
        if y2 <= 0:
            excluded += 1
        else:
            ratios_div.append(x_norm(apply_S_div_trajectory(F), T).total / y2)
    return {
        "s_over_y1": float(np.max(ratios_s)),
        "sdiv_over_y2": float(np.max(ratios_div)),
        "ensemble_size": ensemble_size,
        "excluded": excluded,
        "ratios_s": [float(r) for r in ratios_s],
        "ratios_div": [float(r) for r in ratios_div],
    }
