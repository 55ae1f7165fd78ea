"""Free evolution, Duhamel operators, phi functions, operator-bound sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow.errors import TimeMisalignedError
from biflow.fields import (Grid, GridField, SpaceTimeField, Spectrum,
                           inverse_transform, laplacian)
from biflow import semigroup
from biflow.kernel import default_profile, eval_kernel
from biflow.norms import x_norm, y1_norm
from biflow.semigroup import (PHI_SERIES_THRESHOLD, apply_G,
                              apply_G_trajectory, apply_S,
                              apply_S_div_trajectory, apply_S_trajectory,
                              operator_bound_experiment, phi1, phi2,
                              random_forcing, symbol)


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


# ----------------------------------------------------------------------
# free evolution
# ----------------------------------------------------------------------

def test_symbol_nonnegative_and_vanishes_only_at_mean_mode():
    for dim in (1, 2):
        g = Grid(dim, 2 * np.pi, 16)
        sym = symbol(g)
        assert sym.min() >= 0.0
        assert np.count_nonzero(sym == 0.0) == 1
        assert sym[(0,) * dim] == 0.0


def _oracle_symbol(grid):
    ks = grid.wavenumbers()
    ksq = np.zeros(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.points_per_axis
        ksq = ksq + ks[ax].reshape(shape) ** 2
    return ksq ** 2


def _oracle_divergence_spectrum(F):
    grid, vals = F.grid, F.values
    spec = np.fft.fftn(vals, axes=tuple(range(1, 1 + grid.dim)))
    ks = grid.wavenumbers()
    M = grid.points_per_axis
    acc = np.zeros(vals.shape[:1] + grid.shape + vals.shape[-1:], dtype=complex)
    for ax in range(grid.dim):
        k = ks[ax].copy()
        if M % 2 == 0:
            k[M // 2] = 0.0
        shape = [1] * (1 + grid.dim) + [1]
        shape[1 + ax] = M
        acc += spec[..., ax, :] * (1j * k.reshape(shape))
    return acc


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codomain", [1, 3])
def test_symbol_and_divergence_spectrum_bitwise_equal_oracles(dim, codomain):
    g = Grid(dim, 2 * np.pi, 16)
    assert np.array_equal(symbol(g), _oracle_symbol(g))
    r = _philox(10 * dim + codomain)
    F = SpaceTimeField(g, [0.0, 0.1, 0.4], r.normal(size=(3,) + g.shape + (dim, codomain)))
    assert np.array_equal(Spectrum(F).divergence(), _oracle_divergence_spectrum(F))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("codomain", [1, 3])
def test_single_time_operators_equal_a_frame_of_the_trajectory(dim, codomain):
    g = Grid(dim, 2 * np.pi, 16)
    r = _philox(dim + codomain)
    times = 0.4 * (np.arange(9) / 8) ** 4
    u0 = GridField(g, r.normal(size=g.shape + (codomain,)))
    f = random_forcing(g, times, r, codomain_dim=codomain)
    free = apply_G_trajectory(u0, times)
    s_traj = apply_S_trajectory(f)
    for idx in (3, 6):
        t = times[idx]
        assert np.array_equal(apply_G(u0, t).values, free.values[idx])
        assert np.array_equal(apply_S(f, t).values, s_traj.values[idx])


def test_constants_are_invariant(grid64):
    u0 = GridField.constant(grid64, [2.5, -1.0])
    out = apply_G(u0, 3.0)
    assert np.abs(out.values - u0.values).max() < 1e-14


def test_single_mode_decay(grid64):
    x = grid64.coordinates()[0]
    u0 = GridField(grid64, np.cos(3 * x)[..., None])
    out = apply_G(u0, 0.05)
    expect = np.exp(-(3.0 ** 4) * 0.05) * np.cos(3 * x)
    assert np.abs(out.values[..., 0] - expect).max() < 1e-13


def test_zero_time_is_identity(grid64, rng):
    u0 = GridField(grid64, rng.normal(size=grid64.shape + (1,)))
    assert apply_G(u0, 0.0) is u0


def test_negative_time_rejected(grid64):
    from biflow.errors import InvalidTimeError
    u0 = GridField.constant(grid64, [1.0])
    with pytest.raises(InvalidTimeError):
        apply_G(u0, -0.1)


def test_mean_mode_preserved(grid64, rng):
    u0 = GridField(grid64, rng.normal(size=grid64.shape + (1,)))
    for t in (0.1, 10.0):
        assert apply_G(u0, t).values.mean() == pytest.approx(u0.values.mean(), abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_semigroup_law(seed):
    g = Grid(1, 2 * np.pi, 32)
    r = _philox(seed)
    x = g.coordinates()[0]
    vals = sum(r.normal() * np.cos(m * x + r.uniform(0, 6.28)) for m in range(4))
    u0 = GridField(g, vals[..., None])
    s, t = r.uniform(0.01, 1.0, size=2)
    a = apply_G(apply_G(u0, s), t)
    b = apply_G(u0, s + t)
    assert np.abs(a.values - b.values).max() <= 1e-12


def test_kernel_convolution_consistency():
    # free evolution vs physical-space convolution with the evaluated kernel
    # on a box wide enough that kernel tails never wrap
    L, M = 32.0, 1024
    g = Grid(1, L, M)
    x = g.coordinates()[0]
    c = L / 2
    bump = np.where(np.abs(x - c) < 1.0, np.cos(np.pi * (x - c) / 2) ** 8, 0.0)
    u0 = GridField(g, bump[..., None])
    profile = default_profile(1, tolerance=1e-10)
    for t in (0.01, 0.1, 1.0):
        spectral = apply_G(u0, t).values[..., 0]
        # circulant row of the discretised convolution integral; the kernel
        # is even, so the minimum periodic distance suffices
        dx = np.minimum(x, L - x)
        row = eval_kernel(profile, dx, t) * g.spacing
        conv = np.fft.ifft(np.fft.fft(row) * np.fft.fft(bump)).real
        assert np.abs(spectral - conv).max() <= 1e-4


# ----------------------------------------------------------------------
# Duhamel operator
# ----------------------------------------------------------------------

def test_constant_forcing(grid64):
    times = np.linspace(0.0, 0.5, 6)
    f = SpaceTimeField(grid64, times, np.full((6,) + grid64.shape + (1,), 2.5))
    out = apply_S(f, 0.5)
    assert np.abs(out.values - 2.5 * 0.5).max() < 1e-14


def test_single_mode_time_constant_closed_form(grid64):
    x = grid64.coordinates()[0]
    times = np.linspace(0.0, 0.5, 6)
    for m in (1, 2, 7):  # includes a stiff mode, lambda = 7^4 = 2401
        vals = np.repeat(np.cos(m * x)[None, ..., None], 6, axis=0)
        f = SpaceTimeField(grid64, times, vals)
        lam = float(m) ** 4
        expect = (1 - np.exp(-lam * 0.5)) / lam * np.cos(m * x)
        got = apply_S(f, 0.5).values[..., 0]
        assert np.abs(got - expect).max() <= 1e-6 * max(1.0, 1 / lam)


def test_single_mode_linear_in_time_closed_form(grid64):
    # f(x, s) = cos(m x) * s: integral t/lam - (1 - e^(-lam t))/lam^2
    x = grid64.coordinates()[0]
    t_end = 0.3
    times = np.linspace(0.0, t_end, 4)
    for m in (1, 5):
        vals = np.stack([(np.cos(m * x) * s)[..., None] for s in times])
        f = SpaceTimeField(grid64, times, vals)
        lam = float(m) ** 4
        coef = (t_end - (1 - np.exp(-lam * t_end)) / lam) / lam
        got = apply_S(f, t_end).values[..., 0]
        assert np.abs(got - coef * np.cos(m * x)).max() < 1e-12


def test_riemann_sum_oracle():
    # independent dense-time Riemann sum (1000 substeps, midpoint, linear
    # interpolation) on a low-mode two-frame forcing
    g = Grid(1, 2 * np.pi, 16)
    r = _philox(11)
    x = g.coordinates()[0]
    T = 0.1
    f0 = r.normal() + r.normal() * np.cos(x) + r.normal() * np.sin(x)
    f1 = r.normal() + r.normal() * np.cos(x) + r.normal() * np.sin(x)
    scale = max(np.abs(f0).max(), np.abs(f1).max())
    f0, f1 = f0 / scale, f1 / scale  # unit sup keeps the oracle's own
    # midpoint error comfortably below the comparison tolerance
    f = SpaceTimeField(g, [0.0, T], np.stack([f0[..., None], f1[..., None]]))
    got = apply_S(f, T).values[..., 0]
    lam = symbol(g)
    s0, s1 = np.fft.fft(f0), np.fft.fft(f1)
    acc = np.zeros_like(s0)
    N = 1000
    for j in range(N):
        s = (j + 0.5) * T / N
        acc += np.exp(-(T - s) * lam) * (s0 + (s1 - s0) * s / T) * (T / N)
    oracle = np.fft.ifft(acc).real
    assert np.abs(got - oracle).max() <= 1e-8


def test_apply_s_is_linear(grid64, rng):
    times = 0.4 * (np.arange(9) / 8) ** 4
    a = random_forcing(grid64, times, rng)
    b = random_forcing(grid64, times, rng)
    lhs = apply_S(SpaceTimeField(grid64, times, 2 * a.values - 3 * b.values), times[-1])
    rhs = 2 * apply_S(a, times[-1]).values - 3 * apply_S(b, times[-1]).values
    assert np.abs(lhs.values - rhs).max() < 1e-12


def test_apply_s_zero_at_time_zero(grid64, rng):
    times = 0.4 * (np.arange(9) / 8) ** 4
    f = random_forcing(grid64, times, rng)
    assert np.abs(apply_S(f, 0.0).values).max() == 0.0


def test_time_misaligned_error(grid64, rng):
    times = np.linspace(0.0, 1.0, 5)
    f = random_forcing(grid64, times, rng)
    with pytest.raises(TimeMisalignedError):
        apply_S(f, 0.33)


def test_divergence_inside_duhamel_matches_outside(grid64, rng):
    times = 0.4 * (np.arange(9) / 8) ** 4
    F = random_forcing(grid64, times, rng, per_axis=True)
    inside = apply_S_div_trajectory(F).values[-1]
    div = inverse_transform(grid64, Spectrum(F).divergence())
    outside = apply_S(SpaceTimeField(grid64, times, div), times[-1]).values
    assert np.abs(inside - outside).max() < 1e-13


def test_divergence_of_constants(grid64):
    times = np.linspace(0.0, 1.0, 5)
    F = SpaceTimeField(grid64, times, np.ones((5,) + grid64.shape + (1, 1)))
    assert np.abs(apply_S_div_trajectory(F).values).max() < 1e-13


def test_s_div_linear_phase_closed_form(grid64):
    # F(x, s) = sin(x) * s: div = cos(x) s, response (t - (1-e^-t)) cos(x)
    x = grid64.coordinates()[0]
    t_end = 0.3
    times = np.linspace(0.0, t_end, 31)
    vals = np.stack([(np.sin(x) * s)[..., None, None] for s in times])
    F = SpaceTimeField(grid64, times, vals)
    got = apply_S_div_trajectory(F).values[-1, ..., 0]
    expect = (t_end - (1 - np.exp(-t_end))) * np.cos(x)
    assert np.abs(got - expect).max() < 1e-13


def test_mild_solution_residual_second_order(grid64):
    # (u(t+d) - u(t))/d + Lap^2 u(t+d/2) - f(t+d/2) shrinks at second order
    x = grid64.coordinates()[0]

    def forcing(t):
        return (np.sin(x) * (1 + t))[..., None]

    u0 = GridField(grid64, (0.3 * np.cos(x))[..., None])
    t = 0.2
    resids = []
    for d in (0.02, 0.01):
        times = np.array([0.0, t / 2, t, t + d / 2, t + d])
        f = SpaceTimeField(grid64, times, np.stack([forcing(s) for s in times]))
        u = {s: apply_G(u0, s).values + apply_S(f, s).values for s in (t, t + d / 2, t + d)}
        mid = GridField(grid64, u[t + d / 2])
        resid = ((u[t + d] - u[t]) / d + laplacian(laplacian(mid)).values
                 - forcing(t + d / 2))
        resids.append(np.abs(resid).max())
    assert np.log2(resids[0] / resids[1]) >= 1.8


# ----------------------------------------------------------------------
# phi functions
# ----------------------------------------------------------------------

def test_phi_functions_continuous_across_threshold():
    z = PHI_SERIES_THRESHOLD
    for fn in (phi1, phi2):
        below = fn(np.array(z * (1 - 1e-12)))
        above = fn(np.array(z * (1 + 1e-12)))
        assert abs(float(below) - float(above)) <= 1e-12


def test_phi_limits():
    assert float(phi1(np.array(0.0))) == 1.0
    assert float(phi2(np.array(0.0))) == 0.5
    assert float(phi1(np.array(800.0))) == pytest.approx(1 / 800.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=50.0))
def test_phi_identity(z):
    za = np.array(z)
    assert float(za * phi2(za) + phi1(za)) == pytest.approx(1.0, rel=1e-12)


def _oracle_phi1(z):
    zs = np.where(z < PHI_SERIES_THRESHOLD, 1.0, z)
    closed = (1.0 - np.exp(-zs)) / zs
    series = 1.0 - z / 2.0 + z ** 2 / 6.0 - z ** 3 / 24.0 + z ** 4 / 120.0 - z ** 5 / 720.0
    return np.where(z < PHI_SERIES_THRESHOLD, series, closed)


def _oracle_phi2(z):
    zs = np.where(z < PHI_SERIES_THRESHOLD, 1.0, z)
    closed = (1.0 - (1.0 - np.exp(-zs)) / zs) / zs
    series = 0.5 - z / 6.0 + z ** 2 / 24.0 - z ** 3 / 120.0 + z ** 4 / 720.0 - z ** 5 / 5040.0
    return np.where(z < PHI_SERIES_THRESHOLD, series, closed)


def _oracle_duhamel_sweep(grid, times, spec_frames):
    sym = _oracle_symbol(grid)[..., None]
    out = np.zeros_like(spec_frames)
    acc = np.zeros_like(spec_frames[0])
    for j in range(times.size - 1):
        d = times[j + 1] - times[j]
        z = d * sym
        fa, fb = spec_frames[j], spec_frames[j + 1]
        acc = np.exp(-z) * acc + d * (fa * _oracle_phi1(z) + (fb - fa) * _oracle_phi2(z))
        out[j + 1] = acc
    return out


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32), (3, 16)])
def test_one_exponential_weights_bitwise_equal_separate_formulas(dim, M):
    # e^-z, phi1 and phi2 from one exponential carry the bits of three
    # separate evaluations, on a wide z range and on the sweep's d |k|^4
    g = Grid(dim, 2 * np.pi, M)
    times = 0.5 * (np.arange(9) / 8) ** 4
    zs = [np.geomspace(1e-12, 1e6, 4001),
          *(d * _oracle_symbol(g) for d in np.diff(times))]
    for z in zs:
        decay, p1, p2 = semigroup._decay_and_phis(z)
        assert np.array_equal(decay, np.exp(-z))
        assert np.array_equal(p1, _oracle_phi1(z)) and np.array_equal(phi1(z), p1)
        assert np.array_equal(p2, _oracle_phi2(z)) and np.array_equal(phi2(z), p2)
    rng = _philox(dim)
    shape = (times.size,) + g.shape + (2,)
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.array_equal(semigroup._duhamel_sweep(g, times, spec),
                          _oracle_duhamel_sweep(g, times, spec))


# ----------------------------------------------------------------------
# operator-bound experiment
# ----------------------------------------------------------------------

def test_operator_bounds_finite_and_monotone_under_doubling():
    g = Grid(1, 2 * np.pi, 32)
    times = 0.5 * (np.arange(13) / 12) ** 4
    base = operator_bound_experiment(g, times, 16, seed=3)
    dbl = operator_bound_experiment(g, times, 32, seed=3)
    assert np.isfinite(base["s_over_y1"]) and np.isfinite(base["sdiv_over_y2"])
    # same seed: the doubled ensemble extends the base draw, so maxima grow
    assert dbl["s_over_y1"] >= base["s_over_y1"] - 1e-15
    assert dbl["sdiv_over_y2"] >= base["sdiv_over_y2"] - 1e-15


def test_single_mode_ratio_matches_closed_form_response():
    # measured ratio ||S f||_X / ||f||_Y1 for a time-constant single-mode
    # forcing equals the ratio computed from the closed-form response
    g = Grid(1, 2 * np.pi, 32)
    T = 0.5
    times = T * (np.arange(17) / 16) ** 4
    x = g.coordinates()[0]
    m = 2
    lam = float(m) ** 4
    vals = np.repeat(np.cos(m * x)[None, ..., None], 17, axis=0)
    f = SpaceTimeField(g, times, vals)
    measured = x_norm(apply_S_trajectory(f), T).total / y1_norm(f, T).total
    closed = np.stack([((1 - np.exp(-lam * t)) / lam * np.cos(m * x))[..., None]
                       for t in times])
    oracle = x_norm(SpaceTimeField(g, times, closed), T).total / y1_norm(f, T).total
    assert measured == pytest.approx(oracle, abs=1e-6)
