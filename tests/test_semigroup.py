"""Free evolution, Duhamel operators, phi functions, operator-bound sweeps."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow.errors import TimeMisalignedError
from biflow.fields import (Grid, GridField, SpaceTimeField, Spectrum,
                           inverse_transform, laplacian, multiplier)
from biflow import semigroup
from biflow.kernel import default_profile, eval_kernel
from biflow.norms import x_norm, y1_norm, y2_norm
from biflow.semigroup import (PHI_SERIES_THRESHOLD, apply_G,
                              apply_G_trajectory, apply_S,
                              apply_S_div_trajectory, apply_S_trajectory,
                              operator_bound_experiment, random_band_limited_field,
                              random_forcing)


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


# ----------------------------------------------------------------------
# free evolution
# ----------------------------------------------------------------------

def test_symbol_nonnegative_and_vanishes_only_at_mean_mode():
    for dim in (1, 2):
        g = Grid(dim, 2 * np.pi, 16)
        sym = multiplier(g, "biharmonic")
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


def _half(grid, symbol):
    # the modes of a real transform: the first M/2+1 on the last grid axis
    return symbol[..., : grid.points_per_axis // 2 + 1]


def _oracle_divergence_spectrum(F, real=True):
    # real: scipy's half spectrum, the layer's bits; else numpy's full one
    grid, vals = F.grid, F.values
    axes = tuple(range(1, 1 + grid.dim))
    spec = scipy.fft.rfftn(vals, axes=axes) if real else np.fft.fftn(vals, axes=axes)
    ks = grid.wavenumbers()
    M = grid.points_per_axis
    acc = np.zeros(spec.shape[:-2] + spec.shape[-1:], dtype=complex)
    for ax in range(grid.dim):
        k = ks[ax].copy()
        if M % 2 == 0:
            k[M // 2] = 0.0
        shape = [1] * grid.dim
        shape[ax] = M
        sym = 1j * k.reshape(shape)
        acc += spec[..., ax, :] * (_half(grid, sym) if real else sym)[..., None]
    return acc


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codomain", [1, 3])
def test_symbol_and_divergence_spectrum_bitwise_equal_oracles(dim, codomain):
    g = Grid(dim, 2 * np.pi, 16)
    assert np.array_equal(multiplier(g, "biharmonic"), _half(g, _oracle_symbol(g)))
    r = _philox(10 * dim + codomain)
    F = SpaceTimeField(g, [0.0, 0.1, 0.4], r.normal(size=(3,) + g.shape + (dim, codomain)))
    assert np.array_equal(np.moveaxis(Spectrum(F).divergence(), 0, -1),
                          _oracle_divergence_spectrum(F))


def _oracle_free_frame(u0, t, real=True):
    # the seed's per-time formula: the t = 0 frame is u0 itself, not a round
    # trip; real: scipy's half spectrum, the layer's bits; else numpy's path
    if t == 0.0:
        return u0.values
    grid = u0.grid
    axes = tuple(range(grid.dim))
    if not real:
        spec = np.fft.fftn(u0.values, axes=axes)
        return np.fft.ifftn(spec * np.exp(-t * _oracle_symbol(grid))[..., None], axes=axes).real
    spec = scipy.fft.rfftn(u0.values, axes=axes)
    decay = np.exp(-t * _half(grid, _oracle_symbol(grid)))
    return scipy.fft.irfftn(spec * decay[..., None], s=grid.shape, axes=axes)


@pytest.mark.parametrize("dim", [1, 2, 3])
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
    for idx, t in enumerate(times):
        oracle = _oracle_free_frame(u0, t)
        assert np.array_equal(free.values[idx], oracle)
        assert np.array_equal(apply_G(u0, t).values, oracle)


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
    for t in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidTimeError):
            apply_G(u0, t)
    with pytest.raises(ValueError, match="finite"):
        apply_G_trajectory(u0, [0.0, np.nan, 1.0])


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
    lam = _oracle_symbol(g)
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
    div = np.moveaxis(inverse_transform(grid64, Spectrum(F).divergence()), 0, -1)
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

def _phi1(z):
    return semigroup._decay_and_phis(z)[1]


def _phi2(z):
    return semigroup._decay_and_phis(z)[2]


def test_phi_functions_continuous_across_threshold():
    z = PHI_SERIES_THRESHOLD
    for fn in (_phi1, _phi2):
        below = fn(np.array(z * (1 - 1e-12)))
        above = fn(np.array(z * (1 + 1e-12)))
        assert abs(float(below) - float(above)) <= 1e-12


def test_phi_limits():
    assert float(_phi1(np.array(0.0))) == 1.0
    assert float(_phi2(np.array(0.0))) == 0.5
    assert float(_phi1(np.array(800.0))) == pytest.approx(1 / 800.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=50.0))
def test_phi_identity(z):
    za = np.array(z)
    assert float(za * _phi2(za) + _phi1(za)) == pytest.approx(1.0, rel=1e-12)


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


def _oracle_duhamel_sweep(grid, times, spec_frames, real=True):
    # real: a half spectrum, the layer's modes; else numpy's full one
    sym = _oracle_symbol(grid)
    sym = (_half(grid, sym) if real else sym)[..., None]
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
        assert np.array_equal(p1, _oracle_phi1(z)) and np.array_equal(_phi1(z), p1)
        assert np.array_equal(p2, _oracle_phi2(z)) and np.array_equal(_phi2(z), p2)
    rng = _philox(dim)
    shape = (times.size,) + g.shape[:-1] + (M // 2 + 1, 2)  # a half spectrum
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # the sweep takes and gives component-major coefficients
    swept = semigroup.duhamel_sweep(g, times, np.moveaxis(spec, -1, 0))
    assert np.array_equal(np.moveaxis(swept, 0, -1), _oracle_duhamel_sweep(g, times, spec))


def test_sweep_table_is_built_once_per_grid_and_times_and_read_only():
    # a solve's sweeps all run over one grid and one set of frame times: the
    # second sweep reads the first one's table, with the same bits
    g = Grid(2, 2 * np.pi, 16)
    times = 0.5 * (np.arange(9) / 8) ** 4
    rng = _philox(2)
    shape = (times.size,) + g.shape[:-1] + (9, 3)
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    semigroup._sweep_table.cache_clear()
    for _ in range(2):
        swept = semigroup.duhamel_sweep(g, times, np.moveaxis(spec, -1, 0))
        assert np.array_equal(np.moveaxis(swept, 0, -1), _oracle_duhamel_sweep(g, times, spec))
    info = semigroup._sweep_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    table = semigroup._sweep_table(g, tuple(times.tolist()))
    assert len(table) == times.size - 1
    assert not any(a.flags.writeable for row in table for a in row)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codomain", [1, 3])
def test_real_path_oracles_agree_with_the_complex_path(dim, codomain):
    # the half-spectrum oracles move numpy's complex path, which the layer
    # ran before, by round-off only
    g = Grid(dim, 2 * np.pi, 16)
    r = _philox(10 * dim + codomain)
    F = SpaceTimeField(g, [0.0, 0.1, 0.4], r.normal(size=(3,) + g.shape + (dim, codomain)))
    half = _oracle_divergence_spectrum(F)
    full = _oracle_divergence_spectrum(F, real=False)[..., : g.points_per_axis // 2 + 1, :]
    assert np.abs(half - full).max() <= 1e-13 * np.abs(half).max()
    u0 = GridField(g, r.normal(size=g.shape + (codomain,)))
    for t in (1e-4, 0.01, 0.4):
        want = _oracle_free_frame(u0, t)
        assert np.abs(want - _oracle_free_frame(u0, t, real=False)).max() <= (
            1e-13 * np.abs(want).max())
    times = 0.4 * (np.arange(9) / 8) ** 4
    f = random_forcing(g, times, r, codomain_dim=codomain)
    axes = tuple(range(1, 1 + dim))
    half = _oracle_duhamel_sweep(g, times, scipy.fft.rfftn(f.values, axes=axes))
    full = _oracle_duhamel_sweep(g, times, np.fft.fftn(f.values, axes=axes), real=False)
    want = scipy.fft.irfftn(half, s=g.shape, axes=axes)
    assert np.abs(want - np.fft.ifftn(full, axes=axes).real).max() <= 1e-13 * np.abs(want).max()


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


@pytest.mark.parametrize("size", [3, 4])
def test_doubled_ensemble_first_half_is_the_base_ensemble(size):
    # same seed: the 2N draw starts with the N members, so its first half
    # reproduces every figure of the N-member call
    g = Grid(1, 2 * np.pi, 32)
    times = 0.5 * (np.arange(13) / 12) ** 4
    base = operator_bound_experiment(g, times, size, seed=3)
    dbl = operator_bound_experiment(g, times, 2 * size, seed=3)
    assert base.pop("first_half") is not None
    assert dbl["first_half"] == base
    assert sorted(base) == ["ensemble_size", "excluded", "s_over_y1", "sdiv_over_y2"]


def test_single_member_ensemble_has_no_first_half():
    g = Grid(1, 2 * np.pi, 32)
    times = 0.5 * (np.arange(13) / 12) ** 4
    one = operator_bound_experiment(g, times, 1, seed=3)
    assert one["first_half"] is None
    assert one["ensemble_size"] == 1 and np.isfinite(one["s_over_y1"])


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


def _oracle_band_limited_values(grid, rng, max_mode, codomain_dim):
    # the per-mode loop: one full-grid cosine per mode, added in draw order
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
    return vals


def _oracle_random_forcing(grid, times, rng, max_mode=3, codomain_dim=1, per_axis=False):
    # one band-limited field per axis (or one), then the envelope draws
    times = np.asarray(times, dtype=float)
    shapes = [_oracle_band_limited_values(grid, rng, max_mode, codomain_dim)
              for _ in range(grid.dim if per_axis else 1)]
    T = times[-1] if times[-1] > 0 else 1.0
    c0, c1v, c2 = rng.uniform(0.25, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    envelope = c0 + c1v * (times / T) + c2 * (times / T) ** 2
    base = np.stack(shapes, axis=-2) if per_axis else shapes[0]
    return SpaceTimeField(grid, times, envelope[(...,) + (None,) * base.ndim] * base[None, ...])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codomain", [1, 2, 3])
@pytest.mark.parametrize("per_axis", [False, True])
def test_random_forcing_bitwise_equals_the_per_mode_loop(dim, codomain, per_axis):
    g = Grid(dim, 2 * np.pi, 16)
    times = 0.5 * (np.arange(5) / 4) ** 4
    for max_mode in (1, 3):
        seed = 100 * dim + 10 * codomain + max_mode
        want = _oracle_random_forcing(g, times, _philox(seed), max_mode, codomain, per_axis)
        got = random_forcing(g, times, _philox(seed), max_mode, codomain, per_axis)
        assert got.values.shape == want.values.shape
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(np.signbit(got.values), np.signbit(want.values))


@pytest.mark.parametrize("max_mode", [0, -1, 8, 9, 20])
def test_degenerate_max_mode_is_rejected_by_every_draw(max_mode):
    # 2 max_mode <= 0 modes would give an all-zero forcing, and a mode at or
    # above M/2 aliases onto a lower one (at 16 on 16 points, onto mode 0)
    g = Grid(2, 2 * np.pi, 16)
    message = (f"^max_mode must be at least 1, got {max_mode}" if max_mode < 1 else
               f"^max_mode must lie below 8 on the 16-point grid, got {max_mode}")
    with pytest.raises(ValueError, match=message):
        random_forcing(g, [0.0, 0.1], _philox(0), max_mode=max_mode)
    with pytest.raises(ValueError, match=message):
        random_forcing(g, [0.0, 0.1], _philox(0), max_mode=max_mode, per_axis=True)
    with pytest.raises(ValueError, match=message):
        random_band_limited_field(g, _philox(0), max_mode=max_mode)
    with pytest.raises(ValueError, match=message):
        operator_bound_experiment(g, [0.0, 0.1], 2, seed=0, max_mode=max_mode)


def test_the_highest_admitted_mode_keeps_its_spectrum():
    # max_mode = M/2 - 1 is drawn as asked: the field's spectrum lies on
    # |m| <= max_mode and is not constant
    g = Grid(1, 2 * np.pi, 16)
    f = random_band_limited_field(g, _philox(3), max_mode=7)
    power = np.abs(scipy.fft.rfft(f.values[:, 0])) ** 2
    assert power[8:].max() <= 1e-24 * power.max()
    assert power[1:].max() > 0


def _oracle_operator_bound_experiment(grid, times, ensemble_size, seed, max_mode=3):
    # the seed's ensemble loop: one member, one sweep and one x_norm at a time,
    # each forcing drawn by the per-mode loop
    T = float(times[-1])
    rng = _philox(seed)
    ratios_s, ratios_div = [], []
    for _ in range(ensemble_size):
        f = _oracle_random_forcing(grid, times, rng, max_mode=max_mode)
        y1 = y1_norm(f, T).total
        ratios_s.append(x_norm(apply_S_trajectory(f), T).total / y1 if y1 > 0 else None)
        F = _oracle_random_forcing(grid, times, rng, max_mode=max_mode, per_axis=True)
        y2 = y2_norm(F, T).total
        ratios_div.append(x_norm(apply_S_div_trajectory(F), T).total / y2 if y2 > 0 else None)

    def figures(size):
        s = [r for r in ratios_s[:size] if r is not None]
        d = [r for r in ratios_div[:size] if r is not None]
        return {"s_over_y1": float(np.max(s)), "sdiv_over_y2": float(np.max(d)),
                "ensemble_size": size, "excluded": 2 * size - len(s) - len(d)}

    report = figures(ensemble_size)
    report["first_half"] = figures(ensemble_size // 2) if ensemble_size >= 2 else None
    return report


@pytest.mark.parametrize("dim, M, frames, size, seed, stacks", [
    (1, 32, 13, 7, 0, 1),
    (1, 32, 13, 8, 5, 1),
    (1, 32, 13, 128, 0, 1),  # the operators suite: one stack
    (2, 16, 9, 5, 5, 1),
    (2, 16, 9, 6, 0, 1),
    (3, 16, 5, 3, 0, 1),
    (3, 16, 5, 4, 5, 2),     # 3 members per stack: 3 + 1
    (2, 32, 13, 10, 3, 3),   # 4 members per stack: 4 + 4 + 2
])
def test_stacked_ensemble_equals_the_member_loop_oracle(monkeypatch, dim, M, frames, size,
                                                        seed, stacks):
    g = Grid(dim, 2 * np.pi, M)
    times = 0.5 * (np.arange(frames) / (frames - 1)) ** 4
    want = _oracle_operator_bound_experiment(g, times, size, seed)
    sweeps = []
    monkeypatch.setattr(semigroup, "apply_S_trajectory",
                        lambda f: sweeps.append(f.codomain_dim) or apply_S_trajectory(f))
    assert operator_bound_experiment(g, times, size, seed) == want  # bitwise, first_half too
    assert len(sweeps) == stacks and sum(sweeps) == size


def test_ensemble_peak_memory_does_not_grow_past_one_stack():
    # 2D, M=32, 13 frames: 4 members per stack; 32 members are 8 stacks, and
    # the scan holds one at a time
    g = Grid(2, 2 * np.pi, 32)
    times = 0.5 * (np.arange(13) / 12) ** 4
    operator_bound_experiment(g, times, 1, seed=0)  # fills the lattice caches
    peaks = {}
    for size in (4, 32):
        tracemalloc.start()
        try:
            operator_bound_experiment(g, times, size, seed=0)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] <= 1.25 * peaks[4]


@pytest.mark.parametrize("size, max_mode, message", [
    (0, 3, "ensemble_size must be at least 1, got 0"),
    (-1, 3, "ensemble_size must be at least 1, got -1"),
    (4, 0, "max_mode must be at least 1, got 0"),
    (4, -1, "max_mode must be at least 1, got -1"),
])
def test_empty_ensemble_is_rejected_before_any_draw(monkeypatch, size, max_mode, message):
    # max_mode <= 0 draws only zero forcings, so every member would be
    # excluded; both cases used to end in numpy's zero-size maximum error.
    # A draw is recorded once it returns: no mode is drawn in either case
    g = Grid(1, 2 * np.pi, 32)
    times = 0.5 * (np.arange(13) / 12) ** 4
    draws = []
    draw_modes = semigroup._draw_modes
    monkeypatch.setattr(semigroup, "_draw_modes",
                        lambda *a: draws.append(draw_modes(*a)) or draws[-1])
    with pytest.raises(ValueError, match=f"^{message}"):
        operator_bound_experiment(g, times, size, seed=0, max_mode=max_mode)
    assert draws == []
    operator_bound_experiment(g, times, 1, seed=0)
    assert len(draws) == 2  # the spy sees a member's f and F draws


def test_operators_suite_peak_memory_stays_at_the_member_loop_level():
    # the operators-suite input, one stack of 128 members: the member loop
    # this scan replaced peaked at 4.71 MB; the scan frees the spectrum,
    # gradient and Hessian of a response once their magnitudes exist
    g = Grid(1, 2 * np.pi, 32)
    times = 0.5 * (np.arange(13) / 12) ** 4
    operator_bound_experiment(g, times, 1, seed=0)  # fills the lattice caches
    tracemalloc.start()
    try:
        operator_bound_experiment(g, times, 128, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 4.71e6
