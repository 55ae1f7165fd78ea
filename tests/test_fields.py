"""Grids, spectral calculus, lattice balls, field I/O."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow.fields import (Grid, GridField, SpaceTimeField, Spectrum,
                           ball_convolve, ball_mask, ball_offsets, gradient,
                           hessian, laplacian, load_space_time_field,
                           multiplier, save_space_time_field,
                           spectral_derivative, spectral_divergence)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(1, 1.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 1.0, 8)   # too coarse
    with pytest.raises(ValueError):
        Grid(4, 1.0, 32)
    g = Grid(2, 4.0, 32)
    assert g.spacing == 0.125
    assert g.shape == (32, 32)
    assert g.cell_volume == pytest.approx(0.125 ** 2)


def test_constant_derivative_is_zero(grid64):
    f = GridField.constant(grid64, [3.0, -1.0])
    for order in [(1,), (2,), (3,), (4,)]:
        assert np.abs(spectral_derivative(f, order).values).max() < 1e-12


def test_eigenfunction_second_derivative(grid64):
    L = grid64.box_length
    x = grid64.coordinates()[0]
    f = GridField(grid64, np.sin(2 * np.pi * x / L)[..., None])
    d2 = spectral_derivative(f, (2,))
    expect = -(2 * np.pi / L) ** 2 * np.sin(2 * np.pi * x / L)
    assert np.abs(d2.values[..., 0] - expect).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_mixed_derivatives_commute(seed):
    g = Grid(2, 2 * np.pi, 16)
    r = np.random.Generator(np.random.Philox(seed))
    x, y = g.coordinates()
    vals = np.zeros(g.shape + (1,))
    for _ in range(4):
        mx, my = r.integers(-3, 4, size=2)
        vals[..., 0] += r.normal() * np.cos(mx * x + my * y + r.uniform(0, 2 * np.pi))
    f = GridField(g, vals)
    ab = spectral_derivative(spectral_derivative(f, (1, 0)), (0, 1))
    ba = spectral_derivative(spectral_derivative(f, (0, 1)), (1, 0))
    assert np.abs(ab.values - ba.values).max() < 1e-11


def test_gradient_hessian_laplacian_consistency(grid64):
    x = grid64.coordinates()[0]
    f = GridField(grid64, np.cos(3 * x)[..., None])
    g = gradient(f)
    h = hessian(f)
    lap = laplacian(f)
    assert np.abs(g[..., 0, 0] + 3 * np.sin(3 * x)).max() < 1e-11
    assert np.abs(h[..., 0, 0, 0] - lap.values[..., 0]).max() < 1e-11


# ----------------------------------------------------------------------
# the spectral layer against the per-derivative transforms it replaced:
# one transform and one multiplier build per derivative, kept as oracles
# ----------------------------------------------------------------------

def _oracle_axes(grid, values):
    offset = values.ndim - grid.dim - 1
    return tuple(range(offset, offset + grid.dim))


def _oracle_multiplier(grid, order):
    M = grid.points_per_axis
    mult = np.ones((M,) * grid.dim, dtype=complex)
    ks = grid.wavenumbers()
    for ax, o in enumerate(order):
        if o == 0:
            continue
        k = ks[ax].copy()
        if o % 2 == 1 and M % 2 == 0:
            k[M // 2] = 0.0
        shape = [1] * grid.dim
        shape[ax] = M
        mult = mult * (1j * k.reshape(shape)) ** o
    return mult


def _oracle_derivative(f, order):
    axes = _oracle_axes(f.grid, f.values)
    spec = np.fft.fftn(f.values, axes=axes)
    spec *= _oracle_multiplier(f.grid, order)[..., None]
    return np.fft.ifftn(spec, axes=axes).real


def _oracle_gradient(f):
    g = f.grid
    axes = _oracle_axes(g, f.values)
    spec = np.fft.fftn(f.values, axes=axes)
    out = np.empty(g.shape + (g.dim, f.codomain_dim))
    for ax in range(g.dim):
        order = tuple(1 if a == ax else 0 for a in range(g.dim))
        out[..., ax, :] = np.fft.ifftn(spec * _oracle_multiplier(g, order)[..., None],
                                       axes=axes).real
    return out


def _oracle_hessian(f):
    g = f.grid
    axes = _oracle_axes(g, f.values)
    spec = np.fft.fftn(f.values, axes=axes)
    out = np.empty(g.shape + (g.dim, g.dim, f.codomain_dim))
    for a in range(g.dim):
        for b in range(a, g.dim):
            order = tuple((1 if c == a else 0) + (1 if c == b else 0)
                          for c in range(g.dim))
            comp = np.fft.ifftn(spec * _oracle_multiplier(g, order)[..., None],
                                axes=axes).real
            out[..., a, b, :] = comp
            if b != a:
                out[..., b, a, :] = comp
    return out


def _oracle_laplacian(f):
    g = f.grid
    axes = _oracle_axes(g, f.values)
    spec = np.fft.fftn(f.values, axes=axes)
    ks = g.wavenumbers()
    ksq = np.zeros(g.shape)
    for ax in range(g.dim):
        shape = [1] * g.dim
        shape[ax] = g.points_per_axis
        ksq = ksq + ks[ax].reshape(shape) ** 2
    return np.fft.ifftn(spec * (-ksq)[..., None], axes=axes).real


def _oracle_divergence(F):
    g = F.grid
    axes = tuple(range(g.dim))
    spec = np.fft.fftn(F.values, axes=axes)
    acc = np.zeros(g.shape + (F.values.shape[-1],), dtype=complex)
    for ax in range(g.dim):
        order = tuple(1 if a == ax else 0 for a in range(g.dim))
        acc += spec[..., ax, :] * _oracle_multiplier(g, order)[..., None]
    return np.fft.ifftn(acc, axes=axes).real


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codomain", [1, 3])
def test_spectral_layer_bitwise_equals_oracles(dim, codomain):
    g = Grid(dim, 2 * np.pi, 16)
    r = np.random.Generator(np.random.Philox(10 * dim + codomain))
    f = GridField(g, r.normal(size=g.shape + (codomain,)))
    assert np.array_equal(gradient(f), _oracle_gradient(f))
    assert np.array_equal(hessian(f), _oracle_hessian(f))
    assert np.array_equal(laplacian(f).values, _oracle_laplacian(f))
    F = GridField(g, r.normal(size=g.shape + (dim, codomain)))
    assert np.array_equal(spectral_divergence(F).values, _oracle_divergence(F))
    for order in itertools.product(range(5), repeat=dim):
        if sum(order) <= 4:
            assert np.array_equal(spectral_derivative(f, order).values,
                                  _oracle_derivative(f, order))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stack_derivatives_equal_per_frame_derivatives(dim):
    g = Grid(dim, 2 * np.pi, 16)
    r = np.random.Generator(np.random.Philox(dim))
    times = [0.0, 0.1, 0.3]
    u = SpaceTimeField(g, times, r.normal(size=(3,) + g.shape + (3,)))
    F = SpaceTimeField(g, times, r.normal(size=(3,) + g.shape + (dim, 3)))
    spec, spec_F = Spectrum(u), Spectrum(F)
    grad, hess = spec.gradient(), spec.hessian()
    lap, div = spec.derivative("laplacian"), spec_F.divergence()
    for j in range(3):
        frame = Spectrum(u.frame(j))
        assert np.array_equal(grad[j], frame.gradient())
        assert np.array_equal(hess[j], frame.hessian())
        assert np.array_equal(lap[j], frame.derivative("laplacian"))
        assert np.array_equal(div[j], Spectrum(F.frame(j)).divergence())


def test_multipliers_are_cached_and_read_only():
    g = Grid(2, 2 * np.pi, 16)
    for order in [(1, 0), (1, 1), (0, 3), (2, 2), "laplacian"]:
        m = multiplier(g, order)
        assert multiplier(Grid(2, 2 * np.pi, 16), order) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_divergence_needs_one_component_per_axis():
    g = Grid(2, 2 * np.pi, 16)
    with pytest.raises(ValueError):
        spectral_divergence(GridField(g, np.ones(g.shape + (3, 1))))


def test_divergence_of_constants_vanishes(grid64):
    F = GridField(grid64, np.ones(grid64.shape + (1, 2)))
    assert np.abs(spectral_divergence(F).values).max() < 1e-13


def test_field_immutability(grid64):
    f = GridField.constant(grid64, [1.0])
    with pytest.raises(Exception):
        f.values[0] = 2.0
    with pytest.raises(AttributeError):
        f.values = None


def test_field_requires_finite_values(grid64):
    bad = np.ones(grid64.shape + (1,))
    bad[0] = np.nan
    with pytest.raises(ValueError):
        GridField(grid64, bad)


def test_space_time_field_validation(grid64):
    vals = np.zeros((3,) + grid64.shape + (1,))
    with pytest.raises(ValueError):
        SpaceTimeField(grid64, [0.1, 0.2, 0.3], vals)  # must start at 0
    with pytest.raises(ValueError):
        SpaceTimeField(grid64, [0.0, 0.2, 0.2], vals)  # strictly increasing
    f = SpaceTimeField(grid64, [0.0, 0.2, 0.5], vals)
    assert f.num_frames == 3 and f.frame(1).grid == grid64


def test_ball_offsets_periodic(grid64):
    offs = ball_offsets(grid64, 3 * grid64.spacing)
    assert sorted(o[0] for o in offs) == [-3, -2, -1, 0, 1, 2, 3]
    with pytest.raises(ValueError):
        ball_offsets(grid64, grid64.box_length)


def test_ball_convolve_matches_direct_sum(rng):
    g = Grid(2, 2 * np.pi, 16)
    field = rng.normal(size=g.shape)
    r = 3.2 * g.spacing
    conv = ball_convolve(g, field, r)
    offs = ball_offsets(g, r)
    direct = np.zeros(g.shape)
    for i in range(16):
        for j in range(16):
            acc = 0.0
            for o in offs:
                acc += field[(i + o[0]) % 16, (j + o[1]) % 16]
            direct[i, j] = acc
    assert np.abs(conv - direct).max() < 1e-10
    assert ball_mask(g, r).sum() == offs.shape[0]


def test_io_round_trip(tmp_path, grid64, rng):
    times = np.array([0.0, 0.1, 0.5])
    vals = rng.normal(size=(3,) + grid64.shape + (2,))
    f = SpaceTimeField(grid64, times, vals)
    names = save_space_time_field(f, tmp_path)
    assert set(names) == {"field_meta.json", "frames.f64"}
    back = load_space_time_field(tmp_path)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.times, f.times)
    assert back.grid == grid64
