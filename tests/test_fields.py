"""Grids, spectral calculus, lattice balls, field I/O."""

import itertools

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow import semigroup
from biflow.fields import (Grid, GridField, SpaceTimeField, Spectrum,
                           ball_convolve, ball_offsets, components_first, gradient,
                           hessian, inverse_transform, laplacian,
                           load_space_time_field, multiplier,
                           pointwise_norm, save_space_time_field)
from biflow.semigroup import apply_G_trajectory, apply_S_trajectory


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(1, 1.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 1.0, 8)   # too coarse
    with pytest.raises(ValueError):
        Grid(4, 1.0, 32)
    for length in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Grid(1, length, 64)
    g = Grid(2, 4.0, 32)
    assert g.spacing == 0.125
    assert g.shape == (32, 32)
    assert g.cell_volume == pytest.approx(0.125 ** 2)


@pytest.mark.parametrize("name", ["dim", "points_per_axis"])
def test_grid_rejects_a_count_that_is_not_an_integer(name):
    # 64.0 points used to fail in the power-of-two bit test, and dim 1.0 passed
    args = {"dim": 1, "box_length": 1.0, "points_per_axis": 64}
    args[name] = float(args[name])
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {args[name]}$"):
        Grid(**args)
    assert Grid(np.int64(1), 1.0, np.int32(64)).shape == (64,)


def test_constant_derivative_is_zero(grid64):
    f = GridField.constant(grid64, [3.0, -1.0])
    for order in [(1,), (2,), (3,), (4,)]:
        assert np.abs(Spectrum(f).derivative(order)).max() < 1e-12


def test_eigenfunction_second_derivative(grid64):
    L = grid64.box_length
    x = grid64.coordinates()[0]
    f = GridField(grid64, np.sin(2 * np.pi * x / L)[..., None])
    d2 = np.moveaxis(Spectrum(f).derivative((2,)), 0, -1)
    expect = -(2 * np.pi / L) ** 2 * np.sin(2 * np.pi * x / L)
    assert np.abs(d2[..., 0] - expect).max() < 1e-12


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
    a = GridField(g, np.moveaxis(Spectrum(f).derivative((1, 0)), 0, -1))
    b = GridField(g, np.moveaxis(Spectrum(f).derivative((0, 1)), 0, -1))
    ab = Spectrum(a).derivative((0, 1))
    ba = Spectrum(b).derivative((1, 0))
    assert np.abs(ab - ba).max() < 1e-11


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
# one transform and one multiplier build per derivative, kept as oracles.
# They run on scipy's real transforms over the first M/2+1 columns of their
# own symbols, as the layer does, and are checked against numpy's complex
# path, which the layer ran before.
# ----------------------------------------------------------------------

class _RealPath:
    """Half-spectrum transforms: the bits the layer must reproduce."""

    @staticmethod
    def forward(values, axes):
        return scipy.fft.rfftn(values, axes=axes)

    @staticmethod
    def inverse(grid, coeffs, axes):
        return scipy.fft.irfftn(coeffs, s=grid.shape, axes=axes)

    @staticmethod
    def modes(grid, symbol):
        return symbol[..., : grid.points_per_axis // 2 + 1]


class _ComplexPath:
    """numpy's full-spectrum transforms, for the cross-checks."""

    @staticmethod
    def forward(values, axes):
        return np.fft.fftn(values, axes=axes)

    @staticmethod
    def inverse(grid, coeffs, axes):
        return np.fft.ifftn(coeffs, axes=axes).real

    @staticmethod
    def modes(grid, symbol):
        return symbol


def _oracle_axes(grid, values):
    offset = values.ndim - grid.dim - 1
    return tuple(range(offset, offset + grid.dim))


def _oracle_multiplier(grid, order):
    # the full-spectrum symbol, from the wavenumbers alone
    M = grid.points_per_axis
    ks = grid.wavenumbers()
    if order in ("laplacian", "biharmonic"):
        ksq = np.zeros(grid.shape)
        for ax in range(grid.dim):
            shape = [1] * grid.dim
            shape[ax] = M
            ksq = ksq + ks[ax].reshape(shape) ** 2
        return -ksq if order == "laplacian" else (-ksq) ** 2
    mult = np.ones((M,) * grid.dim, dtype=complex)
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


def _oracle_derivative(f, order, path=_RealPath):
    axes = _oracle_axes(f.grid, f.values)
    spec = path.forward(f.values, axes)
    spec *= path.modes(f.grid, _oracle_multiplier(f.grid, order))[..., None]
    return path.inverse(f.grid, spec, axes)


def _oracle_gradient(f, path=_RealPath):
    g = f.grid
    axes = _oracle_axes(g, f.values)
    spec = path.forward(f.values, axes)
    out = np.empty(g.shape + (g.dim, f.codomain_dim))
    for ax in range(g.dim):
        order = tuple(1 if a == ax else 0 for a in range(g.dim))
        out[..., ax, :] = path.inverse(
            g, spec * path.modes(g, _oracle_multiplier(g, order))[..., None], axes)
    return out


def _oracle_hessian(f, path=_RealPath):
    g = f.grid
    axes = _oracle_axes(g, f.values)
    spec = path.forward(f.values, axes)
    out = np.empty(g.shape + (g.dim, g.dim, f.codomain_dim))
    for a in range(g.dim):
        for b in range(a, g.dim):
            order = tuple((1 if c == a else 0) + (1 if c == b else 0)
                          for c in range(g.dim))
            comp = path.inverse(
                g, spec * path.modes(g, _oracle_multiplier(g, order))[..., None], axes)
            out[..., a, b, :] = comp
            if b != a:
                out[..., b, a, :] = comp
    return out


def _oracle_laplacian(f, path=_RealPath):
    g = f.grid
    axes = _oracle_axes(g, f.values)
    spec = path.forward(f.values, axes)
    return path.inverse(g, spec * path.modes(g, _oracle_multiplier(g, "laplacian"))[..., None],
                        axes)


def _oracle_divergence(F, path=_RealPath):
    g = F.grid
    axes = tuple(range(g.dim))
    spec = path.forward(F.values, axes)
    acc = np.zeros(spec.shape[:-2] + spec.shape[-1:], dtype=complex)
    for ax in range(g.dim):
        order = tuple(1 if a == ax else 0 for a in range(g.dim))
        acc += spec[..., ax, :] * path.modes(g, _oracle_multiplier(g, order))[..., None]
    return path.inverse(g, acc, axes)


def _spectral_oracles(f, F, path):
    # (name, oracle) pairs of every derivative the layer gives, in one order
    yield "gradient", _oracle_gradient(f, path)
    yield "hessian", _oracle_hessian(f, path)
    yield "laplacian", _oracle_laplacian(f, path)
    yield "divergence", _oracle_divergence(F, path)
    for order in itertools.product(range(5), repeat=f.grid.dim):
        if sum(order) <= 4:
            yield order, _oracle_derivative(f, order, path)


def _random_fields(dim, codomain):
    g = Grid(dim, 2 * np.pi, 16)
    r = np.random.Generator(np.random.Philox(10 * dim + codomain))
    f = GridField(g, r.normal(size=g.shape + (codomain,)))
    F = GridField(g, r.normal(size=g.shape + (dim, codomain)))
    return f, F


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codomain", [1, 3])
def test_spectral_layer_bitwise_equals_oracles(dim, codomain):
    f, F = _random_fields(dim, codomain)
    g = f.grid
    got = {"gradient": gradient(f), "hessian": hessian(f), "laplacian": laplacian(f).values,
           "divergence": np.moveaxis(inverse_transform(g, Spectrum(F).divergence()), 0, -1)}
    for name, want in _spectral_oracles(f, F, _RealPath):
        assert np.array_equal(got[name] if name in got
                              else np.moveaxis(Spectrum(f).derivative(name), 0, -1), want)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codomain", [1, 3])
def test_real_path_oracles_agree_with_the_complex_path(dim, codomain):
    # the real transforms move each derivative by round-off only
    f, F = _random_fields(dim, codomain)
    complex_path = dict(_spectral_oracles(f, F, _ComplexPath))
    for name, want in _spectral_oracles(f, F, _RealPath):
        scale = np.abs(want).max()
        assert np.abs(want - complex_path[name]).max() <= 1e-13 * scale, name


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stack_derivatives_equal_per_frame_derivatives(dim):
    g = Grid(dim, 2 * np.pi, 16)
    r = np.random.Generator(np.random.Philox(dim))
    times = [0.0, 0.1, 0.3]
    u = SpaceTimeField(g, times, r.normal(size=(3,) + g.shape + (3,)))
    F = SpaceTimeField(g, times, r.normal(size=(3,) + g.shape + (dim, 3)))
    spec, spec_F = Spectrum(u), Spectrum(F)
    # the frame axis of each stacked derivative moved to the front
    grad, hess = np.moveaxis(spec.gradient(), 2, 0), np.moveaxis(spec.hessian(), 3, 0)
    lap = np.moveaxis(spec.derivative("laplacian"), 1, 0)
    div = np.moveaxis(spec_F.divergence(), 1, 0)
    for j in range(3):
        frame = Spectrum(u.frame(j))
        assert np.array_equal(grad[j], frame.gradient())
        assert np.array_equal(hess[j], frame.hessian())
        assert np.array_equal(lap[j], frame.derivative("laplacian"))
        assert np.array_equal(div[j], Spectrum(F.frame(j)).divergence())


# ----------------------------------------------------------------------
# the component-major layout against the field layout the layer had before:
# grid axes, then the components.  The same transforms and products, laid
# out the other way, must give the same bits.
# ----------------------------------------------------------------------

class _FieldLayoutSpectrum:
    """The spectral layer in field layout: coefficients [frames +]
    half-grid + components, derivative axes before the components."""

    def __init__(self, values, grid, lead):
        self.grid, self.axes = grid, tuple(range(lead, lead + grid.dim))
        self.comps = values.ndim - lead - grid.dim
        self.coeffs = scipy.fft.rfftn(values, axes=self.axes)

    def _mult(self, order, comps):
        return multiplier(self.grid, order)[(...,) + (None,) * comps]

    def derivative(self, order):
        return scipy.fft.irfftn(self.coeffs * self._mult(order, self.comps), s=self.grid.shape,
                                axes=self.axes)

    def gradient(self):
        n = self.grid.dim
        return np.stack([self.derivative(_unit_order(n, a)) for a in range(n)], axis=-2)

    def hessian(self):
        n = self.grid.dim
        rows = [[self.derivative(_unit_order(n, min(a, b), max(a, b))) for b in range(n)]
                for a in range(n)]
        return np.stack([np.stack(r, axis=-2) for r in rows], axis=-3)

    def divergence(self):
        acc = np.zeros(self.coeffs.shape[:-2] + self.coeffs.shape[-1:], dtype=complex)
        for a in range(self.grid.dim):
            acc += self.coeffs[..., a, :] * self._mult(_unit_order(self.grid.dim, a), 1)
        return acc


def _unit_order(n, *axes):
    return tuple(axes.count(a) for a in range(n))


def _rotated_values(grid, shape, seed):
    # random values whose codomain is rotated, so no component is zero
    r = np.random.Generator(np.random.Philox(seed))
    q, _ = np.linalg.qr(r.normal(size=(shape[-1], shape[-1])))
    return (r.normal(size=shape) + 2.0) @ q.T


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("lead", [0, 1], ids=["frame", "stack"])
def test_component_major_layer_bitwise_equals_the_field_layout(dim, lead):
    g = Grid(dim, 2 * np.pi, 16)
    frames = (3,) if lead else ()
    vals = _rotated_values(g, frames + g.shape + (4,), dim)
    flux = _rotated_values(g, frames + g.shape + (dim, 3), 10 + dim)
    make = (lambda v: SpaceTimeField(g, [0.0, 0.1, 0.3], v)) if lead else (
        lambda v: GridField(g, v))
    new, old = Spectrum(make(vals)), _FieldLayoutSpectrum(vals, g, lead)
    new_F, old_F = Spectrum(make(flux)), _FieldLayoutSpectrum(flux, g, lead)
    assert np.all(vals != 0.0) and np.all(flux != 0.0)
    assert np.array_equal(np.moveaxis(new.coeffs, 0, -1), old.coeffs)
    assert np.array_equal(np.moveaxis(new_F.coeffs, (0, 1), (-2, -1)), old_F.coeffs)
    assert np.array_equal(np.moveaxis(new.gradient(), (0, 1), (-2, -1)), old.gradient())
    assert np.array_equal(np.moveaxis(new.hessian(), (0, 1, 2), (-3, -2, -1)), old.hessian())
    assert np.array_equal(np.moveaxis(new_F.divergence(), 0, -1), old_F.divergence())
    for order in ["laplacian", *itertools.product(range(3), repeat=dim)]:
        assert np.array_equal(np.moveaxis(new.derivative(order), 0, -1), old.derivative(order))
        assert np.array_equal(np.moveaxis(new_F.derivative(order), (0, 1), (-2, -1)),
                              old_F.derivative(order))


@pytest.mark.parametrize("comps", [(1,), (7,), (8,), (3, 3), (2, 2, 3), (3, 3, 3)],
                         ids=lambda c: f"k{np.prod(c)}")
def test_pointwise_norm_adds_components_as_a_contiguous_trailing_sum(comps):
    # k = 1, 7, 8, 9, 12 and 27 terms: the 3D gradient, the 2D and 3D
    # Hessian.  The squares are added left to right from 0.0, whatever the
    # layout of the input; numpy's sum over a contiguous trailing axis, which
    # is pairwise from 8 terms on, is the same sum to round-off
    g = Grid(2, 2 * np.pi, 16)
    r = np.random.Generator(np.random.Philox(len(comps)))
    shape = comps + (5,) + g.shape
    x = r.normal(size=shape) * 10.0 ** r.integers(-4, 5, size=shape)
    c = len(comps)
    acc = 0.0
    for block in x.reshape((-1,) + x.shape[c:]):
        acc = acc + block ** 2
    got = pointwise_norm(x, g, lead=1)
    assert np.array_equal(got, np.sqrt(acc))
    field_layout = np.ascontiguousarray(np.moveaxis(x, range(c), range(-c, 0)))
    assert np.array_equal(pointwise_norm(components_first(field_layout, c), g, lead=1), got)
    want = np.sqrt((field_layout ** 2).sum(axis=tuple(range(1 + g.dim, field_layout.ndim))))
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_multipliers_are_cached_and_read_only():
    g = Grid(2, 2 * np.pi, 16)
    for order in [(1, 0), (1, 1), (0, 3), (2, 2), "laplacian"]:
        m = multiplier(g, order)
        assert multiplier(Grid(2, 2 * np.pi, 16), order) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_multiplier_is_the_half_spectrum_of_the_full_spectrum_symbol(dim):
    # every symbol is built on the M/2+1 modes of a real transform alone,
    # with the bits of the first M/2+1 columns of the full-spectrum symbol
    g = Grid(dim, 2 * np.pi, 16)
    for order in [*itertools.product(range(4), repeat=dim), "laplacian", "biharmonic"]:
        m = multiplier(g, order)
        assert multiplier(Grid(dim, 2 * np.pi, 16), order) is m
        assert not m.flags.writeable
        want = _RealPath.modes(g, _oracle_multiplier(g, order))
        assert (m.dtype, m.shape, m.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_divergence_needs_one_component_per_axis():
    g = Grid(2, 2 * np.pi, 16)
    with pytest.raises(ValueError):
        Spectrum(GridField(g, np.ones(g.shape + (3, 1)))).divergence()


def test_divergence_of_constants_vanishes(grid64):
    F = GridField(grid64, np.ones(grid64.shape + (1, 2)))
    assert np.abs(inverse_transform(grid64, Spectrum(F).divergence())).max() < 1e-13


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
    for times in ([0.0, np.nan, 1.0], [0.0, 0.5, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            SpaceTimeField(grid64, times, vals)
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


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("rows", [1, 5])
def test_ball_convolve_of_a_stack_equals_each_rows_own_call(dim, M, rows, rng):
    # the transform runs over the grid axes only, so leading axes ride along
    g = Grid(dim, 2 * np.pi, M)
    stack = rng.normal(size=(rows,) + g.shape)
    r = 3.2 * g.spacing
    out = ball_convolve(g, stack, r)
    assert out.shape == stack.shape
    for row, field in zip(out, stack):
        assert np.array_equal(row, ball_convolve(g, field, r))
    # and each single call keeps the bits of the whole-array real transform,
    # which moves numpy's complex one by round-off only
    mask = np.zeros(g.shape)
    mask[tuple((ball_offsets(g, r) % M).T)] = 1.0
    want = scipy.fft.irfftn(scipy.fft.rfftn(stack[0]) * scipy.fft.rfftn(mask), s=g.shape)
    assert np.array_equal(out[0], want)
    complex_path = np.fft.ifftn(np.fft.fftn(stack[0]) * np.fft.fftn(mask)).real
    assert np.abs(want - complex_path).max() <= 1e-13 * np.abs(want).max()


# ----------------------------------------------------------------------
# the half spectrum at the Nyquist modes: each spectral operator against
# numpy's complex path, on data with energy in the Nyquist mode of every
# axis, the halved last axis included
# ----------------------------------------------------------------------

def _nyquist_mode(grid, ax):
    """(-1)^i along one axis: the Nyquist mode of that axis."""
    shape = [1] * grid.dim
    shape[ax] = grid.points_per_axis
    return ((-1.0) ** np.arange(grid.points_per_axis)).reshape(shape)


def _nyquist_rich(grid, shape, seed):
    """Random values of grid.shape + shape, plus each axis's Nyquist mode at
    an amplitude of 1 to 2 per component."""
    r = np.random.Generator(np.random.Philox(seed))
    vals = r.normal(size=grid.shape + shape)
    for ax in range(grid.dim):
        vals += _nyquist_mode(grid, ax)[(...,) + (None,) * len(shape)] * r.uniform(1, 2, shape)
    return vals


def _complex_free_frames(u0, times):
    spec = np.fft.fftn(u0.values, axes=tuple(range(u0.grid.dim)))
    sym = _oracle_multiplier(u0.grid, "biharmonic")
    return np.stack([np.fft.ifftn(spec * np.exp(-t * sym)[..., None],
                                  axes=tuple(range(u0.grid.dim))).real if t > 0 else u0.values
                     for t in times])


def _complex_duhamel(f):
    g = f.grid
    axes = tuple(range(1, 1 + g.dim))
    spec = np.fft.fftn(f.values, axes=axes)
    out = np.zeros_like(spec)
    sym = _oracle_multiplier(g, "biharmonic")[..., None]
    for j in range(f.times.size - 1):
        d = f.times[j + 1] - f.times[j]
        decay, p1, p2 = semigroup._decay_and_phis(d * sym)
        out[j + 1] = decay * out[j] + d * (spec[j] * p1 + (spec[j + 1] - spec[j]) * p2)
    return np.fft.ifftn(out, axes=axes).real


def _assert_round_off_of(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_half_spectrum_matches_the_complex_path_with_nyquist_energy(dim):
    g = Grid(dim, 2 * np.pi, 16)
    M = g.points_per_axis
    f = GridField(g, _nyquist_rich(g, (3,), seed=dim))
    F = GridField(g, _nyquist_rich(g, (dim, 2), seed=10 + dim))
    full = np.fft.fftn(f.values[..., 0])
    for ax in range(dim):
        assert abs(full[tuple(M // 2 if a == ax else 0 for a in range(dim))]) >= M ** dim / 2
    _assert_round_off_of(gradient(f), _oracle_gradient(f, _ComplexPath))
    _assert_round_off_of(hessian(f), _oracle_hessian(f, _ComplexPath))
    _assert_round_off_of(laplacian(f).values, _oracle_laplacian(f, _ComplexPath))
    _assert_round_off_of(np.moveaxis(inverse_transform(g, Spectrum(F).divergence()), 0, -1),
                         _oracle_divergence(F, _ComplexPath))
    r = 3.2 * g.spacing
    mask = np.zeros(g.shape)
    mask[tuple((ball_offsets(g, r) % M).T)] = 1.0
    _assert_round_off_of(ball_convolve(g, f.values[..., 0], r),
                         np.fft.ifftn(np.fft.fftn(f.values[..., 0]) * np.fft.fftn(mask)).real)
    # a short time grid, so the Nyquist modes (|k|^4 = 4096) keep weight
    times = 1e-3 * (np.arange(5) / 4) ** 2
    _assert_round_off_of(apply_G_trajectory(f, times).values, _complex_free_frames(f, times))
    forcing = SpaceTimeField(g, times, np.stack([_nyquist_rich(g, (2,), seed=20 + j)
                                                 for j in range(times.size)]))
    _assert_round_off_of(apply_S_trajectory(forcing).values, _complex_duhamel(forcing))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_odd_derivatives_of_the_last_axis_nyquist_mode_are_exactly_zero(dim):
    # the halved axis keeps its Nyquist mode as one real coefficient, and an
    # odd derivative there zeroes it, as on the full spectrum
    g = Grid(dim, 2 * np.pi, 16)
    nyquist = _nyquist_mode(g, dim - 1)
    spec = Spectrum(GridField(g, np.broadcast_to(nyquist, g.shape)[..., None]))
    last = (0,) * (dim - 1)
    for order in [last + (1,), last + (3,), (1,) * dim]:
        assert np.all(spec.derivative(order) == 0.0), order
    assert np.all(np.moveaxis(spec.gradient(), (0, 1), (-2, -1))[..., dim - 1, :] == 0.0)
    # while an even one keeps it: d^2 of (-1)^i is -(M/2 * 2pi/L)^2 (-1)^i
    k = g.points_per_axis // 2 * 2 * np.pi / g.box_length
    _assert_round_off_of(np.moveaxis(spec.derivative(last + (2,)), 0, -1)[..., 0],
                         -k ** 2 * np.broadcast_to(nyquist, g.shape))


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
