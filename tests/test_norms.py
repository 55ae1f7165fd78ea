"""Oscillation seminorm, Carleson functional, and the space-time norms."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow.errors import ScaleUnresolvableError
from biflow.fields import (Grid, GridField, SpaceTimeField, Spectrum, ball_convolve,
                           ball_offsets, frame_blocks, inverse_transform,
                           multiplier, pointwise_norm)
from biflow import fields, norms
from biflow.flow import constant_initial_data, equator_initial_data
from biflow.harness import run_suite, smoothing_family_constants
from biflow.norms import (NormReport, _trapezoid_weights, bmo_seminorm,
                          bmo_seminorm_brute, carleson_functional, cylinder_radii,
                          smoothing_ratios, x_norm, x_norms, y1_norm, y1_norms,
                          y2_norm, y2_norms)
from biflow.semigroup import apply_G, apply_G_trajectory


def _sine_field(grid, amplitude=0.8, freq=1):
    x = grid.coordinates()[0]
    return GridField(grid, (amplitude * np.sin(2 * np.pi * freq * x / grid.box_length))[..., None])


def _quartic_times(T, m):
    return T * (np.arange(m + 1) / m) ** 4


# ----------------------------------------------------------------------
# oscillation seminorm
# ----------------------------------------------------------------------

def test_bmo_of_constant_is_zero(grid128):
    f = GridField.constant(grid128, [4.2])
    assert bmo_seminorm(f, grid128.box_length / 4) < 1e-14


def test_bmo_brute_force_oracle(grid128):
    # exhaustive all-radii scan bounds the dyadic scan from above by <= 15%
    f = _sine_field(grid128)
    R = grid128.box_length / 4
    dyadic = bmo_seminorm(f, R)
    brute = bmo_seminorm_brute(f, R)
    assert dyadic <= brute * (1 + 1e-12)
    assert dyadic >= 0.85 * brute


def test_bmo_shift_invariance(grid128):
    f = _sine_field(grid128)
    g = GridField(grid128, f.values + 7.3)
    R = grid128.box_length / 4
    assert bmo_seminorm(f, R) == pytest.approx(bmo_seminorm(g, R), abs=1e-12)


def test_bmo_monotone_in_radius(grid128):
    f = _sine_field(grid128, freq=3)
    L = grid128.box_length
    vals = [bmo_seminorm(f, L / 2 ** k) for k in (2, 3, 4)]
    assert vals[0] >= vals[1] >= vals[2]


def test_bmo_scale_errors(grid128):
    f = _sine_field(grid128)
    with pytest.raises(ScaleUnresolvableError):
        bmo_seminorm(f, 1.5 * grid128.spacing)
    with pytest.raises(ValueError):
        bmo_seminorm(f, grid128.box_length)


@pytest.mark.parametrize("scan", [bmo_seminorm, bmo_seminorm_brute,
                                  lambda f, R: carleson_functional(f, 1, R)])
@pytest.mark.parametrize("R", [np.nan, np.inf, -np.inf])
def test_non_finite_radius_is_named(grid128, scan, R):
    # nan used to end in a dyadic-radius or an int() conversion error
    with pytest.raises(ValueError, match=f"^R must be finite and at most half the box length, got {R}$"):
        scan(_sine_field(grid128), R)


def _oracle_oscillation_value(f, r):
    # one periodic shift of the whole field per ball offset
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


@pytest.mark.parametrize("dim, M, codomain", [
    (1, 256, 3), (1, 128, 1), (2, 32, 3), (2, 64, 3), (3, 16, 3)])
def test_oscillation_windows_bitwise_equal_the_shift_loop(monkeypatch, dim, M, codomain):
    grid = Grid(dim, 2 * np.pi, M)
    vals = np.random.Generator(np.random.Philox(dim + M)).normal(size=grid.shape + (codomain,))
    f = GridField(grid, vals)
    # one offset per chunk, the default chunks and one chunk of them all
    for points in (1, norms._OFFSET_CHUNK_POINTS, 2 ** 40):
        monkeypatch.setattr(norms, "_OFFSET_CHUNK_POINTS", points)
        for r in norms._dyadic_radii(grid.box_length / 2, grid):
            assert norms._oscillation_value(f, r) == _oracle_oscillation_value(f, r)


def test_oscillation_peak_memory_holds_one_padded_copy():
    # 3.55 MiB is the traced peak of this scan at R = L/8, whose components
    # are padded once by the largest offset (the shift loop read 2.77 MiB)
    grid = Grid(3, 2 * np.pi, 32)
    f = GridField(grid, np.random.Generator(np.random.Philox(3)).normal(size=grid.shape + (3,)))
    R = grid.box_length / 8
    bmo_seminorm(f, R)  # builds the ball caches untraced
    tracemalloc.start()
    try:
        bmo_seminorm(f, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 3718120


# ----------------------------------------------------------------------
# Carleson square functional
# ----------------------------------------------------------------------

def test_carleson_kills_constants(grid128):
    f = GridField.constant(grid128, [2.0])
    assert carleson_functional(f, 1, grid128.box_length / 4) < 1e-20


def test_carleson_quadratic_homogeneity(grid128):
    f = _sine_field(grid128)
    R = grid128.box_length / 4
    a = carleson_functional(f, 1, R)
    b = carleson_functional(GridField(grid128, 2 * f.values), 1, R)
    assert b == pytest.approx(4 * a, rel=1e-10)


def test_carleson_bmo_comparability_single_constant(grid128):
    # one fitted constant covers the family for both gradient orders
    R = grid128.box_length / 4
    fit = [_sine_field(grid128, a, q) for q in (1, 4) for a in (0.5, 1.0)]
    verify = [_sine_field(grid128, a, q) for q in (2, 8, 16) for a in (0.7,)]
    x = grid128.coordinates()[0]
    verify.append(GridField(grid128, (np.sin(x) + 0.3 * np.sin(8 * x))[..., None]))
    cfit = max(carleson_functional(f, i, R) / bmo_seminorm(f, R) ** 2
               for f in fit for i in (1, 2))
    assert np.isfinite(cfit) and cfit > 0
    for f in verify:
        b = bmo_seminorm(f, R)
        for i in (1, 2):
            assert carleson_functional(f, i, R) <= 1.10 * cfit * b ** 2


def test_carleson_rejects_bad_order(grid128):
    with pytest.raises(ValueError):
        carleson_functional(_sine_field(grid128), 3, grid128.box_length / 4)


def _oracle_radii(R, grid):
    return [R / 2 ** m for m in range(64) if R / 2 ** m >= 2.0 * grid.spacing]


def _oracle_half_symbol(grid):
    # |k|^4 from the wavenumbers on the full spectrum, then its first M/2+1
    # columns: the modes of a real transform
    ks = grid.wavenumbers()
    ksq = np.zeros(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.points_per_axis
        ksq = ksq + ks[ax].reshape(shape) ** 2
    return (ksq ** 2)[..., : grid.points_per_axis // 2 + 1]


def _direct_derivatives(u0, t, i):
    # grad^i G(t) u0 at one node, component-major: each derivative alone is
    # the inverse of u0's coefficients times e^(-t |k|^4) times (ik)^alpha
    grid = u0.grid
    n = grid.dim
    decayed = Spectrum(u0).coeffs * np.exp(-t * _oracle_half_symbol(grid))

    def d(*axes):
        order = tuple(axes.count(a) for a in range(n))
        return inverse_transform(grid, decayed * multiplier(grid, order))

    if i == 1:
        return np.stack([d(a) for a in range(n)])
    return np.stack([np.stack([d(a, b) for b in range(n)]) for a in range(n)])


def _round_trip_derivatives(u0, t, i):
    # the seed's path: the frame G(t) u0, transformed forward again
    spec = Spectrum(apply_G(u0, float(t)))
    return spec.gradient() if i == 1 else spec.hessian()


def _carleson_oracle(f, i, R, derivatives, q=8, octaves=10):
    # the seed's scan, written out: one magnitude per node, one mass per radius
    grid = f.grid
    radii = _oracle_radii(R, grid)
    total_octaves = octaves + int(round(np.log2(R / radii[-1])))
    t_nodes = R * 2.0 ** (-np.arange(total_octaves * q + 1) / q)
    dlog = np.log(2.0) / q
    sq = np.empty((t_nodes.size,) + grid.shape)
    for j, t in enumerate(t_nodes):
        mag = pointwise_norm(derivatives(f, t ** 4, i), grid)
        sq[j] = (t ** i * mag) ** 2
    best = 0.0
    for m, r in enumerate(radii):
        sel = sq[m * q:]
        w = np.full(sel.shape[0], dlog)
        w[0] = w[-1] = dlog / 2.0
        mass = np.tensordot(w, sel, axes=(0, 0))
        integral = ball_convolve(grid, mass, r) * grid.cell_volume
        best = max(best, float(integral.max()) / r ** grid.dim)
    return best


def _smoothing_oracle(u0, R, derivatives, q=6, octaves=36):
    # the seed's smoothing-ratio scan, written out
    grid = u0.grid
    bmo = bmo_seminorm(u0, R)
    radii = _oracle_radii(R, grid)
    total = octaves + int(round(np.log2(R / radii[-1]))) * 4
    t_nodes = R ** 4 * 2.0 ** (-np.arange(total * q + 1, dtype=float) / q)
    g2 = np.empty((t_nodes.size,) + grid.shape)
    g4 = np.empty_like(g2)
    h2 = np.empty_like(g2)
    wsup = 0.0
    for j, t in enumerate(t_nodes):
        gm = pointwise_norm(derivatives(u0, t, 1), grid)
        hm = pointwise_norm(derivatives(u0, t, 2), grid)
        g2[j], g4[j], h2[j] = gm ** 2, gm ** 4, hm ** 2
        wsup = max(wsup, t ** 0.25 * float(gm.max()) + t ** 0.5 * float(hm.max()))

    def integrate(mass_frames, t_top):
        sel = t_nodes <= t_top * (1 + 1e-12)
        ts = t_nodes[sel][::-1]
        vals = mass_frames[sel][::-1]
        w = np.zeros_like(ts)
        dt = np.diff(ts)
        w[:-1] += dt / 2.0
        w[1:] += dt / 2.0
        w[0] += ts[0]
        return np.tensordot(w, vals, axes=(0, 0))

    cyl = quart = 0.0
    for r in radii:
        mass2 = integrate(h2, r ** 4) + integrate(g2, r ** 4) / r ** 2
        mass4 = integrate(g4, r ** 4)
        cyl = max(cyl, float(ball_convolve(grid, mass2, r).max())
                  * grid.cell_volume / r ** grid.dim)
        quart = max(quart, float(ball_convolve(grid, mass4, r).max())
                    * grid.cell_volume / r ** grid.dim)
    sup_u0 = float(np.sqrt((u0.values ** 2).sum(axis=-1)).max())
    return {"R": R, "bmo": bmo, "cylinder_ratio": cyl / bmo ** 2,
            "weighted_sup_ratio": wsup / bmo,
            "quartic_ratio": quart / (sup_u0 ** 2 * bmo ** 2)}


def _geometric_scan_cases(grid128):
    """(field, Carleson radii, smoothing radius) of the 1D, 2D and 3D scans."""
    x = grid128.coordinates()[0]
    f1 = GridField(grid128, np.stack([np.sin(x) + 0.3 * np.sin(8 * x),
                                      0.5 * np.cos(3 * x)], axis=-1))
    L = grid128.box_length
    # 2D, codomain 3: several grid axes and several components per magnitude
    g2 = Grid(2, 2 * np.pi, 32)
    x, y = g2.coordinates()
    f2 = GridField(g2, np.stack([np.sin(x) * np.cos(2 * y), 0.4 * np.cos(3 * y),
                                 0.3 * np.sin(x + 4 * y)], axis=-1))
    # 3D, codomain 3: a 27-term Hessian magnitude, summed left to right
    g3 = Grid(3, 2 * np.pi, 16)
    x, y, z = g3.coordinates()
    f3 = GridField(g3, np.stack([np.sin(x) * np.cos(y), 0.4 * np.cos(2 * z + y),
                                 0.3 * np.sin(x + 3 * z)], axis=-1))
    return [(f1, (L / 4, L / 16), L / 8), (f2, (g2.box_length / 4,), g2.box_length / 4),
            (f3, (g3.box_length / 4,), g3.box_length / 4)]


def test_geometric_scans_equal_seed_oracles(grid128):
    # the shared node sampler, magnitude step and cylinder maximum keep every
    # bit of a scan that reads each node's derivatives alone off u0's
    # coefficients
    for f, carleson_radii, R in _geometric_scan_cases(grid128):
        for Rc in carleson_radii:
            for i in (1, 2):
                assert carleson_functional(f, i, Rc) == _carleson_oracle(
                    f, i, Rc, _direct_derivatives)
        assert smoothing_ratios(f, R)[0] == _smoothing_oracle(f, R, _direct_derivatives)


def test_geometric_scans_agree_with_the_round_trip_oracle(grid128):
    # the seed's path through the physical frame G(t) u0 and its forward
    # transform moves only round-off: measured <= 2.7e-13 relative
    def close(a, b):
        assert abs(a - b) <= 1e-12 * abs(b)

    for f, carleson_radii, R in _geometric_scan_cases(grid128):
        for Rc in carleson_radii:
            for i in (1, 2):
                close(carleson_functional(f, i, Rc),
                      _carleson_oracle(f, i, Rc, _round_trip_derivatives))
        scan = smoothing_ratios(f, R)[0]
        oracle = _smoothing_oracle(f, R, _round_trip_derivatives)
        assert scan.keys() == oracle.keys()
        for key in scan:
            close(scan[key], oracle[key])


def test_smoothing_rows_equal_each_scales_own_scan(grid128):
    # row j reads R's node stack from index 24j on and its radii from the
    # j-th on; a scan of R/2^j alone builds its own nodes (R/2^j)^4 2^(-k/6),
    # which differ from that tail by round-off: the oscillation seminorm
    # keeps every bit, and each ratio moves by round-off only
    family = equator_initial_data(Grid(1, 2 * np.pi, 256), 0.2, 4, 3)
    cases = [(f, R) for f, _, R in _geometric_scan_cases(grid128)]
    for f, R in cases + [(family, family.grid.box_length / 4)]:
        rows = smoothing_ratios(f, R)
        radii = [r for r in _oracle_radii(R, f.grid) if r > 2.0 * f.grid.spacing]
        assert [row["R"] for row in rows] == radii
        for row, r in zip(rows, radii):
            oracle = _smoothing_oracle(f, r, _direct_derivatives)
            assert row.keys() == oracle.keys()
            assert row["bmo"] == oracle["bmo"]
            for key in ("cylinder_ratio", "weighted_sup_ratio", "quartic_ratio"):
                assert abs(row[key] - oracle[key]) <= 1e-15 * abs(oracle[key])


@pytest.mark.parametrize("u0", [
    lambda g: constant_initial_data(g, [0.0, 0.6, 0.8]),
    lambda g: GridField(g, np.zeros(g.shape + (3,))),
], ids=["constant", "zero"])
def test_smoothing_ratios_of_data_without_oscillation_are_named_undefined(grid128, u0):
    # every ratio divides by the oscillation seminorm, which is 0 here; it
    # used to end in a bare ZeroDivisionError
    with pytest.raises(ValueError, match=r"^cylinder_ratio, weighted_sup_ratio and "
                       r"quartic_ratio are undefined at R=1\.57: the oscillation "
                       r"seminorm of u0 is 0$"):
        smoothing_ratios(u0(grid128), grid128.box_length / 4)


_TRANSFORMS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def _spy_free_scans(monkeypatch):
    """Per ``_free_magnitudes`` call, (node count, orders, the scipy.fft calls
    made while its node magnitudes are built); the list fills as scans run."""
    scans, inside = [], []
    for name in _TRANSFORMS:
        def counted(x, *args, _name=name, _real=getattr(scipy.fft, name), **kwargs):
            if inside:
                inside[-1].append((_name, np.shape(x)))
            return _real(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    free_magnitudes = norms._free_magnitudes

    def traced(u0, ts, orders):
        inside.append([])
        try:
            return free_magnitudes(u0, ts, orders)
        finally:
            scans.append((len(ts), tuple(orders), inside.pop()))

    monkeypatch.setattr(norms, "_free_magnitudes", traced)
    return scans


@pytest.mark.parametrize("scan, nodes, per_block", [
    # R = L/4 = 32h: 10 + 4 octaves at 8 nodes each; a 1D Hessian is one
    # inverse transform
    pytest.param(lambda f, R: carleson_functional(f, 2, R), 14 * 8 + 1, 1, id="carleson"),
    # R = L/4 = 32h: 36 + 4*4 octaves at 6 nodes each; a gradient and a Hessian
    pytest.param(smoothing_ratios, 52 * 6 + 1, 2, id="smoothing_ratios"),
])
def test_free_scans_transform_u0_once_and_no_t0_frame(monkeypatch, grid128, scan, nodes,
                                                      per_block):
    scans = _spy_free_scans(monkeypatch)
    f = _sine_field(grid128)
    scan(f, grid128.box_length / 4)
    # one forward transform, of u0; then per block of nodes (frame_blocks)
    # only the inverse transforms of its derivatives, each over the block's
    # nodes alone
    [(_, _, calls)] = scans
    assert calls[0] == ("rfftn", (1,) + grid128.shape)
    sizes = [b.stop - b.start for b in frame_blocks(grid128, nodes)]
    assert len(sizes) > 1
    half = grid128.points_per_axis // 2 + 1
    assert calls[1:] == [("irfftn", (1, size, half)) for size in sizes
                         for _ in range(per_block)]


def test_norms_suite_builds_one_node_stack_per_family_member(monkeypatch, tmp_path):
    # its three scales are rows of one scan per member of the 4-member
    # family: R0 = L/4 = 64h gives 36 + 5*4 octaves at 6 nodes each, and
    # each member's 3-component u0 is transformed once
    scans = _spy_free_scans(monkeypatch)
    run_suite("norms", out_dir=tmp_path)
    smoothing = [(nodes, calls) for nodes, orders, calls in scans if orders == (1, 2)]
    assert [nodes for nodes, _ in smoothing] == [56 * 6 + 1] * 4
    for _, calls in smoothing:
        assert [c for c in calls if c[0] != "irfftn"] == [("rfftn", (3, 256))]


def test_smoothing_family_needs_three_resolved_scales():
    # R = 8h resolves R and R/2 only: the family has no R/4 row to report
    grid = Grid(1, 2 * np.pi, 256)
    with pytest.raises(ScaleUnresolvableError, match=r"^R/4=0\.0491 is not above 2h=0\.0491$"):
        smoothing_family_constants(grid, 8 * grid.spacing)


@pytest.mark.parametrize("dim, M", [(1, 128), (2, 32)])
def test_free_scans_keep_their_bits_at_every_block_size(monkeypatch, dim, M):
    # each node of a free scan, and each frame of a space-time norm's stack,
    # is transformed and differentiated on its own, so one node or frame per
    # block, the default blocks and one block of them all give the same bits
    g = Grid(dim, 2 * np.pi, M)
    f = GridField(g, np.random.Generator(np.random.Philox(7)).normal(size=g.shape + (2,)))
    R = g.box_length / 4
    u = _smooth_stack(dim, M, (3,), seed=40 + dim)
    F = _smooth_stack(dim, M, (dim, 3), seed=50 + dim)
    T = 0.5 * (u.times[-2] + u.times[-1])

    def scans():
        return ([carleson_functional(f, i, R) for i in (1, 2)], smoothing_ratios(f, R),
                [(x_norm(u, t), x_norms(u, t), y1_norms(u, t), y2_norms(F, t))
                 for t in (None, T)])

    want = scans()
    for points in (g.points_per_axis ** dim, 2 ** 40):
        monkeypatch.setattr(fields, "_BLOCK_POINTS", points)
        assert scans() == want


def test_smoothing_ratios_peak_memory_within_twice_its_node_stacks():
    # the norms-suite input: R = L/4 = 64h gives 36 + 5*4 octaves at 6 nodes
    # each, 337 nodes; the scan must hold g^2, g^4 and h^2 over all of them,
    # and its integrals take views of them, not copies
    grid = Grid(1, 2 * np.pi, 256)
    u0 = equator_initial_data(grid, 0.2, 4, 3)
    stacks = 3 * 337 * grid.points_per_axis * 8
    tracemalloc.start()
    try:
        smoothing_ratios(u0, grid.box_length / 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * stacks


def _traced_peak(norm):
    """Traced peak of a norm of a 2D 64^2 x 17-frame, 3-component stack."""
    grid = Grid(2, 2 * np.pi, 64)
    times = _quartic_times(0.5, 16)
    vals = np.random.Generator(np.random.Philox(3)).normal(size=times.shape + grid.shape + (3,))
    u = SpaceTimeField(grid, times, vals)
    norm(u)  # builds the multiplier and ball caches untraced
    tracemalloc.start()
    try:
        norm(u)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_x_norm_peak_memory_holds_one_block_of_derivatives():
    # 2.89 MiB is the traced peak of x_norm of this stack, whose gradient
    # and Hessian are made one block of 2 frames at a time, each freed once
    # reduced, and whose values are read in place; differentiating the whole
    # stack at once read 17.05 MiB, and copying it into a one-member field
    # first read 4.48 MiB
    assert _traced_peak(x_norm) <= 1.1 * 2.89 * 2 ** 20


@pytest.mark.parametrize("norm", [y1_norm, y2_norm])
def test_y_norm_peak_memory_holds_no_copy_of_the_stack(norm):
    # 1.16 MiB is the traced peak of either forcing norm of the stack, read
    # in place; copying it into a one-member field first read 2.76 MiB
    assert _traced_peak(norm) <= 1.1 * 1.16 * 2 ** 20


# ----------------------------------------------------------------------
# solution norm
# ----------------------------------------------------------------------

def test_x_norm_of_constant(grid64):
    times = _quartic_times(1.0, 16)
    c = np.full((17,) + grid64.shape + (2,), 0.0)
    c[..., 0] = -1.5
    rep = x_norm(SpaceTimeField(grid64, times, c), 1.0)
    assert rep.sup_part == pytest.approx(1.5, abs=1e-14)
    assert rep.seminorm_part == pytest.approx(0.0, abs=1e-13)
    assert rep.total == rep.sup_part + rep.seminorm_part


def test_x_norm_linear_in_amplitude(grid128):
    times = _quartic_times(1.0, 16)
    u0 = _sine_field(grid128, 0.01)
    r1 = x_norm(apply_G_trajectory(u0, times), 1.0)
    r3 = x_norm(apply_G_trajectory(GridField(grid128, 5 * u0.values), times), 1.0)
    assert r3.total == pytest.approx(5 * r1.total, rel=1e-10)
    assert r3.seminorm_part == pytest.approx(5 * r1.seminorm_part, rel=1e-10)


def test_x_norm_stable_under_refinement():
    # doubling space and time resolution moves the estimator by < 10%
    L = 2 * np.pi
    vals = {}
    for M, m in ((128, 16), (256, 32)):
        g = Grid(1, L, M)
        u0 = _sine_field(g, 0.05)
        rep = x_norm(apply_G_trajectory(u0, _quartic_times(1.0, m)), 1.0)
        vals[M] = rep.total
    assert abs(vals[256] - vals[128]) <= 0.10 * vals[128]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_x_norm_triangle_inequality(seed):
    r = np.random.Generator(np.random.Philox(seed))
    g = Grid(1, 2 * np.pi, 32)
    times = _quartic_times(0.5, 8)
    x = g.coordinates()[0]

    def rand_traj():
        u0 = GridField(g, sum(r.normal() * np.cos(m * x + r.uniform(0, 6.28))
                              for m in range(1, 4))[..., None])
        return apply_G_trajectory(u0, times)

    a, b = rand_traj(), rand_traj()
    na, nb = x_norm(a, 0.5).total, x_norm(b, 0.5).total
    nab = x_norm(SpaceTimeField(g, times, a.values + b.values), 0.5).total
    assert nab <= na + nb + 1e-10


def test_x_norm_scale_table_is_populated(grid64):
    times = _quartic_times(1.0, 16)
    u0 = _sine_field(grid64, 0.1)
    rep = x_norm(apply_G_trajectory(u0, times), 1.0)
    assert len(rep.scales) >= 2
    radii = [s[0] for s in rep.scales]
    assert radii == sorted(radii, reverse=True)
    assert rep.argmax["morrey4_radius"] in radii


def test_x_norm_requires_final_time(grid64):
    times = _quartic_times(0.5, 8)
    traj = SpaceTimeField(grid64, times, np.zeros((9,) + grid64.shape + (1,)))
    with pytest.raises(ValueError):
        x_norm(traj, 1.0)


def test_x_norm_coarse_time_grid_unresolvable(grid64):
    # two frames cannot carry any cylinder integral
    traj = SpaceTimeField(grid64, [0.0, 1.0],
                          np.zeros((2,) + grid64.shape + (1,)))
    with pytest.raises(ScaleUnresolvableError):
        x_norm(traj, 1.0)


# Oracle: the space-time scan one member at a time, as it stood before the
# scan took a member axis, with its own ball sums written straight on
# scipy's real transform.  x_norm, x_norms and the forcing norms all run
# through the member scan and must reproduce these bits.

def _oracle_ball_mask(grid, r):
    mask = np.zeros(grid.shape)
    mask[tuple((ball_offsets(grid, r) % grid.points_per_axis).T)] = 1.0
    return mask


def _oracle_ball_sums(grid, mass, r):
    spec = scipy.fft.rfftn(mass) * scipy.fft.rfftn(_oracle_ball_mask(grid, r))
    return scipy.fft.irfftn(spec, s=grid.shape)


def _oracle_cylinder_average_max(grid, mass, r):
    return float(_oracle_ball_sums(grid, mass, r).max()) * grid.cell_volume / r ** grid.dim


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 32), (3, 16)])
def test_ball_sum_oracle_agrees_with_the_complex_path(dim, M):
    # the oracle's real transforms move numpy's complex ball sums, which the
    # scan used before, by round-off only
    grid = Grid(dim, 2.0 * np.pi, M)
    mass = np.random.Generator(np.random.Philox(dim)).normal(size=grid.shape) ** 2
    for r in (grid.spacing, 3.2 * grid.spacing, grid.box_length / 4):
        real_path = _oracle_ball_sums(grid, mass, r)
        mask = _oracle_ball_mask(grid, r)
        complex_path = np.fft.ifftn(np.fft.fftn(mass) * np.fft.fftn(mask)).real
        assert np.abs(real_path - complex_path).max() <= 1e-13 * np.abs(real_path).max()


def _oracle_first_peak(values, keys, none):
    j = int(np.argmax(values))
    return (values[j], keys[j]) if values[j] > 0 else (0.0, none)


def _oracle_space_time_scan(u, T, sup_terms, cylinder_terms):
    grid = u.grid
    if T is None:
        T = float(u.times[-1])
    pos = np.nonzero((u.times > 0) & (u.times <= T * (1 + 1e-12)))[0]
    frame_max = [(m[pos].reshape(pos.size, -1).max(axis=1), a) for m, a in sup_terms]
    wvals = [sum(t ** a * fm[i] for fm, a in frame_max)
             for i, t in enumerate(u.times[pos])]
    sup = _oracle_first_peak(wvals, u.times[pos], 0.0)
    radii = cylinder_radii(u.times, T ** 0.25, grid)
    powered = [(m ** p, outer) for m, p, outer in cylinder_terms]
    scales = []
    for r in radii:
        w = _trapezoid_weights(u.times, min(r ** 4, T))
        scales.append((r, *(_oracle_cylinder_average_max(
            grid, np.tensordot(w, mp, axes=(0, 0)), r) ** outer for mp, outer in powered)))
    peaks = [_oracle_first_peak([row[k] for row in scales], radii, None)
             for k in range(1, 1 + len(powered))]
    return pos, sup, peaks, tuple(scales)


def _oracle_x_norm(u, T):
    spec = Spectrum(u)
    gm = pointwise_norm(spec.gradient(), u.grid, lead=1)
    hm = pointwise_norm(spec.hessian(), u.grid, lead=1)
    pos, (weighted, weighted_arg), [(m4, arg4), (m2, arg2)], scales = _oracle_space_time_scan(
        u, T, [(gm, 0.25), (hm, 0.5)], [(gm, 4, 0.25), (hm, 2, 0.5)])
    sup_part = float(np.sqrt((u.values[pos] ** 2).sum(axis=-1)).max())
    return NormReport(sup_part, weighted + m4 + m2, scales,
                      {"weighted_sup_time": weighted_arg,
                       "morrey4_radius": arg4, "morrey2_radius": arg2})


def _smooth_stack(dim, M, trailing, seed):
    # 7 frames of random low modes; the times 3.4 (j/6)^4 put a T between
    # the last two frames at 0.5 (times[-2] + times[-1])
    grid = Grid(dim, 2 * np.pi, M)
    times = 3.4 * (np.arange(7) / 6) ** 4
    rng = np.random.Generator(np.random.Philox(seed))
    coeffs = np.zeros((7,) + grid.shape + trailing, dtype=complex)
    low = (slice(None),) + (slice(0, 3),) * dim
    coeffs[low] = rng.normal(size=coeffs[low].shape) + 1j * rng.normal(size=coeffs[low].shape)
    vals = np.fft.ifftn(coeffs, axes=tuple(range(1, 1 + dim))).real * M ** dim
    return SpaceTimeField(grid, times, vals)


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("between", [False, True])
def test_x_norm_equals_the_one_member_scan_oracle(dim, M, between):
    u = _smooth_stack(dim, M, (3,), seed=dim)
    T = 0.5 * (u.times[-2] + u.times[-1]) if between else None
    got, want = x_norm(u, T), _oracle_x_norm(u, T)
    assert got == want  # bitwise: parts, scale table and argmax
    assert got.scales == want.scales and got.argmax == want.argmax
    assert got.argmax["weighted_sup_time"] > 0 and got.argmax["morrey2_radius"] is not None


def _member(f, m):
    return SpaceTimeField(f.grid, f.times, f.values[..., m:m + 1])


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("members", [1, 5])
def test_member_norms_equal_each_members_own_norm(dim, M, members):
    # one scan of the stack gives every member the bits of its own scan; the
    # 3D Hessian's 9 components and a (3, 3) flux member's are summed left to
    # right, in the stack as in each member's own scan
    u = _smooth_stack(dim, M, (members,), seed=10 + dim)
    F = _smooth_stack(dim, M, (dim, members), seed=20 + dim)
    G = _smooth_stack(dim, M, (3, 3, members), seed=30 + dim)
    T = 0.5 * (u.times[-2] + u.times[-1])
    for t in (None, T):
        assert x_norms(u, t) == [_oracle_x_norm(_member(u, m), t) for m in range(members)]
        for norms_of, norm, weights in ((y1_norms, y1_norm, (1.0, 1.0, 1.0)),
                                        (y2_norms, y2_norm, (0.75, 4.0 / 3.0, 0.75))):
            for f in (u, F, G):
                want = [_oracle_y_norm(_member(f, m), t or f.times[-1], *weights)
                        for m in range(members)]
                assert norms_of(f, t) == want
                assert [norm(_member(f, m), t) for m in range(members)] == want


# ----------------------------------------------------------------------
# forcing norms
# ----------------------------------------------------------------------

def test_y_norms_of_zero(grid64):
    times = np.linspace(0.0, 1.0, 5)
    z = SpaceTimeField(grid64, times, np.zeros((5,) + grid64.shape + (1,)))
    assert y1_norm(z, 1.0).total == 0.0
    assert y2_norm(z, 1.0).total == 0.0


def test_y_norms_with_no_frame_up_to_T_are_unresolvable(grid64):
    f = SpaceTimeField(grid64, [0.0, 0.5, 1.0], np.ones((3,) + grid64.shape + (1,)))
    for norm in (y1_norm, y2_norm):
        with pytest.raises(ScaleUnresolvableError):
            norm(f, 0.1)


def test_y_norms_of_constant_closed_form(grid64):
    # sup parts: c T and c T^(3/4); cylinder parts maximise at r = T^(1/4)
    # with the discrete ball volume h * |ball|
    c, T = 2.0, 1.0
    times = np.linspace(0.0, T, 9)
    f = SpaceTimeField(grid64, times, np.full((9,) + grid64.shape + (1,), c))
    r = T ** 0.25
    vol = ball_offsets(grid64, r).shape[0] * grid64.spacing
    y1 = y1_norm(f, T)
    assert y1.sup_part == pytest.approx(c * T, abs=1e-14)
    assert y1.seminorm_part == pytest.approx(c * r ** 4 * vol / r, rel=1e-12)
    y2 = y2_norm(f, T)
    assert y2.sup_part == pytest.approx(c * T ** 0.75, abs=1e-14)
    assert y2.seminorm_part == pytest.approx(
        (c ** (4 / 3) * r ** 4 * vol / r) ** 0.75, rel=1e-12)


def test_norm_report_serializes(grid128):
    times = _quartic_times(1.0, 16)
    rep = x_norm(apply_G_trajectory(_sine_field(grid128, 0.1), times), 1.0)
    payload = rep.to_json()
    assert payload["total"] == pytest.approx(rep.sup_part + rep.seminorm_part)
    assert len(payload["scales"]) == len(rep.scales)
    import json
    json.dumps(payload)  # plain types only


def _oracle_y_norm(f, T, time_weight, power, outer):
    # the forcing norm written out in full, one loop per half
    grid = f.grid
    flat = f.values.reshape(f.values.shape[: 1 + grid.dim] + (-1,))
    mags = np.sqrt(np.square(np.moveaxis(flat, -1, 0), order="C").sum(axis=0))
    pos = np.nonzero((f.times > 0) & (f.times <= T * (1 + 1e-12)))[0]
    fmax = mags[pos].max(axis=tuple(range(1, mags.ndim)))
    svals = [t ** time_weight * m for t, m in zip(f.times[pos], fmax)]
    j = int(np.argmax(svals))
    sup_part, sup_arg = (svals[j], f.times[pos[j]]) if svals[j] > 0 else (0.0, 0.0)
    powed = mags ** power
    best, arg_r = 0.0, None
    scales = []
    for r in cylinder_radii(f.times, T ** 0.25, grid):
        w = _trapezoid_weights(f.times, min(r ** 4, T))
        val = _oracle_cylinder_average_max(grid, np.tensordot(w, powed, axes=(0, 0)),
                                           r) ** outer
        scales.append((r, val))
        if val > best:
            best, arg_r = val, r
    return NormReport(sup_part, best, tuple(scales),
                      {"sup_time": sup_arg, "cylinder_radius": arg_r})


@pytest.mark.parametrize("dim, points, trailing, T", [
    (1, 64, (2,), None),
    (1, 64, (1,), 0.6),        # T between the frames at 0.5 and 0.625
    (2, 16, (2, 3), None),     # flux-shaped field: (n, l) trailing axes
    (2, 16, (3,), 0.6),
    (3, 16, (1,), None),
    (3, 16, (2, 3), 0.6),
])
@pytest.mark.parametrize("scale", [1.0, 0.0])  # 0.0: the all-zero field
def test_y_norms_match_the_one_loop_per_half_oracle(dim, points, trailing, T, scale):
    grid = Grid(dim, 2.0 * np.pi, points)
    times = np.linspace(0.0, 1.0, 9)
    rng = np.random.Generator(np.random.Philox(dim))
    f = SpaceTimeField(grid, times, scale * rng.normal(size=(9,) + grid.shape + trailing))
    T_oracle = 1.0 if T is None else T
    for norm, weights in ((y1_norm, (1.0, 1.0, 1.0)), (y2_norm, (0.75, 4.0 / 3.0, 0.75))):
        got, want = norm(f, T), _oracle_y_norm(f, T_oracle, *weights)
        assert got == want  # bitwise: parts, scale table and argmax
        if scale == 0.0:
            assert got.argmax == {"sup_time": 0.0, "cylinder_radius": None}
        else:
            assert got.argmax["cylinder_radius"] is not None


def test_y_norms_positive_homogeneity(grid64, rng):
    times = np.linspace(0.0, 0.5, 6)
    vals = rng.normal(size=(6,) + grid64.shape + (1,))
    vals[0] = vals[0]  # arbitrary frame at t=0 participates in cylinders
    f = SpaceTimeField(grid64, times, vals)
    for norm in (y1_norm, y2_norm):
        a = norm(f, 0.5).total
        b = norm(SpaceTimeField(grid64, times, 3 * vals), 0.5).total
        assert b == pytest.approx(3 * a, rel=1e-10)
