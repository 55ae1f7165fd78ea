"""Sphere projection, extension, derivative tensors, and defect algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow.errors import UnsupportedOrderError
from biflow.manifold import (ProjectionJet, SphereTarget, defect_q,
                             distance_to_sphere, dpi, project, rho)

T3 = SphereTarget(3)


def test_radial_projection():
    assert np.allclose(project(T3, np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])


def test_sphere_points_are_fixed():
    y = np.array([0.6, 0.8, 0.0])
    assert np.allclose(project(T3, y), y, atol=1e-15)
    assert np.allclose(defect_q(T3, y), 0.0, atol=1e-15)


def test_ring_inside_tube_projects_to_unit_circle():
    target = SphereTarget(ambient_dim=2, tube_radius=0.5)
    for th in np.linspace(0, 2 * np.pi, 9):
        y = 0.6 * np.array([np.cos(th), np.sin(th)])
        p = project(target, y)
        assert np.allclose(p, [np.cos(th), np.sin(th)], atol=1e-14)


def test_extension_is_bounded_near_origin():
    pts = np.array([[0.0, 0.0, 0.0], [1e-9, 0, 0], [0.1, 0.05, -0.02]])
    out = project(T3, pts)
    assert np.all(np.isfinite(out))
    assert np.allclose(out[0], 0.0)
    assert np.linalg.norm(out, axis=-1).max() <= 1.0 + 1e-12


def test_dpi_example_half_tangent():
    got = dpi(T3, np.array([2.0, 0.0, 0.0]), 1, (np.array([0.0, 1.0, 0.0]),))
    assert np.allclose(got, [0.0, 0.5, 0.0], atol=1e-14)
    # independent oracle: centered differences of the projection
    h = 1e-5
    fd = (project(T3, np.array([2.0, h, 0.0]))
          - project(T3, np.array([2.0, -h, 0.0]))) / (2 * h)
    assert np.allclose(got, fd, atol=1e-9)


def test_dpi_identity_on_tangent_zero_on_normal():
    y = np.array([0.0, 1.0, 0.0])
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(dpi(T3, y, 1, (v,)), v, atol=1e-14)
    assert np.allclose(dpi(T3, y, 1, (y,)), 0.0, atol=1e-14)


def test_dpi_rejects_bad_order():
    with pytest.raises(UnsupportedOrderError):
        dpi(T3, np.array([1.0, 0, 0]), 4, (np.zeros(3),) * 4)


def test_defect_and_rho_radial():
    y = np.array([1.2, 0.0, 0.0])
    assert np.allclose(defect_q(T3, y), [0.2, 0.0, 0.0], atol=1e-15)
    assert rho(T3, y) == pytest.approx(0.02, abs=1e-15)
    assert distance_to_sphere(y) == pytest.approx(0.2, abs=1e-15)


def test_idempotence_on_tube(rng):
    y = rng.normal(size=(50, 3))
    y = y / np.linalg.norm(y, axis=-1, keepdims=True) * rng.uniform(0.6, 1.4, size=(50, 1))
    once = project(T3, y)
    twice = project(T3, once)
    assert np.abs(twice - once).max() < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_defect_orthogonal_to_tangent_space(seed):
    # <DPi(Pi(y)) v, Q(y)> = 0: the defect is normal at the projected point
    r = np.random.Generator(np.random.Philox(seed))
    y = r.normal(size=3)
    y = y / np.linalg.norm(y) * r.uniform(0.55, 1.45)
    v = r.normal(size=3)
    base = project(T3, y)
    tangent = dpi(T3, base, 1, (v,))
    assert abs(float(tangent @ defect_q(T3, y))) < 1e-12


def test_dq_is_complement_of_dpi():
    # DQ(y)(v) = v - DPi(y)(v), checked against finite differences of Q
    y = np.array([0.9, -0.3, 0.5])
    v = np.array([0.4, 1.0, -0.2])
    h = 1e-6
    fd = (defect_q(T3, y + h * v) - defect_q(T3, y - h * v)) / (2 * h)
    assert np.allclose(fd, v - dpi(T3, y, 1, (v,)), atol=1e-9)


def test_d2q_is_negated_d2pi():
    y = np.array([1.1, 0.2, -0.4])
    v = np.array([0.3, -1.0, 0.6])
    w = np.array([1.0, 0.4, 0.2])
    h = 1e-5
    fd = (defect_q(T3, y + h * w) - 2 * defect_q(T3, y)
          + defect_q(T3, y - h * w)) / h ** 2
    # directional second difference along w gives D2Q(w, w)
    assert np.allclose(fd, -dpi(T3, y, 2, (w, w)), atol=1e-6)
    # mixed version through first derivatives of DPi
    fd_mixed = (dpi(T3, y + h * w, 1, (v,)) - dpi(T3, y - h * w, 1, (v,))) / (2 * h)
    assert np.allclose(-fd_mixed, -dpi(T3, y, 2, (v, w)), atol=1e-8)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivatives_converge_at_second_order(order):
    y = np.array([0.9, -0.3, 0.5])
    vs = [np.array([0.2, 1.0, -0.4]), np.array([-1.0, 0.1, 0.3]),
          np.array([0.5, 0.5, 1.0])]

    def fd(h):
        args = tuple(vs[: order - 1])
        step = h * vs[order - 1]
        if order == 1:
            return (project(T3, y + step) - project(T3, y - step)) / (2 * h)
        return (dpi(T3, y + step, order - 1, args)
                - dpi(T3, y - step, order - 1, args)) / (2 * h)

    exact = dpi(T3, y, order, tuple(vs[:order]))
    e1 = np.abs(fd(2e-3) - exact).max()
    e2 = np.abs(fd(1e-3) - exact).max()
    assert math.log2(e1 / e2) >= 1.9


def test_target_invariants():
    with pytest.raises(ValueError):
        SphereTarget(ambient_dim=1)
    with pytest.raises(ValueError):
        SphereTarget(tube_radius=0.7)
    # the cap radius is a constant, not a field, and no point of the widest
    # tube reaches it
    with pytest.raises(TypeError):
        SphereTarget(tube_radius=0.5, blend_radius=0.6)
    assert 0.0 < SphereTarget.blend_radius < 1.0 - 0.5


def test_target_rejects_an_ambient_dim_that_is_not_an_integer():
    with pytest.raises(ValueError, match="^ambient_dim must be an integer, got 3.5$"):
        SphereTarget(3.5)
    assert SphereTarget(np.int64(3)).ambient_dim == 3


def test_broadcasting_over_grids(rng):
    y = rng.normal(size=(4, 5, 3)) + np.array([2.0, 0, 0])
    v = rng.normal(size=(4, 5, 3))
    out = dpi(T3, y, 2, (v, v))
    assert out.shape == (4, 5, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 9), st.integers(1, 3))
def test_jet_gram_form_matches_dpi_sums(seed, ambient_dim, n):
    # on points in the tube and inside the polynomial cap, with ambient dims
    # on both sides of numpy's switch to a pairwise sum over dpi's trailing
    # axis at 8 terms: below it d1 has dpi's bits, since _component_dot
    # adds left to right too, and from it on d1 agrees with dpi to the
    # stated round-off; the Gram-form sums agree with dpi's term-by-term
    # sums to round-off
    target = SphereTarget(ambient_dim)
    r = np.random.Generator(np.random.Philox(seed))
    shape = (6, 5, ambient_dim)
    y = r.normal(size=shape)
    in_cap = r.random(size=shape[:-1] + (1,)) < 0.5
    radii = np.where(in_cap, r.uniform(0.0, target.blend_radius, size=in_cap.shape),
                     r.uniform(1.0 - target.tube_radius, 1.0 + target.tube_radius,
                               size=in_cap.shape))
    y = y / np.linalg.norm(y, axis=-1, keepdims=True) * radii
    assert in_cap.any() and not in_cap.all()
    grads = r.normal(size=shape[:-1] + (n, ambient_dim))
    g = [grads[..., a, :] for a in range(n)]
    v, w = r.normal(size=shape), np.broadcast_to(r.normal(size=ambient_dim), shape)
    # the jet is component-major: components lead its inputs and outputs
    jet = ProjectionJet(target, np.moveaxis(y, -1, 0), np.moveaxis(grads, (-2, -1), (0, 1)))
    d1 = lambda x: np.moveaxis(jet.d1(np.moveaxis(x, -1, 0)), 0, -1)
    d2 = lambda *pairs: np.moveaxis(jet.d2(*[(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0))
                                              for a, b in pairs]), 0, -1)
    trace3 = lambda z: np.moveaxis(jet.trace3(np.moveaxis(z, -1, 0)), 0, -1)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    for x in (v, w, *g):
        if ambient_dim < 8:
            assert np.array_equal(d1(x), dpi(target, y, 1, (x,)))
        else:  # measured: 5.3e-16 of the array max over 2,400 draws
            want = dpi(target, y, 1, (x,))
            assert np.abs(d1(x) - want).max() <= 2e-15 * np.abs(want).max()
    for pairs in ([(v, w)], [(v, v)], [(v, w), (w, w), *[(ga, ga) for ga in g]],
                  [(ga, v) for ga in g]):
        assert close(d2(*pairs), sum(dpi(target, y, 2, p) for p in pairs))
    for z in (v, w, *g):
        assert close(trace3(z), sum(dpi(target, y, 3, (ga, ga, z)) for ga in g))
