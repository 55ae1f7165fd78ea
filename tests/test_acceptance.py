"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with  `pytest tests/test_acceptance.py -v -s`  to see one line per
criterion.  Tolerances are fixed here, not tuned at runtime.
"""

import hashlib
from pathlib import Path

import numpy as np

from biflow.fields import Grid, GridField, SpaceTimeField
from biflow.flow import (FlowConfig, constant_initial_data, distance_experiment,
                         equator_initial_data, nonlinearity_f3, picard_solve)
from biflow.harness import smoothing_family_constants, run_suite
from biflow.kernel import (ALPHA, SampleSpec, certify_bound, default_profile,
                           eval_kernel, kernel_mass)
from biflow.manifold import SphereTarget
from biflow.norms import bmo_seminorm, carleson_functional
from biflow.semigroup import (apply_G, apply_S, operator_bound_experiment,
                              symbol)

TARGET = SphereTarget(3)


def verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# 1 ---------------------------------------------------------------------

def test_criterion_01_kernel_mass():
    worst = 0.0
    for dim in (1, 2):
        p = default_profile(dim)
        for t in (1e-2, 1.0, 1e2):
            worst = max(worst, abs(kernel_mass(p, t) - 1.0))
    verdict(1, worst <= 1e-8, f"max |mass - 1| = {worst:.2e} (<= 1e-8)")


# 2 ---------------------------------------------------------------------

def test_criterion_02_kernel_self_similarity():
    worst = 0.0
    for dim in (1, 2):
        p = default_profile(dim)
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(50):
            x = rng.uniform(0.05, 5.0, size=dim)
            t = rng.uniform(0.05, 5.0)
            a = eval_kernel(p, 2 * x, 16 * t)
            b = eval_kernel(p, x, t)
            worst = max(worst, abs(a - 2.0 ** (-dim) * b))
    verdict(2, worst <= 1e-12, f"max scaling defect over 100 samples = {worst:.2e}")


# 3 ---------------------------------------------------------------------

def test_criterion_03_decay_certificates():
    p = default_profile(1)
    jobs = [("2.2", 0)] + [("2.3", k) for k in (1, 2, 3, 4)] \
        + [("2.4", k) for k in (1, 2, 3, 4)] + [("2.5", j) for j in range(5)]
    worst_drift = 0.0
    for est, k in jobs:
        a = certify_bound(p, est, k)
        b = certify_bound(p.refined(), est, k, sample_spec=SampleSpec().refined())
        assert np.isfinite(a.fitted_constant) and a.fitted_constant >= 0
        if est == "2.2":
            assert a.alpha_or_c1 == ALPHA == 3 * 2 ** (1 / 3) / 16
        if est == "2.5":
            assert a.alpha_or_c1 == 0.5
        worst_drift = max(worst_drift,
                          abs(b.fitted_constant - a.fitted_constant) / a.fitted_constant)
    # cross-time agreement of the weighted L1 norms
    rel = 0.0
    for k in (1, 2, 3, 4):
        vals = np.asarray(certify_bound(p, "2.4", k).per_time_values)
        rel = max(rel, float(np.max(np.abs(vals - vals[0])) / vals[0]))
    ok = worst_drift <= 0.05 and rel <= 1e-6
    verdict(3, ok, f"refinement drift {worst_drift:.2%} (<=5%), "
                   f"L1 cross-time spread {rel:.2e} (<=1e-6)")


# 4 ---------------------------------------------------------------------

def test_criterion_04_semigroup_law():
    g = Grid(1, 2 * np.pi, 64)
    rng = np.random.Generator(np.random.Philox(4))
    x = g.coordinates()[0]
    worst = 0.0
    for _ in range(10):
        vals = sum(rng.normal() * np.cos(m * x + rng.uniform(0, 6.28))
                   for m in range(5))
        u0 = GridField(g, vals[..., None])
        s, t = rng.uniform(0.01, 1.0, size=2)
        a = apply_G(apply_G(u0, s), t)
        b = apply_G(u0, s + t)
        worst = max(worst, float(np.abs(a.values - b.values).max()))
    verdict(4, worst <= 1e-12, f"max semigroup defect = {worst:.2e}")


# 5 ---------------------------------------------------------------------

def test_criterion_05_spectral_kernel_consistency():
    # box is 16x the bump support, wide enough that neither the kernel tail
    # nor the bump's periodic images reach across at t = 1
    L, M = 32.0, 1024
    g = Grid(1, L, M)
    x = g.coordinates()[0]
    c = L / 2
    bump = np.where(np.abs(x - c) < 1.0, np.cos(np.pi * (x - c) / 2) ** 8, 0.0)
    u0 = GridField(g, bump[..., None])
    profile = default_profile(1, tolerance=1e-10)
    dx = np.minimum(x, L - x)
    worst = 0.0
    for t in (0.01, 0.1, 1.0):
        spectral = apply_G(u0, t).values[..., 0]
        row = eval_kernel(profile, dx, t) * g.spacing
        conv = np.fft.ifft(np.fft.fft(row) * np.fft.fft(bump)).real
        worst = max(worst, float(np.abs(spectral - conv).max()))
    verdict(5, worst <= 1e-4, f"sup gap spectral vs kernel convolution = {worst:.2e}")


# 6 ---------------------------------------------------------------------

def test_criterion_06_duhamel_exactness():
    g = Grid(1, 2 * np.pi, 16)
    rng = np.random.Generator(np.random.Philox(6))
    x = g.coordinates()[0]
    T = 0.1
    worst_r = 0.0
    for _ in range(5):
        f0 = rng.normal() + rng.normal() * np.cos(x) + rng.normal() * np.sin(x)
        f1 = rng.normal() + rng.normal() * np.cos(x) + rng.normal() * np.sin(x)
        scale = max(np.abs(f0).max(), np.abs(f1).max())
        f0, f1 = f0 / scale, f1 / scale
        f = SpaceTimeField(g, [0.0, T], np.stack([f0[..., None], f1[..., None]]))
        got = apply_S(f, T).values[..., 0]
        lam = symbol(g)
        s0, s1 = np.fft.fft(f0), np.fft.fft(f1)
        acc = np.zeros_like(s0)
        N = 1000
        for j in range(N):
            s = (j + 0.5) * T / N
            acc += np.exp(-(T - s) * lam) * (s0 + (s1 - s0) * s / T) * (T / N)
        worst_r = max(worst_r, float(np.abs(got - np.fft.ifft(acc).real).max()))
    # single-mode closed forms, including stiff modes
    g64 = Grid(1, 2 * np.pi, 64)
    x64 = g64.coordinates()[0]
    times = np.linspace(0.0, 0.5, 6)
    worst_m = 0.0
    for m in (1, 3, 7):
        vals = np.repeat(np.cos(m * x64)[None, ..., None], 6, axis=0)
        f = SpaceTimeField(g64, times, vals)
        lam = float(m) ** 4
        expect = (1 - np.exp(-lam * 0.5)) / lam * np.cos(m * x64)
        worst_m = max(worst_m, float(np.abs(apply_S(f, 0.5).values[..., 0] - expect).max()))
    ok = worst_r <= 1e-8 and worst_m <= 1e-6
    verdict(6, ok, f"Riemann-oracle gap {worst_r:.2e} (<=1e-8), "
                   f"closed-form gap {worst_m:.2e} (<=1e-6)")


# 7 ---------------------------------------------------------------------

def test_criterion_07_operator_bounds():
    g = Grid(1, 2 * np.pi, 32)
    times = 0.5 * (np.arange(13) / 12) ** 4
    base = operator_bound_experiment(g, times, 64, seed=0)
    dbl = operator_bound_experiment(g, times, 128, seed=0)
    gs = dbl["s_over_y1"] / base["s_over_y1"] - 1.0
    gd = dbl["sdiv_over_y2"] / base["sdiv_over_y2"] - 1.0
    ok = (np.isfinite(base["s_over_y1"]) and np.isfinite(base["sdiv_over_y2"])
          and gs <= 0.10 and gd <= 0.10)
    verdict(7, ok, f"fitted C_S={base['s_over_y1']:.3f}, C_Sdiv={base['sdiv_over_y2']:.3f}; "
                   f"doubling growth {gs:.2%}/{gd:.2%} (<=10%)")


# 8 ---------------------------------------------------------------------

def test_criterion_08_smoothing_estimate_ratios():
    g = Grid(1, 2 * np.pi, 256)
    R0 = g.box_length / 4
    rows = [smoothing_family_constants(g, R0 / 2 ** j) for j in range(3)]
    drifts = {}
    for key in ("cylinder_ratio", "weighted_sup_ratio", "quartic_ratio"):
        vals = [r[key] for r in rows]
        assert all(np.isfinite(v) and v > 0 for v in vals)
        drifts[key] = max(vals) / min(vals) - 1.0
    worst = max(drifts.values())
    verdict(8, worst <= 0.10,
            f"ratio drift across 3 dyadic scales = {worst:.2%} (<=10%)")


# 9 ---------------------------------------------------------------------

def test_criterion_09_square_function_comparability():
    g = Grid(1, 2 * np.pi, 128)
    x = g.coordinates()[0]
    R = g.box_length / 4
    fit = [GridField(g, (a * np.sin(q * x))[..., None])
           for q in (1, 4) for a in (0.5, 1.0)]
    verify = [GridField(g, (0.7 * np.sin(q * x))[..., None]) for q in (2, 8, 16)]
    verify.append(GridField(g, (np.sin(x) + 0.3 * np.sin(8 * x))[..., None]))
    cfit = max(carleson_functional(f, i, R) / bmo_seminorm(f, R) ** 2
               for f in fit for i in (1, 2))
    ok = np.isfinite(cfit) and cfit > 0
    for f in fit + verify:
        b = bmo_seminorm(f, R)
        for i in (1, 2):
            ok = ok and carleson_functional(f, i, R) <= 1.10 * cfit * b ** 2
    verdict(9, ok, f"single fitted C = {cfit:.4f} covers the family for both kernels")


# 10 --------------------------------------------------------------------

def test_criterion_10_contraction_family():
    g = Grid(1, 2 * np.pi, 64)
    cfg = FlowConfig(g, TARGET, t_final=1.0, num_frames=32, picard_tol=1e-9)
    thetas, ok = {}, True
    detail = []
    for eps in (0.02, 0.05, 0.1):
        _, diag = picard_solve(cfg, equator_initial_data(g, eps))
        th = max(diag.contraction_ratios)
        thetas[eps] = th
        d = diag.diff_norms
        geo = (d[-1] / d[0]) ** (1.0 / (len(d) - 1))
        ok = ok and diag.converged and th < 1.0 and geo <= th + 0.05
        detail.append(f"eps={eps}: theta={th:.3f}, geometric rate={geo:.3f}")
    ok = ok and thetas[0.02] <= thetas[0.05] + 1e-9 <= thetas[0.1] + 2e-9
    verdict(10, ok, "; ".join(detail))


# 11 --------------------------------------------------------------------

def test_criterion_11_fixed_point_and_equilibria():
    g = Grid(1, 2 * np.pi, 64)
    cfg = FlowConfig(g, TARGET, t_final=1.0, num_frames=16, picard_tol=1e-9)
    _, diag_c = picard_solve(cfg, constant_initial_data(g, [1.0, 0, 0]))
    cfg2 = FlowConfig(g, TARGET, t_final=1.0, num_frames=32, picard_tol=1e-9)
    _, diag_e = picard_solve(cfg2, equator_initial_data(g, 0.05))
    ok = (diag_c.diff_norms[0] == 0.0 and diag_c.converged
          and diag_e.converged
          and diag_e.fixed_point_residual <= 2 * cfg2.picard_tol)
    verdict(11, ok, f"constant d_1 = {diag_c.diff_norms[0]}, "
                    f"residual = {diag_e.fixed_point_residual:.2e} (<= {2*cfg2.picard_tol:.0e})")


# 12 --------------------------------------------------------------------

def test_criterion_12_constraint_preservation():
    def run(M, frames):
        g = Grid(1, 2 * np.pi, M)
        cfg = FlowConfig(g, TARGET, t_final=1.0, num_frames=frames, picard_tol=1e-11)
        _, diag = picard_solve(cfg, equator_initial_data(g, 0.1))
        return g, diag

    g_ref, diag_ref = run(64, 32)
    _, diag_coarse = run(32, 12)
    _, diag_fine = run(64, 24)
    order = np.log2(max(diag_coarse.rho_mass) / max(diag_fine.rho_mass))
    ok = (max(diag_ref.rho_mass) <= 1e-6 * g_ref.volume
          and diag_ref.orthogonality_residual <= 1e-12
          and order >= 1.0)
    verdict(12, ok, f"sup rho-mass = {max(diag_ref.rho_mass):.2e} "
                    f"(<= {1e-6*g_ref.volume:.2e}), refinement order = {order:.2f}, "
                    f"orthogonality = {diag_ref.orthogonality_residual:.1e}")


# 13 --------------------------------------------------------------------

def test_criterion_13_distance_estimate():
    g = Grid(1, 2 * np.pi, 128)
    u0 = equator_initial_data(g, 0.2)
    report = distance_experiment(u0, R=g.box_length / 4, delta=0.05)
    margin = min(r["rhs"] - r["lhs"] for r in report["rows"])
    verdict(13, report["all_hold"],
            f"K = {report['K']:.2f}, bound holds at all sampled t "
            f"(min slack {margin:.3f})")


# 14 --------------------------------------------------------------------

def test_criterion_14_intrinsic_mode():
    from biflow.fields import gradient

    def fitted(M):
        g = Grid(1, 2 * np.pi, M)
        best = 0.0
        for eps, q in ((0.1, 1), (0.2, 2)):
            u = equator_initial_data(g, eps, q)
            f3 = np.sqrt((nonlinearity_f3(u, TARGET).values ** 2).sum(-1))
            gmag = np.sqrt((gradient(u) ** 2).sum((-2, -1)))
            mask = gmag ** 4 > 1e-10
            best = max(best, float((f3[mask] / gmag[mask] ** 4).max()))
        return best

    c64, c128 = fitted(64), fitted(128)
    drift = abs(c128 - c64) / c64
    g = Grid(1, 2 * np.pi, 64)
    a = np.abs(nonlinearity_f3(equator_initial_data(g, 0.05), TARGET).values).max()
    b = np.abs(nonlinearity_f3(equator_initial_data(g, 0.025), TARGET).values).max()
    quartic = a / b
    cfg = FlowConfig(g, TARGET, t_final=1.0, num_frames=32, picard_tol=1e-9,
                     mode="intrinsic")
    _, diag = picard_solve(cfg, equator_initial_data(g, 0.05))
    th = max(diag.contraction_ratios)
    ok = (drift <= 0.05 and abs(quartic - 16.0) <= 0.05 * 16.0
          and diag.converged and th < 1.0)
    verdict(14, ok, f"fitted C drift {drift:.2%}, quartic ratio {quartic:.3f}, "
                    f"intrinsic theta = {th:.3f}")


# 15 --------------------------------------------------------------------

def test_criterion_15_flow_self_similarity():
    g1 = Grid(1, 2 * np.pi, 64)
    cfg1 = FlowConfig(g1, TARGET, t_final=1.0, num_frames=32, picard_tol=1e-10)
    traj1, _ = picard_solve(cfg1, equator_initial_data(g1, 0.05))
    g2 = Grid(1, np.pi, 64)
    x2 = g2.coordinates()[0]
    phase = 0.05 * np.sin(2 * x2)
    vals = np.stack([np.cos(phase), np.sin(phase), np.zeros_like(phase)], axis=-1)
    cfg2 = FlowConfig(g2, TARGET, t_final=1.0 / 16, num_frames=32, picard_tol=1e-10)
    traj2, _ = picard_solve(cfg2, GridField(g2, vals))
    gap = float(np.abs(traj2.values - traj1.values).max())
    verdict(15, gap <= 1e-6, f"rescaled-run sup gap = {gap:.2e} (<= 1e-6)")


# 16 --------------------------------------------------------------------

def test_criterion_16_determinism(tmp_path):
    def digest(root):
        out = {}
        for p in sorted(Path(root).rglob("*")):
            # the manifest records wall time and is the one exempt file
            if p.is_file() and p.name != "run_manifest.json":
                out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    run_suite("all", out_dir=tmp_path / "a", seed=123)
    run_suite("all", out_dir=tmp_path / "b", seed=123)
    da, db = digest(tmp_path / "a"), digest(tmp_path / "b")
    verdict(16, bool(da) and da == db,
            f"{len(da)} report files byte-identical across repeated runs")
