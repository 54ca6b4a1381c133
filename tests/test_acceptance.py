"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every tolerance below is pinned; no value is calibrated at runtime.
"""

import numpy as np
import pytest

from vwschro.conjugate1d import (
    Problem1D,
    build_conjugation,
    conjugation_identity_error,
    energy_monitor,
    solve_original,
)
from vwschro.dist import FourierTable, check_membership
from vwschro.netlab import EpsNet, PerturbationSpec, fit_moderateness, run_net
from vwschro.netlab import test_consistency as consistency_check
from vwschro.netlab import test_negligibility as negligibility_check
from vwschro.problems import (
    consistency_case_1d,
    const_time_coeff,
    delta_showcase_1d,
    free_particle_1d,
    free_particle_2d,
    showcase_2d,
    smooth_classical_1d,
    zero_time_coeff,
)
from vwschro.psdo import (
    CutoffChi,
    Problem2D,
    assemble_conjugated,
    build_lambda,
    choose_parameters,
    conjugation_identity_error_2d,
    garding_certify,
    imag_coefficient_bound,
    invert_exp_lambda,
    select_M,
    solve2d,
)
from vwschro.regularize import ChainCoords, Scale, chain_certificate, omega
from vwschro.spectral import Grid, GridFn, random_bandlimited

SHOWCASE_NET = (0.2, 0.1, 0.05, 0.025)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name:<28s}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_c01_plane_wave_anchor():
    g1 = Grid(1, 256, 20.0)
    p1 = free_particle_1d(g1, T=1.0, k_mode=16)
    tr1 = solve_original(p1, dt=1e-3, m_set=(0,))
    k0 = 16 * np.pi / g1.half_length
    exact1 = np.exp(1j * k0 * g1.axis() - 1j * k0**2)
    err1 = float(np.max(np.abs(tr1.final_state().values - exact1)))

    g2 = Grid(2, 64, 10.0)
    p2 = free_particle_2d(g2, T=1.0, modes=(3, 2))
    rng = np.random.default_rng(0)
    lam = build_lambda(0.0, 1.0, CutoffChi(), g2)
    inv = invert_exp_lambda(lam, rng=rng)
    tr2 = solve2d(p2, lam, inv, dt=1e-3, m_set=(0,))
    k1 = 3 * np.pi / g2.half_length
    k2 = 2 * np.pi / g2.half_length
    x1, x2 = g2.x_meshes()
    exact2 = np.exp(1j * (k1 * x1 + k2 * x2) - 1j * (k1**2 + k2**2))
    err2 = float(np.max(np.abs(tr2.final_state().values - exact2)))
    report(1, "plane-wave anchor", err1 < 1e-10 and err2 < 1e-10,
           f"1D err {err1:.2e}, 2D err {err2:.2e}")


def test_c02_conjugation_identities():
    rng = np.random.default_rng(7)
    g1 = Grid(1, 8192, 20.0)
    errs1 = []
    for eps in (0.2, 0.1, 0.05):
        p = delta_showcase_1d(eps, grid=g1)
        cd = build_conjugation(p)
        for _ in range(7):
            v = random_bandlimited(g1, rng, band_frac=0.15, localized=True,
                                   width_frac=0.15)
            t = float(rng.uniform(0.15, 0.35))
            errs1.append(conjugation_identity_error(p, cd, v, t))
    err1 = max(errs1)

    errs2 = []
    for eps in (0.2, 0.1, 0.05):
        sc = showcase_2d(eps, rng=rng)
        bundle = assemble_conjugated(sc.problem, sc.lam, sc.inverse)
        for _ in range(7):
            v = random_bandlimited(sc.problem.grid, rng, localized=True)
            t = float(rng.uniform(0.0, sc.problem.T))
            errs2.append(conjugation_identity_error_2d(bundle, v, t))
    err2 = max(errs2)
    report(2, "conjugation identities", err1 < 1e-7 and err2 < 1e-5,
           f"1D max {err1:.2e} over {len(errs1)} v, 2D max {err2:.2e} over {len(errs2)} v")


def test_c03_unitarity():
    g1 = Grid(1, 1024, 20.0)
    eps, T = 0.1, 1.0
    base = free_particle_1d(g1, T=T, eps=eps)
    x = g1.axis()
    p1 = Problem1D(grid=g1, T=T, a=base.a, a1=zero_time_coeff(eps),
                   a0=const_time_coeff(1.0),
                   b1=GridFn(g1, np.zeros(g1.points)),
                   b0=GridFn(g1, 2.0 / (1.0 + x**2)),
                   g=GridFn(g1, np.exp(-(x**2))), eps=eps, ca=1.0, ca_tilde=1.0)
    tr1 = solve_original(p1, dt=1e-3, m_set=(0,))
    drift1 = float(np.max(np.abs(tr1.norms[0] - tr1.norms[0][0])) / tr1.norms[0][0])

    g2 = Grid(2, 64, 10.0)
    base2 = free_particle_2d(g2, T=T, eps=eps)
    x1, x2 = g2.x_meshes()
    bc = GridFn(g2, 0.2 * np.ones(g2.shape))
    p2 = Problem2D(grid=g2, T=T, a=base2.a,
                   a_coeffs=(const_time_coeff(1.0), const_time_coeff(0.7)),
                   b_fields=(bc, bc), a0=const_time_coeff(1.0),
                   b0=GridFn(g2, 0.5 / (1.0 + x1**2 + x2**2)),
                   g=GridFn(g2, np.exp(-(x1**2) - x2**2)),
                   eps=eps, ca=1.0, ca_tilde=1.0)
    rng = np.random.default_rng(0)
    lam = build_lambda(0.0, 1.0, CutoffChi(), g2)
    inv = invert_exp_lambda(lam, rng=rng)
    tr2 = solve2d(p2, lam, inv, dt=1e-3, m_set=(0,))
    conj = tr2.meta["conjugated"]
    drift2 = float(np.max(np.abs(conj.norms[0] - conj.norms[0][0])) / conj.norms[0][0])
    report(3, "unitarity", drift1 < 1e-8 and drift2 < 1e-6,
           f"1D drift {drift1:.2e}, 2D drift {drift2:.2e}")


def test_c04_lambda_certificates_128():
    rng = np.random.default_rng(3)
    g = Grid(2, 128, 5.0)
    chi = CutoffChi()
    choice = choose_parameters(0.4, 1.0, 1.0, 0.0, g, chi, rng=rng)  # M = 0.2
    ls = choice.lam
    certs = ls.certificates
    support_ok = certs["support_exact"]
    sign_ok = certs["sign_max"] <= 1e-12
    bound_ok = certs["sup_abs"] <= choice.M * np.pi / 2 + 1e-12
    inv = invert_exp_lambda(ls, probe_trials=2, probe_iters=5,
                            residual_probes=3, rng=rng)
    res_ok = inv.achieved_residual < 1e-6
    report(4, "lambda certificates @128^2",
           support_ok and sign_ok and bound_ok and res_ok,
           f"M={choice.M}, h={choice.h}, sign_max={certs['sign_max']:.1e}, "
           f"residual={inv.achieved_residual:.2e}")


def test_c05_garding_surrogate():
    from vwschro.problems import saturating_problem_2d as saturating_problem

    rng = np.random.default_rng(11)
    g = Grid(2, 64, 10.0)
    kappa = 0.5
    p = saturating_problem(g, kappa=kappa)
    C = imag_coefficient_bound(p.a_coeffs, p.b_fields, p.T)
    M = select_M(C, p.ca, 1.0, 0.0)
    cert_full = garding_certify(p, build_lambda(M, 2.0, CutoffChi(), g),
                                quad_probes=3, rng=rng)
    ok_full = cert_full.positive and cert_full.lattice_min >= -1e-12 * max(
        cert_full.scale, 1.0)
    cert_half = garding_certify(p, build_lambda(0.5 * M, 2.0, CutoffChi(), g),
                                quad_probes=1, rng=rng)
    ok_half = (not cert_half.positive) and cert_half.witness is not None
    report(5, "positivity certificate", ok_full and ok_half,
           f"min(M)={cert_full.lattice_min:.2e} vs scale {cert_full.scale:.2e}; "
           f"min(M/2)={cert_half.lattice_min:.2e} witness={cert_half.witness is not None}")


def test_c06_energy_inequality():
    g = Grid(1, 4096, 20.0)
    margins = []
    holds = True
    for eps in SHOWCASE_NET:
        p = delta_showcase_1d(eps, grid=g)
        tr = solve_original(p, dt=5e-4, m_set=(0,))
        rep = energy_monitor(tr.meta["conjugated"])
        holds = holds and rep.holds
        margins.append(rep.min_margin)
    report(6, "per-step energy inequality", holds,
           f"min margins per eps: {['%.3f' % m for m in margins]}")


def test_c07_moderateness():
    g = Grid(1, 4096, 20.0)

    def solve_showcase(eps):
        return solve_original(delta_showcase_1d(eps, grid=g), dt=5e-4,
                              m_set=(0, 1, 2))

    sn = run_net(solve_showcase, EpsNet(points=SHOWCASE_NET))
    finite = True
    residual_ok = True
    fits = []
    for m in (0, 1, 2):
        rep = fit_moderateness(sn, m)
        finite = finite and rep.finite
        residual_ok = residual_ok and rep.residual < 0.10
        fits.append((m, round(rep.exponent, 3), round(rep.residual, 4)))

    g_s = Grid(1, 1024, 20.0)

    def solve_smooth(eps):
        return solve_original(smooth_classical_1d(eps, grid=g_s, T=0.5),
                              dt=1e-3, m_set=(0,))

    sn_s = run_net(solve_smooth, EpsNet(points=SHOWCASE_NET))
    rep_s = fit_moderateness(sn_s, 0)
    control_ok = abs(rep_s.exponent) < 0.1
    report(7, "moderateness fits", finite and residual_ok and control_ok,
           f"showcase (m,N,res): {fits}; control N={rep_s.exponent:.4f}")


def test_c08_negligibility():
    g = Grid(1, 1024, 20.0)
    q = 3

    def paired(eps, perturbed):
        gp = (lambda x: eps**q * np.exp(-((x - 1.0) ** 2))) if perturbed else None
        return solve_original(smooth_classical_1d(eps, grid=g, T=0.3, g_pert=gp),
                              dt=1e-3, m_set=(0,), store_stride=30)

    pert = PerturbationSpec(target="g", rate=q)
    rep = negligibility_check(paired, EpsNet(points=SHOWCASE_NET), pert, m=0)
    rate_ok = abs(rep.decay_exponent - 3.0) < 0.3
    anchor_ok = rep.anchor_max < 1e-8
    report(8, "negligibility / uniqueness", rate_ok and anchor_ok and rep.verdict,
           f"fitted decay {rep.decay_exponent:.3f}, anchor {rep.anchor_max:.1e}")


def test_c09_consistency():
    g = Grid(1, 1024, 20.0)
    net = EpsNet(points=(0.4, 0.2, 0.1, 0.05))
    rep_smooth = consistency_check(consistency_case_1d("smooth", grid=g, dt=2e-3),
                                   net, m_set=(0, 1))
    smooth_ok = (rep_smooth.monotone
                 and all(f >= 2.0 for f in rep_smooth.halving_factors)
                 and rep_smooth.orders[0] >= 2.0)
    rep_band = consistency_check(consistency_case_1d("bandlimited", grid=g, dt=2e-3),
                                 net, m_set=(0,))
    band_ok = all(e < 1e-9 for e in rep_band.errors[0])
    rep_bump = consistency_check(consistency_case_1d("bump", grid=g, dt=2e-3),
                                 net, m_set=(0,))
    bump_ok = abs(rep_bump.orders[0] - 1.0) < 0.35 and \
        rep_bump.orders[0] < rep_smooth.orders[0]
    report(9, "consistency with exact", smooth_ok and band_ok and bump_ok,
           f"orders: smooth {rep_smooth.orders[0]:.2f}, bump {rep_bump.orders[0]:.2f}; "
           f"bandlimited max err {max(rep_band.errors[0]):.1e}")


def test_c10_membership_example():
    xi = np.linspace(-6.0, 6.0, 2**20 + 1)
    tab = FourierTable(xi=xi, values=np.sin(np.exp(xi**2)) * np.exp(-(xi**2)))
    r1 = check_membership(tab, 1, (-6, 6), 8)
    r2 = check_membership(tab, 2, (-6, 6), 8)
    report(10, "membership checker", r1.passed and not r2.passed,
           f"i=1 pass (p={max(r1.exponents.values()):.2f}), "
           f"i=2 fail (p={r2.exponents[2]:.2f} > 8)")


def test_c11_scale_mechanics():
    s = Scale("logchain")
    w = omega(s, ChainCoords(1, float(np.exp(np.exp(np.e)))))
    exact_ok = w == 1.0
    cert_ok = True
    for lam1 in np.geomspace(4.2e6, 1e300, 40):
        for N in range(0, 9):
            c = chain_certificate(s, ChainCoords(1, float(lam1)), N)
            cert_ok = cert_ok and c.holds
    report(11, "scale mechanics", exact_ok and cert_ok,
           f"omega(e^e^e chain)={w!r}; certificate verified for N<=8 over the domain")
