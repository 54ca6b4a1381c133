"""2D conjugation machinery: cutoff, escape symbol, exponential operators,
Neumann inversion, operator bundle, positivity certificate, solver."""

import numpy as np
import pytest

from vwschro.errors import (
    InfeasibleParametersError,
    NotInvertibleError,
    ParameterError,
)
from vwschro.problems import free_particle_2d, showcase_2d, zero_time_coeff, const_time_coeff
from vwschro.psdo import (
    CutoffChi,
    Problem2D,
    apply_exp_lambda,
    assemble_conjugated,
    build_lambda,
    choose_parameters,
    conjugation_identity_error_2d,
    garding_certify,
    imag_coefficient_bound,
    invert_exp_lambda,
    leading_residual_symbol_apply,
    residual_apply,
    select_M,
    solve2d,
)
from vwschro.spectral import Grid, GridFn, l2_norm, operator_norm_probe, random_bandlimited


def band_probe(g, rng, klo, khi):
    k1, k2 = g.k_meshes()
    mag = np.hypot(k1, k2)
    mask = (mag >= klo) & (mag <= khi)
    c = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) * mask
    v = GridFn(g, np.fft.ifft2(c))
    return v * (1.0 / l2_norm(v))


class TestCutoff:
    def test_defining_properties(self):
        chi = CutoffChi()
        ts = np.linspace(-2, 2, 2001)
        vals = chi(ts)
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(vals[np.abs(ts) <= 0.5] == 1.0)
        assert np.all(vals[np.abs(ts) >= 1.0] == 0.0)
        dv = np.gradient(vals, ts)
        assert np.max(ts * dv) < 1e-9


class TestLambdaSymbol:
    def test_support_exact(self, grid2d):
        ls = build_lambda(1.0, 4.0, CutoffChi(), grid2d)
        assert ls.certificates["support_exact"]
        # spot check one slice
        lam = ls.lambda_slice(5)
        k = grid2d.freq_axis()
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        low = np.hypot(K1, K2) <= 2.0
        assert np.all(lam[:, low] == 0.0)

    def test_zero_on_x_origin_ray(self, grid2d):
        # lambda(0, xi) = 0: the odd primitive vanishes at x = 0
        ls = build_lambda(1.0, 2.0, CutoffChi(), grid2d)
        j_half = grid2d.points // 2  # x1 = 0 row
        lam = ls.lambda_slice(j_half)
        assert np.max(np.abs(lam[j_half])) == 0.0  # x2 = 0 too

    def test_sign_condition(self, grid2d):
        ls = build_lambda(0.7, 2.0, CutoffChi(), grid2d)
        assert ls.certificates["sign_ok"]
        assert ls.certificates["sign_max"] <= 1e-12

    def test_amplitude_bound(self, grid2d):
        M = 1.3
        ls = build_lambda(M, 2.0, CutoffChi(), grid2d)
        assert ls.certificates["sup_abs"] <= M * np.pi / 2.0 + 1e-12

    def test_parameter_validation(self, grid2d):
        with pytest.raises(ParameterError):
            build_lambda(-1.0, 2.0, CutoffChi(), grid2d)
        with pytest.raises(ParameterError):
            build_lambda(1.0, 0.5, CutoffChi(), grid2d)


class TestSelectParameters:
    def test_M_formula_arithmetic(self):
        assert select_M(1.0, 1.0, 0.5, 2.0) == 2.0

    def test_M_zero_limit(self, grid2d, rng):
        choice = choose_parameters(0.0, 1.0, 0.1, 2.0, grid2d, CutoffChi(), rng=rng)
        assert choice.M == 0.0
        assert choice.residual_probe == 0.0
        ls = build_lambda(choice.M, choice.h, CutoffChi(), grid2d)
        u = random_bandlimited(grid2d, rng)
        assert l2_norm(apply_exp_lambda(+1, ls, u) - u) == 0.0

    def test_infeasible_raises(self, grid2d_small, rng):
        # M = 2 needs an h ladder beyond this lattice's Nyquist
        with pytest.raises(InfeasibleParametersError):
            choose_parameters(4.0, 1.0, 1.0, 0.0, grid2d_small, CutoffChi(), rng=rng)

    def test_moderate_M_accepted(self, grid2d, rng):
        choice = choose_parameters(0.6, 1.0, 1.0, 0.0, grid2d, CutoffChi(), rng=rng)
        assert choice.M == 0.3
        assert choice.residual_probe < 0.9
        # search log records every probe
        assert all(entry[0] == "probe" for entry in choice.log)

    def test_showcase_builds_one_symbol_per_rung(self, monkeypatch):
        # the showcase solves with the symbol of the accepted rung, its
        # certificates and row cache included; it builds no second one
        import vwschro.problems as problems
        import vwschro.psdo as psdo

        built, choices = [], []
        build, choose = psdo.build_lambda, problems.choose_parameters

        def counted_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def recorded_choose(*args, **kwargs):
            choices.append(choose(*args, **kwargs))
            return choices[-1]

        monkeypatch.setattr(psdo, "build_lambda", counted_build)
        monkeypatch.setattr(problems, "choose_parameters", recorded_choose)
        # this coupling fails the first rung (h = 1) and passes the second
        sc = showcase_2d(0.2, Grid(2, 32, 10.0), T=0.01, im_coupling=1.0,
                         rng=np.random.default_rng(0))
        (choice,) = choices
        assert [entry[1] for entry in choice.log] == [1.0, 2.0]
        assert len(built) == len(choice.log)
        assert sc.lam is built[-1] is choice.lam
        assert (sc.lam.M, sc.lam.h) == (sc.M, sc.h) == (choice.M, choice.h)

    def test_doubling_search_brackets(self, grid2d):
        # bracketing oracle: at this M the first rung fails the threshold
        # and the next passes; both endpoints are re-probed
        rng = np.random.default_rng(5)
        choice = choose_parameters(1.4, 1.0, 1.0, 0.0, grid2d, CutoffChi(), rng=rng)
        assert choice.M == 0.7
        assert choice.h == 2.0
        assert choice.h_bracket == 1.0
        assert choice.bracket_probe >= 0.9 > choice.residual_probe
        for h, expect_pass, seed in ((choice.h, True, 11), (choice.h_bracket, False, 13)):
            ls = build_lambda(choice.M, h, CutoffChi(), grid2d)
            nrm = operator_norm_probe(
                lambda w: residual_apply(ls, w), 3, grid2d, iters=6,
                rng=np.random.default_rng(seed), localized=True,
                project_band=2.0 / 3.0)
            if expect_pass:
                assert nrm < 0.9
            else:
                assert nrm >= 0.85  # shy of threshold only by probe noise


class TestExpLambda:
    def test_lowband_identity(self, grid2d, rng):
        ls = build_lambda(1.0, 4.0, CutoffChi(), grid2d)
        u = band_probe(grid2d, rng, 0.0, 1.9)  # inside |xi| <= h/2
        out = apply_exp_lambda(+1, ls, u)
        assert l2_norm(out - u) < 1e-10

    def test_linearity(self, grid2d, rng):
        ls = build_lambda(0.5, 2.0, CutoffChi(), grid2d)
        u, v = random_bandlimited(grid2d, rng), random_bandlimited(grid2d, rng)
        lhs = apply_exp_lambda(1, ls, u + 2.0 * v)
        rhs = apply_exp_lambda(1, ls, u) + 2.0 * apply_exp_lambda(1, ls, v)
        assert l2_norm(lhs - rhs) < 1e-12

    def test_amplification_envelope(self, grid2d, rng):
        # probe oracle: L2 amplification stays under e^{C M} with a
        # moderate fitted C across random probes
        for M in (0.25, 0.5):
            ls = build_lambda(M, 2.0, CutoffChi(), grid2d)
            amp = operator_norm_probe(lambda w: apply_exp_lambda(1, ls, w),
                                      4, grid2d, iters=6, rng=rng, localized=True)
            C_fit = np.log(max(amp, 1.0)) / M
            assert C_fit < 2.0


class TestNeumannInverse:
    def test_M_zero_trivial(self, grid2d, rng):
        ls = build_lambda(0.0, 2.0, CutoffChi(), grid2d)
        inv = invert_exp_lambda(ls, rng=rng)
        assert inv.probe_norm == 0.0
        assert inv.achieved_residual == 0.0
        u = random_bandlimited(grid2d, rng)
        assert l2_norm(inv.apply(u) - u) == 0.0

    def test_residual_quality(self, grid2d, rng):
        # composition residual oracle over random bandlimited probes
        choice = choose_parameters(0.7, 1.0, 1.0, 0.0, grid2d, CutoffChi(), rng=rng)
        ls = build_lambda(choice.M, choice.h, CutoffChi(), grid2d)
        inv = invert_exp_lambda(ls, rng=rng)
        assert inv.achieved_residual < 1e-6
        worst = 0.0
        for _ in range(5):
            u = random_bandlimited(grid2d, rng, localized=True)
            back = apply_exp_lambda(+1, ls, inv.apply(u))
            worst = max(worst, l2_norm(back - u) / l2_norm(u))
        assert worst < 1e-6

    def test_not_invertible_raises(self, grid2d, rng):
        # M = 1 with a tiny h is far outside the contraction region
        ls = build_lambda(1.0, 1.0, CutoffChi(), grid2d)
        with pytest.raises(NotInvertibleError):
            invert_exp_lambda(ls, rng=rng)

    def test_first_order_structure(self, grid2d, rng):
        # operator-difference oracle against the quantized first-order
        # expansion term.  Measured behavior on desk-scale lattices: the
        # first-order term itself scales cleanly like 1/h (ratio ~2 per
        # h-doubling), while the difference r - op(lead) decreases more
        # slowly, because the second-order remainder carries |x|^2-sized
        # domain constants over <xi>_h^2 and only becomes subordinate for
        # h far beyond any desk lattice.  Both facts are asserted; the
        # asymptotic quadratic shrink is out of numerical reach here.
        discs, leads = [], []
        for h in (3.0, 6.0):
            ls = build_lambda(0.3, h, CutoffChi(), grid2d)
            worst_d, worst_l = 0.0, 0.0
            for _ in range(3):
                v = band_probe(grid2d, rng, h / 2, h)
                rv = residual_apply(ls, v)
                lv = leading_residual_symbol_apply(ls, v)
                worst_d = max(worst_d, l2_norm(rv - lv))
                worst_l = max(worst_l, l2_norm(lv))
            discs.append(worst_d)
            leads.append(worst_l)
        assert 1.5 < leads[0] / leads[1] < 3.0  # first-order term ~ 1/h
        assert discs[1] < discs[0]  # remainder decreases in h
        assert discs[0] < 0.1  # and is small in absolute terms


class TestConjugatedBundle:
    def test_lambda_zero_reproduces_original(self, grid2d, rng):
        sc_p = free_particle_2d(grid2d, T=0.2)
        x1, x2 = grid2d.x_meshes()
        b1 = GridFn(grid2d, 0.3 / (1.0 + x1**2 + x2**2))
        p = Problem2D(grid=grid2d, T=0.2, a=sc_p.a,
                      a_coeffs=(const_time_coeff(0.5), const_time_coeff(0.5)),
                      b_fields=(b1, b1), a0=const_time_coeff(1.0), b0=b1,
                      g=sc_p.g, eps=0.1, ca=1.0, ca_tilde=1.0)
        ls = build_lambda(0.0, 2.0, CutoffChi(), grid2d)
        inv = invert_exp_lambda(ls, rng=rng)
        bundle = assemble_conjugated(p, ls, inv)
        for _ in range(3):
            u = random_bandlimited(grid2d, rng)
            d = bundle.apply_full(0.1, u) - bundle.apply_S(0.1, u)
            assert l2_norm(d) < 1e-10

    def test_d0_probe_finite_and_bounded(self, grid2d, rng):
        # first-order coefficients off, M > 0: the zero-order lump is the
        # whole correction; its probe norm stays under the fitted e^{CM}
        # envelope times the principal scale
        base = free_particle_2d(grid2d, T=0.2)
        ls = build_lambda(0.3, 2.0, CutoffChi(), grid2d)
        inv = invert_exp_lambda(ls, rng=rng)
        bundle = assemble_conjugated(base, ls, inv)
        nrm = operator_norm_probe(lambda u: bundle.apply_d0(0.1, u), 2, grid2d,
                                  iters=4, rng=rng, localized=True)
        assert np.isfinite(nrm)
        kmax2 = 2 * grid2d.nyquist**2
        assert nrm <= np.exp(2.0 * 0.3) * kmax2

    def test_showcase_identity(self, rng):
        # two-sided evaluation oracle on the complex-coefficient showcase
        sc = showcase_2d(0.1, rng=rng)
        bundle = assemble_conjugated(sc.problem, sc.lam, sc.inverse)
        errs = []
        for _ in range(5):
            v = random_bandlimited(sc.problem.grid, rng, localized=True)
            errs.append(conjugation_identity_error_2d(bundle, v, 0.1))
        assert max(errs) < 1e-5


from vwschro.problems import saturating_problem_2d as saturating_problem


class TestGarding:
    def test_real_coefficients_positive(self, grid2d, rng):
        # all Im parts zero: the symbol reduces to the escape-gradient
        # term, nonnegative by the sign condition
        p = saturating_problem(grid2d, kappa=0.0)
        ls = build_lambda(0.4, 2.0, CutoffChi(), grid2d)
        cert = garding_certify(p, ls, rng=rng)
        assert cert.positive
        assert cert.lattice_min >= -1e-12 * max(cert.scale, 1.0)

    def test_saturating_min_near_zero(self, grid2d, rng):
        kappa = 0.5
        p = saturating_problem(grid2d, kappa=kappa)
        C = imag_coefficient_bound(p.a_coeffs, p.b_fields, p.T)
        assert abs(C - np.sqrt(2.0) * kappa) < 1e-12
        M = select_M(C, p.ca, 1.0, 0.0)
        ls = build_lambda(M, 2.0, CutoffChi(), grid2d)
        cert = garding_certify(p, ls, rng=rng)
        assert cert.positive
        assert abs(cert.lattice_min) <= 1e-9 * max(cert.scale, 1.0)

    def test_undersized_M_fails_with_witness(self, grid2d, rng):
        kappa = 0.5
        p = saturating_problem(grid2d, kappa=kappa)
        C = imag_coefficient_bound(p.a_coeffs, p.b_fields, p.T)
        ls = build_lambda(0.5 * select_M(C, p.ca, 1.0, 0.0), 2.0,
                          CutoffChi(), grid2d)
        cert = garding_certify(p, ls, rng=rng)
        assert not cert.positive
        assert cert.witness is not None
        assert cert.lattice_min < -1e-9 * max(cert.scale, 1.0)

    def test_quadratic_form_bound_reported(self, grid2d, rng):
        p = saturating_problem(grid2d, kappa=0.3)
        C = imag_coefficient_bound(p.a_coeffs, p.b_fields, p.T)
        ls = build_lambda(select_M(C, p.ca, 1.0, 0.0), 2.0, CutoffChi(), grid2d)
        cert = garding_certify(p, ls, quad_probes=3, rng=rng)
        assert np.isfinite(cert.quad_bound)
        assert cert.quad_bound >= 0.0


class TestSolve2D:
    def test_plane_wave_exact(self, grid2d_small, rng):
        p = free_particle_2d(grid2d_small, T=1.0)
        ls = build_lambda(0.0, 1.0, CutoffChi(), grid2d_small)
        inv = invert_exp_lambda(ls, rng=rng)
        tr = solve2d(p, ls, inv, dt=1e-3, m_set=(0,))
        k1 = 3 * np.pi / grid2d_small.half_length
        k2 = 2 * np.pi / grid2d_small.half_length
        x1, x2 = grid2d_small.x_meshes()
        exact = np.exp(1j * (k1 * x1 + k2 * x2) - 1j * (k1**2 + k2**2))
        assert np.max(np.abs(tr.final_state().values - exact)) < 1e-9

    def test_unitary_real_constant_coefficients(self, grid2d_small, rng):
        base = free_particle_2d(grid2d_small, T=0.5)
        x1, x2 = grid2d_small.x_meshes()
        b_const = GridFn(grid2d_small, 0.2 * np.ones(grid2d_small.shape))
        b0 = GridFn(grid2d_small, 0.5 / (1.0 + x1**2 + x2**2))
        p = Problem2D(grid=grid2d_small, T=0.5, a=base.a,
                      a_coeffs=(const_time_coeff(1.0), const_time_coeff(0.7)),
                      b_fields=(b_const, b_const), a0=const_time_coeff(1.0),
                      b0=b0, g=base.g, eps=0.1, ca=1.0, ca_tilde=1.0)
        ls = build_lambda(0.0, 1.0, CutoffChi(), grid2d_small)
        inv = invert_exp_lambda(ls, rng=rng)
        tr = solve2d(p, ls, inv, dt=1e-3, m_set=(0,))
        conj = tr.meta["conjugated"]
        drift = np.max(np.abs(conj.norms[0] - conj.norms[0][0])) / conj.norms[0][0]
        assert drift < 1e-6

    @pytest.mark.slow
    def test_self_convergence_lawson(self, rng):
        # Richardson oracle on the complex-coefficient showcase
        g = Grid(2, 32, 10.0)
        sc = showcase_2d(0.1, grid=g, T=0.1, rng=rng)
        finals = {}
        for dt in (5e-3, 2.5e-3, 1.25e-3):
            finals[dt] = sc.solve(dt=dt, m_set=(0,)).final_state()
        d1 = l2_norm(finals[5e-3] - finals[2.5e-3])
        d2 = l2_norm(finals[2.5e-3] - finals[1.25e-3])
        order = np.log2(d1 / d2)
        assert order >= 3.5
