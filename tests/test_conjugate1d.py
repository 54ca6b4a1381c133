"""1D conjugation pipeline: antiderivative, transform bundle, solvers,
energy inequality."""

import numpy as np
import pytest
from scipy.integrate import quad

import vwschro.conjugate1d as conjugate1d
import vwschro.regularize as regularize
from vwschro.conjugate1d import (
    Problem1D,
    antiderivative_B1,
    build_conjugation,
    conjugation_identity_error,
    energy_monitor,
    solve_conjugated,
    solve_mol,
    solve_original,
)
from vwschro.dist import Delta
from vwschro.errors import NumericalBlowupError, ParameterError
from vwschro.problems import (
    const_time_coeff,
    delta_showcase_1d,
    free_particle_1d,
    smooth_classical_1d,
    smooth_time_coeff,
    zero_time_coeff,
)
from vwschro.regularize import Scale, build_mollifier, extend_regularize_a, regularize_space
from vwschro.spectral import Grid, GridFn, l2_norm, random_bandlimited, sobolev_norm
from vwschro.fitting import fit_power_growth


def zeros(grid):
    return GridFn(grid, np.zeros(grid.shape))


class TestAntiderivative:
    def test_zero(self, grid1d):
        B = antiderivative_B1(zeros(grid1d))
        assert np.max(np.abs(B.values)) == 0.0

    def test_fundamental_theorem(self, grid1d, band_mollifier):
        # b1 = phi_eps' integrates back to phi_eps - phi_eps(0); eps small
        # enough that the kernel envelope is contained in the box
        eps = 0.1
        x = grid1d.axis()
        phi = band_mollifier.value(x / eps) / eps
        dphi = band_mollifier.dvalue(x / eps, 1) / eps**2
        B = antiderivative_B1(GridFn(grid1d, dphi))
        expected = phi - band_mollifier.value(np.array([0.0]))[0] / eps
        assert np.max(np.abs(B.values - expected)) < 1e-8

    def test_mollified_delta_mass(self, grid1d, band_mollifier):
        # quadrature oracle: int_0^{+-inf} of an even unit-mass kernel is +-1/2
        eps = 0.1
        b1 = regularize_space(Delta(0.0), band_mollifier, Scale("standard"),
                              eps, grid1d).values
        B = antiderivative_B1(b1)
        assert abs(B.values[-1].real - 0.5) < 1e-6
        assert abs(B.values[0].real + 0.5) < 1e-6

    def test_anchored_at_zero(self, grid1d, band_mollifier):
        b1 = regularize_space(Delta(0.3), band_mollifier, Scale("standard"),
                              0.2, grid1d).values
        B = antiderivative_B1(b1)
        assert B.values[grid1d.points // 2] == 0.0

    def test_derivative_recovery(self, grid1d, band_mollifier):
        # de-ramp the mass so the antiderivative becomes smooth periodic,
        # then the spectral derivative must recover b1 to spectral accuracy
        from vwschro.spectral import fft_derivative

        b1 = regularize_space(Delta(0.0), band_mollifier, Scale("standard"),
                              0.1, grid1d).values
        B = antiderivative_B1(b1)
        mass = 1.0
        x = grid1d.axis()
        L = grid1d.half_length
        ramp = mass * (x + L) / (2 * L)
        smooth = GridFn(grid1d, B.values - ramp)
        db = fft_derivative(smooth, 1).values * 1j + mass / (2 * L)
        assert np.max(np.abs(db - b1.values)) < 1e-8


def _simple_problem(grid, T=0.5, eps=0.1, a1="delta", b_coupling=0.15):
    return delta_showcase_1d(eps, grid=grid, T=T, coupling1=b_coupling,
                             coupling0=b_coupling)


class TestBuildConjugation:
    def test_a1_zero_collapses(self, grid1d):
        eps, T = 0.1, 0.5
        p = free_particle_1d(grid1d, T=T, eps=eps)
        x = grid1d.axis()
        b0 = GridFn(grid1d, 1.0 / (1.0 + x**2))
        p = Problem1D(grid=grid1d, T=T, a=p.a, a1=zero_time_coeff(eps),
                      a0=const_time_coeff(0.7), b1=zeros(grid1d), b0=b0,
                      g=p.g, eps=eps, ca=1.0, ca_tilde=1.0)
        cd = build_conjugation(p)
        t = 0.3
        assert np.max(np.abs(cd.F(t).values)) == 0.0
        assert np.max(np.abs(cd.A0(t).values - 0.7 * b0.values)) < 1e-12

    def test_constant_coefficients_formula(self, grid1d, band_mollifier):
        # all time coefficients constant: the time-derivative group of A0
        # vanishes and the closed formula has three surviving terms
        eps, T = 0.1, 0.5
        b1 = regularize_space(Delta(0.0), band_mollifier, Scale("standard"),
                              eps, grid1d).values * 0.2
        x = grid1d.axis()
        b0 = GridFn(grid1d, 0.3 * np.cos(np.pi * x / grid1d.half_length))
        bump = build_mollifier("bump", radius=1.0)
        a = extend_regularize_a(lambda t: np.full_like(np.asarray(t, float), 1.3),
                                bump, eps, T=T, ca=1.3, ca_tilde=1.3)
        p = Problem1D(grid=grid1d, T=T, a=a, a1=const_time_coeff(0.8),
                      a0=const_time_coeff(1.0), b1=b1, b0=b0,
                      g=GridFn(grid1d, np.exp(-(x**2))), eps=eps,
                      ca=1.3, ca_tilde=1.3)
        cd = build_conjugation(p)
        from vwschro.spectral import fft_derivative

        b1x = fft_derivative(b1, 1).values * 1j
        expected = (
            1.0 * b0.values + 0.5j * 0.8 * b1x - (0.8 * b1.values) ** 2 / (4 * 1.3)
        )
        got = cd.A0(0.25).values
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_expF_unimodular_for_real_coefficients(self, grid1d):
        p = _simple_problem(grid1d)
        cd = build_conjugation(p)
        # real a1, b1: F is purely imaginary, |e^F| = 1
        assert abs(cd.expF_bound - 1.0) < 1e-12

    def test_conjugation_identity(self, rng):
        # two-sided evaluation oracle on random bandlimited, localized
        # probes; the fine grid keeps the conjugation phase resolved
        g = Grid(1, 8192, 20.0)
        errs = []
        for eps in (0.2, 0.1, 0.05):
            p = delta_showcase_1d(eps, grid=g)
            cd = build_conjugation(p)
            for _ in range(5):
                v = random_bandlimited(g, rng, band_frac=0.15, localized=True,
                                       width_frac=0.15)
                t = float(rng.uniform(0.15, 0.35))
                errs.append(conjugation_identity_error(p, cd, v, t))
        assert max(errs) < 1e-7


class TestSolveConjugated:
    def test_plane_wave_exact(self):
        g = Grid(1, 256, 20.0)
        p = free_particle_1d(g, T=1.0, k_mode=16)
        tr = solve_original(p, dt=1e-3, m_set=(0,))
        k0 = 16 * np.pi / g.half_length
        exact = np.exp(1j * (k0 * g.axis()) - 1j * k0**2)
        assert np.max(np.abs(tr.final_state().values - exact)) < 1e-10

    def test_constant_potential_phase(self):
        # commuting pieces: the splitting is exact, phase e^{-i(k^2+c) t}
        g = Grid(1, 256, 20.0)
        c = 0.7
        base = free_particle_1d(g, T=1.0, k_mode=16)
        p = Problem1D(grid=g, T=1.0, a=base.a, a1=base.a1,
                      a0=const_time_coeff(c), b1=base.b1,
                      b0=GridFn(g, np.ones(g.points)), g=base.g,
                      eps=0.1, ca=1.0, ca_tilde=1.0)
        tr = solve_original(p, dt=1e-3, m_set=(0,))
        k0 = 16 * np.pi / g.half_length
        exact = np.exp(1j * (k0 * g.axis()) - 1j * (k0**2 + c))
        assert np.max(np.abs(tr.final_state().values - exact)) < 1e-10

    def test_self_convergence_order(self, grid1d):
        # Richardson self-convergence oracle on a problem with
        # t-dependent a and nonconstant A0
        p = smooth_classical_1d(0.1, grid=grid1d, T=0.5)
        finals = {}
        for dt in (2e-3, 1e-3, 5e-4):
            finals[dt] = solve_original(p, dt=dt, m_set=(0,)).final_state()
        d1 = l2_norm(finals[2e-3] - finals[1e-3])
        d2 = l2_norm(finals[1e-3] - finals[5e-4])
        order = np.log2(d1 / d2)
        assert order >= 1.9

    def test_blowup_detection(self, grid1d_small):
        # a large negative-imaginary zero-order coefficient drives
        # exponential growth past overflow; the solver must raise with
        # the failure time rather than return silently
        eps, T = 0.1, 0.5
        base = free_particle_1d(grid1d_small, T=T, eps=eps)
        # Im(a0 b0) > 0 makes the zero-order phase grow exponentially
        big = GridFn(grid1d_small, 1e8j * np.ones(grid1d_small.points))
        p = Problem1D(grid=grid1d_small, T=T, a=base.a, a1=base.a1,
                      a0=const_time_coeff(1.0), b1=base.b1, b0=big,
                      g=base.g, eps=eps, ca=1.0, ca_tilde=1.0)
        with pytest.raises(NumericalBlowupError) as err:
            solve_original(p, dt=1e-2, m_set=(0,))
        assert err.value.t is not None


class TestSolveOriginal:
    def test_reduces_to_conjugated_when_trivial(self, grid1d_small):
        p = free_particle_1d(grid1d_small, T=0.5)
        cd = build_conjugation(p)
        tr_o = solve_original(p, dt=1e-3, m_set=(0,))
        tr_c = solve_conjugated(p, cd, dt=1e-3, m_set=(0,))
        assert l2_norm(tr_o.final_state() - tr_c.final_state()) < 1e-13

    def test_norm_track_is_pulled_back_conjugated_state(self, grid1d_small):
        # the recorded norms are those of e^{-F(t)} v(t), v the conjugated
        # state, at every stored time and for every m
        p = smooth_classical_1d(0.1, grid=grid1d_small, T=0.2)
        cd = build_conjugation(p)
        tr = solve_original(p, dt=2e-3, m_set=(0, 1, 2))
        conj = tr.meta["conjugated"]
        assert len(conj.states) > 2
        for t, v in zip(conj.state_times, conj.states):
            (j,) = np.flatnonzero(tr.times == t)
            for m in (0, 1, 2):
                assert tr.norms[m][j] == sobolev_norm(cd.expmF(t) * v, m)

    def test_unitary_with_selfadjoint_lower_order(self, grid1d):
        # a1 b1 = 0 and real a0 b0: the evolution is exactly unitary
        eps, T = 0.1, 0.5
        base = free_particle_1d(grid1d, T=T, eps=eps)
        x = grid1d.axis()
        p = Problem1D(grid=grid1d, T=T, a=base.a, a1=zero_time_coeff(eps),
                      a0=const_time_coeff(1.0), b1=zeros(grid1d),
                      b0=GridFn(grid1d, 2.0 / (1.0 + x**2)),
                      g=GridFn(grid1d, np.exp(-(x**2))), eps=eps,
                      ca=1.0, ca_tilde=1.0)
        tr = solve_original(p, dt=1e-3, m_set=(0,))
        drift = np.max(np.abs(tr.norms[0] - tr.norms[0][0])) / tr.norms[0][0]
        assert drift < 1e-8

    @pytest.mark.slow
    def test_residual_oracle_on_showcase(self):
        # direct operator application oracle: the defect of the computed
        # solution under the original operator, max over the run
        g = Grid(1, 2048, 20.0)
        p = delta_showcase_1d(0.1, grid=g, coupling1=0.05, coupling0=0.03, T=0.3)
        tr = solve_original(p, dt=3e-5, m_set=(0,), residual=True)
        assert tr.meta["residual_max_rel"] < 1e-5

    def test_two_route_agreement(self, grid1d):
        # uniqueness surrogate: conjugated route vs direct method of lines
        p = smooth_classical_1d(0.1, grid=grid1d, T=0.5)
        tr_a = solve_original(p, dt=5e-4, m_set=(0,))
        tr_b = solve_mol(p, dt=5e-4, m_set=(0,))
        rel = l2_norm(tr_a.final_state() - tr_b.final_state()) / l2_norm(tr_b.final_state())
        assert rel < 5e-6

    def test_data_moderateness_path(self, band_mollifier):
        # with point-mass data the datum norms grow polynomially in 1/eps
        g = Grid(1, 1024, 20.0)
        eps_net = [0.2, 0.1, 0.05, 0.025]
        sups = []
        for eps in eps_net:
            rc = regularize_space(Delta(0.0), band_mollifier, Scale("standard"), eps, g)
            sups.append(sobolev_norm(rc.values, 1))
        N, _, rel = fit_power_growth(eps_net, sups)
        assert np.isfinite(N) and N > 0
        assert rel < 0.1


class TestCoefficientTables:
    """A solve reads its time coefficients from tables filled once, at
    every time its steps ask for."""

    ROUTES = [
        ("original", lambda g: delta_showcase_1d(0.1, grid=g, T=0.1)),
        ("original", lambda g: smooth_classical_1d(0.1, grid=g, T=0.1)),
        ("mol", lambda g: smooth_classical_1d(0.1, grid=g, T=0.1)),
    ]

    @pytest.mark.parametrize("route,build", ROUTES)
    def test_tabulated_solve_is_the_untabulated_one(self, monkeypatch, grid1d_small,
                                                    route, build):
        # dt = 3e-3 does not divide T: the shortened last step is read too
        def solve():
            p = build(grid1d_small)
            if route == "original":
                return solve_original(p, dt=3e-3, m_set=(0, 1, 2), residual=True)
            return solve_mol(p, dt=3e-3, m_set=(0, 1, 2))

        tab = solve()
        monkeypatch.setattr(conjugate1d, "_tabulated", lambda p, dt, half_steps: p)
        ref = solve()
        assert np.array_equal(tab.final_state().values, ref.final_state().values)
        for m in (0, 1, 2):
            assert np.array_equal(tab.norms[m], ref.norms[m])
        for key in ("A0_max_seen", "residual_max_rel"):
            assert tab.meta.get(key) == ref.meta.get(key)

    @pytest.mark.parametrize("solve", [solve_original, solve_mol])
    def test_quadrature_calls_do_not_grow_with_steps(self, monkeypatch, grid1d_small,
                                                     solve):
        # one panel quadrature per table, however many steps read it
        calls = []
        inner = regularize._panel_quadrature

        def counted(t, *args):
            calls.append(np.size(t))
            return inner(t, *args)

        monkeypatch.setattr(regularize, "_panel_quadrature", counted)
        p = smooth_classical_1d(0.1, grid=grid1d_small, T=0.1)
        counts = []
        for dt in (4e-3, 2e-3, 1e-3):
            calls.clear()
            solve(p, dt=dt)
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2] > 0


class TestEnergyMonitor:
    def test_free_evolution_nonincreasing(self, grid1d_small):
        p = free_particle_1d(grid1d_small, T=0.5)
        cd = build_conjugation(p)
        tr = solve_conjugated(p, cd, dt=1e-3, m_set=(0,))
        rep = energy_monitor(tr, cd)
        assert rep.K == 1.0  # A0 == 0
        assert rep.holds
        drift = np.max(tr.norms[0]) - tr.norms[0][0]
        assert drift < 1e-8

    def test_real_constant_A0_conserves(self, grid1d_small):
        eps, T = 0.1, 0.5
        base = free_particle_1d(grid1d_small, T=T, eps=eps)
        p = Problem1D(grid=grid1d_small, T=T, a=base.a, a1=zero_time_coeff(eps),
                      a0=const_time_coeff(0.5),
                      b1=zeros(grid1d_small),
                      b0=GridFn(grid1d_small, np.ones(grid1d_small.points)),
                      g=base.g, eps=eps, ca=1.0, ca_tilde=1.0)
        cd = build_conjugation(p)
        tr = solve_conjugated(p, cd, dt=1e-3, m_set=(0,))
        rep = energy_monitor(tr, cd)
        assert rep.holds
        assert rep.min_margin >= 0.0
        assert np.max(np.abs(tr.norms[0] - tr.norms[0][0])) < 1e-8

    def test_showcase_net_inequality(self):
        # per-step inequality oracle across the showcase net
        g = Grid(1, 2048, 20.0)
        for eps in (0.2, 0.1, 0.05, 0.025):
            p = delta_showcase_1d(eps, grid=g)
            tr = solve_original(p, dt=5e-4, m_set=(0,))
            rep = energy_monitor(tr.meta["conjugated"])
            assert rep.holds, (eps, rep.min_margin)

    def test_envelope_exponent_reported(self):
        # envelope fit across the net: reported, not asserted against any
        # closed-form constant
        g = Grid(1, 1024, 20.0)
        Ks = []
        eps_net = [0.2, 0.1, 0.05, 0.025]
        for eps in eps_net:
            p = delta_showcase_1d(eps, grid=g)
            tr = solve_original(p, dt=1e-3, m_set=(0,))
            rep = energy_monitor(tr.meta["conjugated"])
            Ks.append(rep.K)
        N, _, _ = fit_power_growth(eps_net, Ks)
        assert np.isfinite(N)
