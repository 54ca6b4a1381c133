"""Mollifiers, scales, and the regularization maps with their bounds."""

import numpy as np
import pytest
from scipy.integrate import quad

from vwschro.dist import ClassicalFn, Delta, DeltaDerivative
from vwschro.errors import HypothesisViolationError, ParameterError, ScaleDomainError
from vwschro.fitting import fit_power_growth
from vwschro.regularize import (
    ChainCoords,
    Scale,
    build_mollifier,
    chain_certificate,
    compute_eps0,
    extend_regularize_a,
    omega,
    regularize_space,
    regularize_time_dist,
    verify_prop21,
)
from vwschro.spectral import Grid, GridFn


class TestMollifier:
    def test_bandlimited_plateau_and_mass(self, band_mollifier):
        m = band_mollifier
        assert m.hat_radial(0.0) == 1.0
        assert m.hat_radial(0.999) == 1.0
        assert m.hat_radial(2.0) < 1e-20
        assert m.hat_radial(2.5) == 0.0

    def test_bandlimited_moments_vanish(self, band_mollifier):
        # quadrature oracle on a wide fine grid: the Gaussian envelope of
        # the kernel makes the truncated tails negligible
        m = band_mollifier
        assert abs(m.moment(0, halfwidth=400.0, n=2**20) - 1.0) < 1e-10
        assert abs(m.moment(1, halfwidth=400.0, n=2**20)) < 1e-10
        assert abs(m.moment(2, halfwidth=400.0, n=2**20)) < 1e-9
        assert abs(m.moment(3, halfwidth=400.0, n=2**20)) < 1e-9

    def test_bump_mass_and_bounds(self, bump_mollifier):
        m = bump_mollifier
        x = np.linspace(-1.5, 1.5, 20001)
        vals = m.value(x)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0)
        assert abs(np.trapezoid(vals, x) - 1.0) < 1e-12

    def test_bump_radius_guard(self):
        # unit mass + compact support + phi <= 1 forces a minimum radius
        with pytest.raises(ParameterError):
            build_mollifier("bump", radius=0.5)

    def test_bandlimited_radius_order(self):
        with pytest.raises(ParameterError):
            build_mollifier("bandlimited", r1=2.0, r2=1.0)

    def test_offcenter_bump_first_moment(self):
        m = build_mollifier("bump", radius=1.0, center=0.35)
        assert abs(m.moment(0) - 1.0) < 1e-12
        assert abs(m.moment(1) - 0.35) < 1e-10
        assert m.moment_order == 0

    def test_centered_bump_first_moment_vanishes(self, bump_mollifier):
        assert abs(bump_mollifier.moment(1)) < 1e-14
        assert bump_mollifier.moment(2) > 0.0


class TestScale:
    def test_standard(self):
        s = Scale("standard")
        assert omega(s, 0.01) == 0.01
        with pytest.raises(ScaleDomainError):
            omega(s, -1.0)

    def test_power(self):
        s = Scale("power", r=0.5)
        assert np.isclose(omega(s, 0.04), 0.2)

    def test_logchain_unit_point(self):
        s = Scale("logchain")
        lam1 = float(np.exp(np.exp(np.e)))
        assert omega(s, ChainCoords(1, lam1)) == 1.0
        # deeper coordinates evaluate with fewer logs
        assert omega(s, ChainCoords(3, float(np.e))) == 1.0
        assert omega(s, ChainCoords(4, 1.0)) == 1.0

    def test_logchain_outside_unit_regime(self):
        s = Scale("logchain")
        c = chain_certificate(s, ChainCoords(1, 1e6), 3)
        assert not c.in_unit_regime
        assert "outside" in c.note
        assert abs(c.omega - 1.0 / np.log(np.log(np.log(1e6)))) < 1e-12
        assert c.holds

    def test_logchain_domain_error_never_clamps(self):
        s = Scale("logchain")
        with pytest.raises(ScaleDomainError):
            omega(s, 0.5)  # log log log log(2) undefined
        with pytest.raises(ScaleDomainError):
            omega(s, ChainCoords(1, 1.0))  # log(1) = 0 kills the next log

    def test_certificate_family(self):
        # exp(omega^-N) <= eps^-D for the reported D, across the
        # representable domain and N <= 8
        s = Scale("logchain")
        for lam1 in np.geomspace(4e6, 1e300, 25):
            for N in range(0, 9):
                c = chain_certificate(s, ChainCoords(1, float(lam1)), N)
                assert c.holds, (lam1, N)
                assert c.D >= 1


class TestRegularizeSpace:
    def test_delta_paths_agree(self, grid1d, band_mollifier):
        s = Scale("standard")
        for eps in (0.2, 0.1, 0.05):
            rf = regularize_space(Delta(0.0), band_mollifier, s, eps, grid1d)
            rd = regularize_space(Delta(0.0), band_mollifier, s, eps, grid1d,
                                  path="direct")
            assert np.max(np.abs(rf.values.values - rd.values.values)) < 1e-10

    def test_delta_sup_scaling(self, grid1d, band_mollifier):
        s = Scale("standard")
        eps = 0.1
        rc = regularize_space(Delta(0.0), band_mollifier, s, eps, grid1d)
        direct_sup = np.max(np.abs(band_mollifier.value(grid1d.axis() / eps))) / eps
        assert np.isclose(rc.sup, direct_sup, rtol=1e-8)

    def test_delta_derivative_growth_exponent(self, grid1d, band_mollifier):
        # log-log regression oracle over three net points: in 1D the sup
        # of the mollified derivative of a point mass grows like eps^-2
        s = Scale("standard")
        eps_net = [0.2, 0.1, 0.05]
        sups = [
            regularize_space(DeltaDerivative(0.0, 1), band_mollifier, s, e, grid1d).sup
            for e in eps_net
        ]
        N, _, _ = fit_power_growth(eps_net, sups)
        assert abs(N - 2.0) < 0.1

    def test_decay_tag_and_weighted_bound(self, grid1d, band_mollifier):
        rc = regularize_space(Delta(0.0), band_mollifier, Scale("standard"), 0.1, grid1d)
        assert rc.decay_weight == "x^-2"
        assert np.isfinite(rc.weighted_sup())


class TestExtendRegularizeA:
    def test_constant_exact(self, bump_mollifier):
        rc = extend_regularize_a(
            lambda t: np.full_like(np.asarray(t, dtype=float), 0.7),
            bump_mollifier, 0.3, T=1.0,
        )
        ts = np.linspace(0, 1, 41)
        assert np.max(np.abs(np.asarray(rc(ts)) - 0.7)) < 1e-12

    def test_two_sided_bounds(self, bump_mollifier):
        rc = extend_regularize_a(lambda t: 1.0 + np.asarray(t, dtype=float),
                                 bump_mollifier, 0.05, T=1.0, ca=1.0, ca_tilde=2.0)
        ts = np.linspace(0, 1, 101)
        vals = np.asarray(rc(ts))
        assert vals.min() >= 0.5
        assert vals.max() <= 2.0 + 1e-12

    def test_jump_midpoint(self, bump_mollifier):
        # quadrature oracle: the mollified unit jump passes through the
        # midpoint value 3/2 at the jump location
        aj = lambda t: 1.0 + (np.asarray(t, dtype=float) > 0.5)
        rc = extend_regularize_a(aj, bump_mollifier, 0.01, T=1.0,
                                 ca=1.0, ca_tilde=2.0, breakpoints=[0.5])
        assert abs(float(rc(0.5)) - 1.5) < 1e-9

    def test_positivity_hypothesis(self, bump_mollifier):
        with pytest.raises(HypothesisViolationError):
            extend_regularize_a(lambda t: np.asarray(t, dtype=float) - 0.5,
                                bump_mollifier, 0.05, T=1.0)

    def test_eps0_computed_and_enforced(self, bump_mollifier):
        eps0 = compute_eps0(bump_mollifier, T=1.0)
        assert eps0 > 1.0  # unit-radius bump keeps I >= 1/2 well past eps = 1
        with pytest.raises(HypothesisViolationError):
            extend_regularize_a(lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
                                bump_mollifier, eps0 * 1.1, T=1.0)


class TestRegularizeTimeDist:
    def test_delta_closed_form(self, bump_mollifier):
        eps, T = 0.1, 1.0
        rc = regularize_time_dist(Delta(0.5), bump_mollifier, eps, T=T)
        ts = np.linspace(0, T, 257)
        expected = bump_mollifier.value((ts - 0.5) / eps) / eps
        assert np.max(np.abs(np.asarray(rc(ts)) - expected)) < 1e-12

    def test_sup_scaling(self, bump_mollifier):
        eps = 0.05
        rc = regularize_time_dist(Delta(0.5), bump_mollifier, eps, T=1.0)
        peak = bump_mollifier.value(np.array([0.0]))[0] / eps
        ts = np.linspace(0.0, 1.0, 2001)
        assert abs(np.max(np.abs(np.asarray(rc(ts)))) - peak) < 1e-9

    def test_derivative_consistency(self, bump_mollifier):
        # finite-difference oracle on interior points
        rc = regularize_time_dist(Delta(0.5), bump_mollifier, 0.1, T=1.0)
        ts = np.linspace(0.42, 0.58, 41)
        h = 1e-5
        fd = (np.asarray(rc(ts + h)) - np.asarray(rc(ts - h))) / (2 * h)
        dv = np.asarray(rc.derivative(ts))
        assert np.max(np.abs(fd - dv)) / np.max(np.abs(dv)) < 1e-6

    def test_requires_compact_support(self, bump_mollifier):
        with pytest.raises(HypothesisViolationError):
            regularize_time_dist(ClassicalFn(fn=lambda t: np.exp(-(t**2))),
                                 bump_mollifier, 0.1, T=1.0)


class TestPanelQuadrature:
    """The vectorized panel quadrature behind both time regularizations,
    against adaptive quadrature of the same convolution integral."""

    @staticmethod
    def _quad(f, lo, hi, cuts):
        inner = [c for c in cuts if lo < c < hi]
        return quad(f, lo, hi, points=inner or None, limit=400,
                    epsabs=1e-12, epsrel=1e-12)[0]

    @staticmethod
    def _loop(ts, cuts_of, f, n_nodes):
        """Reference sum: one time and one Gauss-Legendre panel at a time."""
        s, w = np.polynomial.legendre.leggauss(n_nodes)
        out = []
        for t in ts:
            cuts = cuts_of(t)
            acc = 0.0
            for a, b in zip(cuts[:-1], cuts[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                acc += np.sum(f(t, mid + half * s) * w) * half
            out.append(acc)
        return np.array(out)

    @pytest.mark.parametrize("order", [0, 1])
    def test_jump_breakpoint_inside_window(self, bump_mollifier, order):
        eps, T, jump = 0.05, 0.5, 0.3
        aj = lambda t: 1.0 + 0.5 * (np.asarray(t, dtype=float) >= jump)
        rc = extend_regularize_a(aj, bump_mollifier, eps, T=T, ca=1.0, ca_tilde=1.5,
                                 breakpoints=[jump])
        ts = np.array([0.0, 0.27, 0.29, jump, 0.31, 0.34, T])
        got = np.asarray(rc(ts) if order == 0 else rc.derivative(ts))
        a_line = lambda s: aj(np.clip(s, 0.0, T))
        ker = lambda t, s: bump_mollifier.dvalue((t - s) / eps, order) / eps ** (1 + order)

        def cuts_of(t):
            lo, hi = max(t - eps, -1.0), min(t + eps, T + 1.0)
            return [lo] + [b for b in (0.0, jump, T) if lo < b < hi] + [hi]

        loop = self._loop(ts, cuts_of, lambda t, s: ker(t, s) * a_line(s), 96)
        assert np.array_equal(got, loop)
        for t, v in zip(ts, got):
            lo, hi = max(t - eps, -1.0), min(t + eps, T + 1.0)
            f = lambda s: (bump_mollifier.dvalue(np.array([(t - s) / eps]), order)[0]
                           / eps ** (1 + order) * aj(np.clip(s, 0.0, T)))
            ref = self._quad(f, lo, hi, [jump, 0.0, T])
            assert abs(v - ref) <= 1e-10 * max(1.0, abs(ref))

    # 64 nodes per panel resolve the kernel to ~3e-12 and its derivative
    # to ~2e-9 (relative), measured against 1000-node rules
    @pytest.mark.parametrize("order,tol", [(0, 1e-11), (1, 1e-8)])
    def test_classical_support_edge_crosses_window(self, bump_mollifier, order, tol):
        eps, T, Rf = 0.1, 0.5, 0.3
        fn = lambda t: np.cos(3.0 * np.asarray(t, dtype=float)) + 0.5
        rc = regularize_time_dist(ClassicalFn(fn=fn, support_radius=Rf),
                                  bump_mollifier, eps, T=T)
        ts = np.array([0.1, 0.22, 0.28, Rf, 0.33, 0.39, 0.45])
        got = np.asarray(rc(ts) if order == 0 else rc.derivative(ts))

        def cuts_of(t):
            edges = [e for e in ((t - Rf) / eps, (t + Rf) / eps) if -1.0 < e < 1.0]
            return sorted([-1.0, 1.0] + edges)

        def f(t, u):
            s = t - eps * u
            fv = np.where(np.abs(s) <= Rf, fn(s).astype(complex), 0.0)
            return bump_mollifier.dvalue(u, order) / eps**order * fv

        loop = self._loop(ts, cuts_of, f, 64)
        assert not np.any(loop.imag)
        assert np.array_equal(got, loop.real)
        for t, v in zip(ts, got):
            lo, hi = max(t - eps, -Rf), min(t + eps, Rf)
            f = lambda s: (bump_mollifier.dvalue(np.array([(t - s) / eps]), order)[0]
                           / eps ** (1 + order) * fn(s))
            ref = self._quad(f, lo, hi, []) if hi > lo else 0.0
            assert abs(v - ref) <= tol * max(1.0, abs(ref))

    def test_small_imaginary_part_is_kept(self, bump_mollifier):
        # a decision by tolerance dropped an imaginary part of 1e-9
        T = 0.5
        amp = 1.0 + 1e-9j
        rc = regularize_time_dist(
            ClassicalFn(fn=lambda t: amp * np.ones_like(np.asarray(t, dtype=float)),
                        support_radius=T + 3.0), bump_mollifier, 0.1, T=T)
        vals = rc(np.linspace(0.0, T, 9))
        assert np.iscomplexobj(vals)
        assert np.max(np.abs(vals.real - 1.0)) < 1e-11
        assert np.max(np.abs(vals.imag / 1e-9 - 1.0)) < 1e-11
        assert abs(complex(rc(0.25)).imag / 1e-9 - 1.0) < 1e-11
        real = regularize_time_dist(
            ClassicalFn(fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                        support_radius=T + 3.0), bump_mollifier, 0.1, T=T)
        assert not np.iscomplexobj(real(np.linspace(0.0, T, 9)))

    def test_classical_needs_compact_kernel(self, band_mollifier):
        with pytest.raises(ParameterError):
            regularize_time_dist(ClassicalFn(fn=np.cos, support_radius=1.0),
                                 band_mollifier, 0.1, T=0.5)


class TestTabulated:
    def test_table_and_fallback_agree_with_quadrature(self, bump_mollifier):
        rc = regularize_time_dist(
            ClassicalFn(fn=lambda t: 0.4 * np.cos(np.asarray(t, dtype=float)),
                        support_radius=3.5), bump_mollifier, 0.1, T=0.5)
        ts = np.linspace(0.0, 0.5, 129)
        tab = rc.tabulated(ts)
        for t in (ts[0], ts[57], ts[-1], 0.123456, -0.2, 0.9):
            assert tab(t) == rc(t)
            assert tab.derivative(t) == rc.derivative(t)
        off = np.array([0.01, ts[3], 0.7])
        assert np.array_equal(tab(ts), rc(ts))
        assert np.array_equal(tab(off), rc(off))


class TestProp21:
    def test_bandlimited_reproduction(self, grid1d, band_mollifier):
        # a grid mode inside the plateau is reproduced exactly for every
        # omega below the threshold
        kL = np.pi / grid1d.half_length
        u = GridFn(grid1d, np.cos(6 * kL * grid1d.axis()))
        rep = verify_prop21(u, band_mollifier, Scale("standard"),
                            [0.4, 0.2, 0.1, 0.05], grid1d, family="bounded_vm")
        assert rep.converged
        assert all(err < 1e-10 for _, err in rep.rows)

    def test_delta_sup_exponent(self, grid1d, band_mollifier):
        rep = verify_prop21(Delta(0.0), band_mollifier, Scale("standard"),
                            [0.2, 0.1, 0.05, 0.025], grid1d, family="compact",
                            orders=(0,))
        assert abs(rep.exponents[0] - 1.0) < 0.1

    def test_bump_first_order_convergence(self, grid1d):
        # off-center bump: nonvanishing first moment caps smoothing at
        # first order on generic smooth inputs (regression oracle)
        m = build_mollifier("bump", radius=1.0, center=0.35)
        x = grid1d.axis()
        kL = np.pi / grid1d.half_length
        u = GridFn(grid1d, np.cos(6 * kL * x) + 0.5 * np.sin(9 * kL * x))
        rep = verify_prop21(u, m, Scale("standard"),
                            [0.4, 0.2, 0.1, 0.05], grid1d, family="bounded_vm")
        assert abs(rep.exponents["q"] - 1.0) < 0.25
