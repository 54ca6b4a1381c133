"""Spectral kernel: norms, derivatives, quantization, probes, serialization."""

import numpy as np
import pytest

from vwschro.errors import ParameterError, SizeGuardError
from vwschro.spectral import (
    Grid,
    GridFn,
    SymbolFn,
    fft_derivative,
    gridfn_from_bytes,
    gridfn_to_bytes,
    kn_quantize,
    l2_inner,
    l2_norm,
    operator_norm_probe,
    random_bandlimited,
    sobolev_norm,
)


def mode(grid, m):
    k0 = m * np.pi / grid.half_length
    return k0, GridFn(grid, np.exp(1j * k0 * grid.axis()))


class TestGrid:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Grid(3, 64, 10.0)
        with pytest.raises(ParameterError):
            Grid(1, 100, 10.0)  # not a power of two
        with pytest.raises(ParameterError):
            Grid(1, 64, -1.0)

    def test_lattice(self, grid1d):
        k = grid1d.freq_axis()
        assert k[0] == 0.0
        assert np.isclose(k[1], np.pi / grid1d.half_length)
        assert np.isclose(grid1d.nyquist, 512 * np.pi / 20.0)


class TestSobolevNorm:
    def test_zero(self, grid1d):
        assert sobolev_norm(GridFn(grid1d, np.zeros(grid1d.points)), 3) == 0.0

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("kmode", [0, 5, 17])
    def test_single_mode(self, grid1d, m, kmode):
        k0, u = mode(grid1d, kmode)
        expected = (1.0 + k0**2) ** (m / 2.0) * np.sqrt(2 * grid1d.half_length)
        assert np.isclose(sobolev_norm(u, m), expected, rtol=1e-12)

    def test_gaussian_l2(self):
        # independent oracle: int exp(-x^2) dx = sqrt(pi), so the L2 norm
        # of exp(-x^2/2) is pi^(1/4)
        g = Grid(1, 1024, 20.0)
        u = GridFn(g, np.exp(-g.axis() ** 2 / 2.0))
        assert abs(sobolev_norm(u, 0) - np.pi**0.25) < 1e-8

    def test_parseval(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        phys = np.sqrt(np.sum(np.abs(u.values) ** 2) * grid1d.cell)
        assert abs(sobolev_norm(u, 0) - phys) < 1e-10

    def test_monotone_in_m(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        norms = [sobolev_norm(u, m) for m in range(4)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestDerivative:
    def test_single_mode(self, grid1d):
        k0, u = mode(grid1d, 9)
        du = fft_derivative(u, 1)
        assert np.max(np.abs(du.values - k0 * u.values)) < 1e-10

    def test_gaussian_parity(self, grid1d):
        # D of a real even function is -i * (odd real derivative)
        u = GridFn(grid1d, np.exp(-grid1d.axis() ** 2 / 2.0))
        du = fft_derivative(u, 1)
        assert np.max(np.abs(du.values.real)) < 1e-12
        odd = du.values.imag
        mirror = np.roll(odd[::-1], 1)  # index j <-> (N - j) mod N
        assert np.max(np.abs(odd + mirror)) < 1e-9

    def test_against_finite_differences(self):
        # 6th-order centered differences as the independent oracle; the
        # grid is fine enough for the oracle's own truncation error
        g = Grid(1, 2048, 20.0)
        x = g.axis()
        u = GridFn(g, x * np.exp(-(x**2)))
        du = fft_derivative(u, 1)
        v = u.values
        w = np.zeros_like(v)
        cs = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        for off, c in zip(range(-3, 4), cs):
            w += c * np.roll(v, -off)
        fd = w / g.spacing
        rel = l2_norm(GridFn(g, du.values - (-1j) * fd)) / l2_norm(du)
        assert rel < 1e-8

    def test_2d_multiindex(self, grid2d):
        k1 = 2 * np.pi / grid2d.half_length
        k2 = 3 * np.pi / grid2d.half_length
        x1, x2 = grid2d.x_meshes()
        u = GridFn(grid2d, np.exp(1j * (k1 * x1 + k2 * x2)))
        du = fft_derivative(u, (1, 2))
        assert np.max(np.abs(du.values - k1 * k2**2 * u.values)) < 1e-9


class TestQuantize:
    def test_identity(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        p = SymbolFn.dense(grid1d, lambda x, k: np.ones_like(x * k))
        assert l2_norm(kn_quantize(p, u) - u) < 1e-12

    def test_multiplier(self, grid1d):
        k0, u = mode(grid1d, 11)
        p = SymbolFn.multiplier(grid1d, lambda k: 1.0 + k**2)
        out = kn_quantize(p, u)
        assert np.max(np.abs(out.values - (1 + k0**2) * u.values)) < 1e-10

    def test_multiplication(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        b = np.cos(grid1d.axis())
        p = SymbolFn.multiplication(grid1d, b)
        out = kn_quantize(p, u)
        assert np.max(np.abs(out.values - b * u.values)) < 1e-10

    def test_dense_equals_separable(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        dense = SymbolFn.dense(grid1d, lambda x, k: np.cos(x) * (1.0 + k**2))
        sep = SymbolFn.separable(grid1d, [(lambda x: np.cos(x), lambda k: 1.0 + k**2)])
        d = kn_quantize(dense, u) - kn_quantize(sep, u)
        assert l2_norm(d) < 1e-10

    def test_linearity(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        v = random_bandlimited(grid1d, rng)
        p = SymbolFn.dense(grid1d, lambda x, k: np.exp(-np.abs(x)) * k)
        lhs = kn_quantize(p, u + 2.0 * v)
        rhs = kn_quantize(p, u) + 2.0 * kn_quantize(p, v)
        assert l2_norm(lhs - rhs) < 1e-10

    def test_dense_2d_guard(self):
        g = Grid(2, 256, 10.0)
        u = GridFn(g, np.zeros(g.shape))
        p = SymbolFn.dense(g, lambda a, b, c, d: np.ones(1))
        with pytest.raises(SizeGuardError) as err:
            kn_quantize(p, u)
        assert str(256**4 * 8) in str(err.value)

    def test_dense_2d_anchors(self, grid2d_small, rng):
        g = grid2d_small
        u = random_bandlimited(g, rng)
        k1m, k2m = g.k_meshes()
        pm = SymbolFn.dense(g, lambda a, b, c, d: 1.0 + c**2 + d**2)
        ref = GridFn(g, np.fft.ifft2((1 + k1m**2 + k2m**2) * np.fft.fft2(u.values)))
        assert l2_norm(kn_quantize(pm, u) - ref) < 1e-10
        x1, x2 = g.x_meshes()
        px = SymbolFn.dense(
            g, lambda a, b, c, d: np.cos(a) * np.sin(b)
            * np.ones(np.broadcast_shapes(np.shape(c), np.shape(d)))
        )
        refx = GridFn(g, np.cos(x1) * np.sin(x2) * u.values)
        assert l2_norm(kn_quantize(px, u) - refx) < 1e-10


# Symbols that mix x and xi and are not separable, with real and complex
# values: the two matrix-product paths of the dense 2D quantizer.
def _mixed_real(x1, x2, k1, k2):
    return (1.0 + x1 * k2 - 0.5 * x2 * k1) ** 2 / (1.0 + x1**2 + (x2 * k2) ** 2)


def _mixed_complex(x1, x2, k1, k2):
    return _mixed_real(x1, x2, k1, k2) * np.exp(1j * (x1 * k1 - 0.3 * x2 * k2) / 3.0)


class TestDense2D:
    """The dense 2D quantizer against oracles that share none of its code."""

    @pytest.mark.parametrize("sym", [_mixed_real, _mixed_complex])
    def test_explicit_double_sum(self, sym, rng):
        # p(x, D) u (x) = sum_k p(x, k) c_k e^{i k.x}, c_k = n^-2 sum_y u(y) e^{-i k.y}
        g = Grid(2, 16, 4.0)
        x, k = g.axis(), g.freq_axis()
        X1, X2, K1, K2 = np.meshgrid(x, x, k, k, indexing="ij")
        E = np.exp(1j * (K1 * X1 + K2 * X2))
        u = random_bandlimited(g, rng, band_frac=1.0)
        c = np.einsum("abcd,ab->cd", np.conj(E), u.values) / g.size
        ref = np.einsum("abcd,cd,abcd->ab", sym(X1, X2, K1, K2), c, E)
        out = kn_quantize(SymbolFn.dense(g, sym), u).values
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sym", [_mixed_real, _mixed_complex])
    def test_plane_waves_exact(self, sym):
        # p(x, D) e^{i k.x} = p(x, k) e^{i k.x} at every lattice k
        g = Grid(2, 8, 3.0)
        x1, x2 = g.x_meshes()
        p = SymbolFn.dense(g, sym)
        for k1 in g.freq_axis():
            for k2 in g.freq_axis():
                wave = np.exp(1j * (k1 * x1 + k2 * x2))
                ref = sym(x1, x2, k1, k2) * wave
                out = kn_quantize(p, GridFn(g, wave)).values
                assert np.max(np.abs(out - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


class TestNormProbe:
    def test_identity(self, grid1d_small, rng):
        val = operator_norm_probe(lambda v: v, 3, grid1d_small, rng=rng)
        assert abs(val - 1.0) < 1e-6

    def test_scaling(self, grid1d_small, rng):
        val = operator_norm_probe(lambda v: v * 2.0, 3, grid1d_small, rng=rng)
        assert abs(val - 2.0) < 1e-6

    def test_decaying_multiplier(self, grid1d_small, rng):
        # independent oracle: the exact operator norm is the lattice max
        # of the multiplier, here <0>^-1 = 1
        k = grid1d_small.freq_axis()
        mult = (1.0 + k**2) ** (-0.5)
        lattice_max = float(np.max(mult))
        assert lattice_max == 1.0

        def apply(v):
            return GridFn(grid1d_small, np.fft.ifft(mult * np.fft.fft(v.values)))

        val = operator_norm_probe(apply, 4, grid1d_small, iters=40, rng=rng)
        assert val <= lattice_max + 1e-9
        assert val > 0.97

    def test_inner_product(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        assert abs(l2_inner(u, u).real - l2_norm(u) ** 2) < 1e-10


class TestSerialization:
    def test_roundtrip_1d(self, grid1d, rng):
        u = random_bandlimited(grid1d, rng)
        v = gridfn_from_bytes(gridfn_to_bytes(u))
        assert v.grid == grid1d
        assert np.array_equal(v.values, u.values)

    def test_roundtrip_2d(self, grid2d_small, rng):
        u = random_bandlimited(grid2d_small, rng)
        v = gridfn_from_bytes(gridfn_to_bytes(u))
        assert v.grid == grid2d_small
        assert np.array_equal(v.values, u.values)

    def test_layout(self, grid1d_small):
        u = GridFn(grid1d_small, np.zeros(grid1d_small.points))
        blob = gridfn_to_bytes(u)
        assert len(blob) == 8 + 8 + 8 + 16 * grid1d_small.points


class TestGridFn:
    def test_immutable(self, grid1d):
        u = GridFn(grid1d, np.zeros(grid1d.points))
        with pytest.raises(ValueError):
            u.values[0] = 1.0
        with pytest.raises(AttributeError):
            u.values = np.ones(grid1d.points)

    def test_mismatched_grid(self, grid1d, grid1d_small):
        u = GridFn(grid1d, np.zeros(grid1d.points))
        v = GridFn(grid1d_small, np.zeros(grid1d_small.points))
        with pytest.raises(ParameterError):
            _ = u + v
