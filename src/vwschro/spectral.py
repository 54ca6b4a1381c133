"""Shared spectral kernel: periodic grids, FFT derivatives, discrete
Sobolev norms, Kohn-Nirenberg quantization and operator-norm probes.

All solvers in this package work on uniform periodic grids over the torus
``[-L, L)^d`` (d = 1 or 2).  Functions are stored as complex samples on
the grid; differential and pseudodifferential operators act through the
FFT.  Conventions:

* the Fourier transform is ``u_hat(xi) = int e^{-i x xi} u(x) dx`` and the
  inverse carries ``(2 pi)^{-d}``;
* frequencies live on the standard FFT lattice ``k in {-n/2, ..., n/2-1}
  * (pi / L)`` per axis (stored in FFT order);
* ``D = -i d/dx``, so ``D^alpha`` is the Fourier multiplier ``xi^alpha``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalBlowupError, ParameterError, SizeGuardError

#: largest per-axis point count for which a dense 2D symbol (values over
#: the full (x, xi) product lattice) may be quantized; above this the
#: product lattice no longer fits in desk-scale memory.
DENSE_2D_GUARD = 128


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus ``[-L, L)^dimension``.

    Parameters
    ----------
    dimension : int
        1 or 2.
    points : int
        Points per axis; must be a power of two (FFT friendliness).
    half_length : float
        Half side length L of the periodic box.
    """

    dimension: int
    points: int
    half_length: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.dimension}")
        if not _is_power_of_two(self.points):
            raise ParameterError(f"points must be a power of two >= 2, got {self.points}")
        if not (self.half_length > 0 and np.isfinite(self.half_length)):
            raise ParameterError(f"half_length must be positive, got {self.half_length}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dimension

    @property
    def size(self) -> int:
        return self.points**self.dimension

    @property
    def cell(self) -> float:
        """Volume of one grid cell (quadrature weight in physical space)."""
        return self.spacing**self.dimension

    @property
    def nyquist(self) -> float:
        """Largest frequency magnitude on one axis, ``(n/2) * pi / L``."""
        return (self.points // 2) * np.pi / self.half_length

    def axis(self) -> np.ndarray:
        """Spatial sample positions ``-L + j * spacing`` along one axis."""
        return -self.half_length + self.spacing * np.arange(self.points)

    def freq_axis(self) -> np.ndarray:
        """Frequency lattice along one axis, in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def x_meshes(self) -> tuple[np.ndarray, ...]:
        x = self.axis()
        if self.dimension == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def k_meshes(self) -> tuple[np.ndarray, ...]:
        k = self.freq_axis()
        if self.dimension == 1:
            return (k,)
        return tuple(np.meshgrid(k, k, indexing="ij"))


class GridFn:
    """Complex-valued function sampled on a :class:`Grid`.

    Values are stored as an ndarray of shape ``grid.shape`` and frozen
    after construction, so instances can be shared freely across threads
    and net points.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            if values.size == grid.size:
                values = values.reshape(grid.shape)
            else:
                raise ParameterError(
                    f"values of size {values.size} do not fit grid of size {grid.size}"
                )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GridFn is immutable")

    def with_values(self, values: np.ndarray) -> "GridFn":
        return GridFn(self.grid, values)

    # Small arithmetic surface used by the solvers; everything returns a
    # fresh GridFn and never mutates.
    def __add__(self, other):
        return GridFn(self.grid, self.values + _coerce(other, self.grid))

    def __sub__(self, other):
        return GridFn(self.grid, self.values - _coerce(other, self.grid))

    def __mul__(self, other):
        return GridFn(self.grid, self.values * _coerce(other, self.grid))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return GridFn(self.grid, self.values / _coerce(other, self.grid))

    def __neg__(self):
        return GridFn(self.grid, -self.values)

    def conj(self) -> "GridFn":
        return GridFn(self.grid, np.conj(self.values))

    def __repr__(self):  # pragma: no cover - debug aid
        g = self.grid
        return f"GridFn(dim={g.dimension}, n={g.points}, L={g.half_length})"


def _coerce(other, grid: Grid):
    if isinstance(other, GridFn):
        if other.grid != grid:
            raise ParameterError("GridFn operands live on different grids")
        return other.values
    return other


def gridfn_from_callable(grid: Grid, fn: Callable) -> GridFn:
    """Sample ``fn(x)`` (1D) or ``fn(x1, x2)`` (2D) on the grid."""
    return GridFn(grid, fn(*grid.x_meshes()))


@lru_cache(maxsize=64)
def _bracket_lattice(grid: Grid, two_m: int) -> np.ndarray:
    """``<k>^(2m)`` over the frequency lattice, cached per (grid, m)."""
    if grid.dimension == 1:
        k2 = grid.freq_axis() ** 2
    else:
        k1, k2m = grid.k_meshes()
        k2 = k1**2 + k2m**2
    w = (1.0 + k2) ** (two_m / 2.0)
    w.setflags(write=False)
    return w


def sobolev_norm(u: GridFn, m: int) -> float:
    """Discrete Sobolev norm ``H^m`` of a grid function.

    Computed as ``(sum_k <k>^(2m) |u_hat_k|^2 * cell)^(1/2)`` with
    ``u_hat`` the normalized DFT and ``cell = (2L)^d`` the spectral
    quadrature weight.  For ``m = 0`` this agrees with the discrete L2
    norm ``(sum_j |u_j|^2 dx^d)^(1/2)`` (Parseval).
    """
    return sobolev_norms(u, (m,))[m]


def sobolev_norms(u: GridFn, m_set: Sequence[int]) -> dict:
    """``{m: sobolev_norm(u, m)}`` for every m in ``m_set``, from one FFT."""
    if any(m < 0 for m in m_set):
        raise ParameterError("Sobolev index m must be a nonnegative integer")
    g = u.grid
    power = np.abs(np.fft.fftn(u.values) / g.size) ** 2
    cell = (2.0 * g.half_length) ** g.dimension
    return {m: float(np.sqrt(float(np.sum(_bracket_lattice(g, 2 * int(m)) * power)) * cell))
            for m in m_set}


def l2_norm(u: GridFn) -> float:
    return sobolev_norm(u, 0)


def l2_inner(u: GridFn, v: GridFn) -> complex:
    """Discrete L2 inner product ``<u, v> = sum u conj(v) * cell``."""
    if u.grid != v.grid:
        raise ParameterError("inner product requires a common grid")
    return complex(np.sum(u.values * np.conj(v.values)) * u.grid.cell)


def fft_derivative(u: GridFn, alpha: int | Sequence[int]) -> GridFn:
    """Apply ``D^alpha`` (``D = -i d/dx``) via the spectral multiplier
    ``xi^alpha``.

    ``alpha`` is an integer order in 1D or a multi-index ``(a1, a2)``
    in 2D.
    """
    g = u.grid
    if g.dimension == 1:
        a = int(alpha) if np.isscalar(alpha) else int(alpha[0])
        mult = g.freq_axis() ** a
    else:
        a1, a2 = (int(alpha), 0) if np.isscalar(alpha) else (int(alpha[0]), int(alpha[1]))
        k1, k2 = g.k_meshes()
        mult = (k1**a1) * (k2**a2)
    return GridFn(g, np.fft.ifftn(mult * np.fft.fftn(u.values)))


class SymbolFn:
    """Symbol ``p(x, xi)`` over the grid's ``(x, xi)`` product lattice.

    Four storage kinds are supported:

    ``multiplier``
        ``p`` depends on ``xi`` only; exact fast path through one FFT pair.
    ``multiplication``
        ``p`` depends on ``x`` only; exact pointwise product.
    ``separable``
        finite sum ``p = sum_i f_i(x) g_i(xi)``; one FFT pair per term.
    ``dense``
        general ``p`` given as a vectorized callable on meshes; quantized
        row by row in 1D, or by x1-slices in 2D (with a memory guard).
    """

    __slots__ = ("grid", "kind", "data")

    def __init__(self, grid: Grid, kind: str, data):
        if kind not in ("multiplier", "multiplication", "separable", "dense"):
            raise ParameterError(f"unknown symbol kind {kind!r}")
        self.grid = grid
        self.kind = kind
        self.data = data

    @classmethod
    def multiplier(cls, grid: Grid, values_or_fn) -> "SymbolFn":
        vals = values_or_fn(*grid.k_meshes()) if callable(values_or_fn) else values_or_fn
        return cls(grid, "multiplier", np.asarray(vals, dtype=np.complex128))

    @classmethod
    def multiplication(cls, grid: Grid, values_or_fn) -> "SymbolFn":
        vals = values_or_fn(*grid.x_meshes()) if callable(values_or_fn) else values_or_fn
        return cls(grid, "multiplication", np.asarray(vals, dtype=np.complex128))

    @classmethod
    def separable(cls, grid: Grid, terms) -> "SymbolFn":
        prepared = []
        for fx, gk in terms:
            fxv = fx(*grid.x_meshes()) if callable(fx) else fx
            gkv = gk(*grid.k_meshes()) if callable(gk) else gk
            prepared.append(
                (np.asarray(fxv, dtype=np.complex128), np.asarray(gkv, dtype=np.complex128))
            )
        return cls(grid, "separable", tuple(prepared))

    @classmethod
    def dense(cls, grid: Grid, fn: Callable) -> "SymbolFn":
        """``fn(x, k)`` in 1D, ``fn(x1, x2, k1, k2)`` in 2D, broadcastable."""
        return cls(grid, "dense", fn)


def kn_quantize(p: SymbolFn, u: GridFn) -> GridFn:
    """Kohn-Nirenberg quantization ``p(x, D) u``.

    Realized per grid point as the inverse transform of
    ``p(x, .) u_hat(.)``.  Exact (one FFT pair) for pure multipliers and
    for pure multiplication symbols; dense symbols cost
    ``O(n^2 log n)`` in 1D and ``O(n^4 log n)`` in 2D.
    """
    g = u.grid
    if p.grid != g:
        raise ParameterError("symbol and function live on different grids")
    if p.kind == "multiplier":
        return GridFn(g, np.fft.ifftn(p.data * np.fft.fftn(u.values)))
    if p.kind == "multiplication":
        return GridFn(g, p.data * u.values)
    if p.kind == "separable":
        uhat = np.fft.fftn(u.values)
        out = np.zeros(g.shape, dtype=np.complex128)
        for fx, gk in p.data:
            out += fx * np.fft.ifftn(gk * uhat)
        return GridFn(g, out)
    # dense
    if g.dimension == 1:
        x = g.axis()
        k = g.freq_axis()
        P = np.asarray(p.data(x[:, None], k[None, :]), dtype=np.complex128)
        uhat = np.fft.fft(u.values)
        rows = np.fft.ifft(P * uhat[None, :], axis=1)
        return GridFn(g, np.diagonal(rows).copy())
    if g.points > DENSE_2D_GUARD:
        raise SizeGuardError(
            f"dense 2D quantization limited to {DENSE_2D_GUARD} points per axis, "
            f"got {g.points}; use a separable symbol instead"
        )
    x, _, X2, K1, K2 = slice_lattice(g)

    def row(j1: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(p.data(x[j1], X2, K1, K2)), (g.points,) * 3)

    return GridFn(g, dense_quantize_2d(g, row, u.values))


def slice_lattice(g: Grid) -> tuple[np.ndarray, ...]:
    """The (x2, k1, k2) lattice of one x1 slice of a 2D symbol:
    ``(x, k, X2, K1, K2)``, the axes and their broadcastable forms
    ``x[:, None, None]``, ``k[None, :, None]``, ``k[None, None, :]``."""
    x = g.axis()
    k = g.freq_axis()
    return x, k, x[:, None, None], k[None, :, None], k[None, None, :]


def dense_quantize_2d(g: Grid, row: Callable[[int], np.ndarray],
                      values: np.ndarray) -> np.ndarray:
    """Row-sliced dense 2D quantization.

    ``row(j1)`` is the symbol on the (x2, k1, k2) lattice at the x1 slice
    ``j1``.  Per slice the k1 sum is contracted first (einsum against the
    phase-weighted coefficients), leaving an inverse DFT in k2 evaluated
    on its diagonal.
    """
    n = g.points
    c = np.fft.fft2(values) / (n * n)  # coefficient of e^{i k x} per mode
    out = np.empty((n, n), dtype=np.complex128)
    j2 = np.arange(n)
    phase1 = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    for j1 in range(n):
        P = row(j1)
        W = c * phase1[j1][:, None]
        T = np.einsum("jab,ab->jb", P, W)
        F = np.fft.ifft(T, axis=1) * n
        out[j1, :] = F[j2, j2]
    return out


def random_bandlimited(
    grid: Grid,
    rng: np.random.Generator,
    band_frac: float = 2.0 / 3.0,
    localized: bool = False,
    width_frac: float = 0.2,
) -> GridFn:
    """Random test function with spectrum confined to the inner
    ``band_frac`` of the lattice (standard dealiasing margin).

    With ``localized=True`` the sample is windowed by a Gaussian envelope
    of width ``width_frac * L`` so its values at the torus seam are
    negligible; probes of operators built from non-periodic
    antiderivatives need this to keep the seam wrap-around below the
    probe tolerance.
    """
    shape = grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kmax = band_frac * grid.nyquist
    if grid.dimension == 1:
        mask = np.abs(grid.freq_axis()) <= kmax
    else:
        k1, k2 = grid.k_meshes()
        mask = np.maximum(np.abs(k1), np.abs(k2)) <= kmax
    vals = np.fft.ifftn(coeffs * mask)
    if localized:
        sigma = width_frac * grid.half_length
        if grid.dimension == 1:
            (xm,) = grid.x_meshes()
            env = np.exp(-((xm / sigma) ** 2))
        else:
            x1, x2 = grid.x_meshes()
            env = np.exp(-((x1 / sigma) ** 2) - ((x2 / sigma) ** 2))
        vals = vals * env
    u = GridFn(grid, vals)
    nrm = l2_norm(u)
    if nrm == 0.0:  # pragma: no cover - probability zero
        return u
    return u * (1.0 / nrm)


def band_projector(grid: Grid, band_frac: float = 2.0 / 3.0):
    """Projection onto the dealiased band ``max_i |k_i| <= band_frac * nyq``."""
    kmax = band_frac * grid.nyquist
    if grid.dimension == 1:
        mask = np.abs(grid.freq_axis()) <= kmax
    else:
        k1, k2 = grid.k_meshes()
        mask = np.maximum(np.abs(k1), np.abs(k2)) <= kmax

    def project(u: GridFn) -> GridFn:
        return GridFn(grid, np.fft.ifftn(mask * np.fft.fftn(u.values)))

    return project


def operator_norm_probe(
    apply: Callable[[GridFn], GridFn],
    trials: int,
    grid: Grid,
    iters: int = 15,
    rng: np.random.Generator | None = None,
    band_frac: float = 2.0 / 3.0,
    localized: bool = False,
    project_band: float | None = None,
) -> float:
    """Lower estimate of the L2 -> L2 operator norm of a linear map.

    Power iteration from random bandlimited starts; reports the maximum
    final Rayleigh-type ratio over all trials.  The probe never
    overestimates the true norm (each reported value is an attained
    ratio ``|A u| / |u|``), so it is used both as a norm surrogate and
    as a contraction test.

    With ``project_band`` set, every iterate is re-projected onto the
    dealiased band before the next application, so the estimate refers
    to the operator compressed to resolvable modes.  Pointwise-symbol
    operators alias near the lattice corners, and an unprojected power
    iteration drifts into those modes and reports the aliasing artifact
    rather than the norm relevant for resolved states.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    project = band_projector(grid, project_band) if project_band else None
    best = 0.0
    for _ in range(max(1, int(trials))):
        v = random_bandlimited(grid, rng, band_frac=band_frac, localized=localized)
        ratio = 0.0
        for _ in range(max(1, int(iters))):
            w = apply(v)
            if not np.all(np.isfinite(w.values)):
                raise NumericalBlowupError("non-finite values during norm probe")
            if project is not None:
                w = project(w)
            nrm = l2_norm(w)
            ratio = nrm / l2_norm(v)
            if nrm == 0.0:
                break
            v = w * (1.0 / nrm)
        best = max(best, ratio)
    return best


_HEADER = struct.Struct("<qqd")


def gridfn_to_bytes(u: GridFn) -> bytes:
    """Serialize to the flat binary layout: int64 dimension, int64 points
    per axis, float64 half length, then interleaved re/im doubles in row
    major order."""
    head = _HEADER.pack(u.grid.dimension, u.grid.points, u.grid.half_length)
    return head + np.ascontiguousarray(u.values, dtype=np.complex128).tobytes()


def gridfn_from_bytes(blob: bytes) -> GridFn:
    dim, n, L = _HEADER.unpack_from(blob, 0)
    g = Grid(int(dim), int(n), float(L))
    vals = np.frombuffer(blob, dtype=np.complex128, offset=_HEADER.size)
    if vals.size != g.size:
        raise ParameterError("corrupt GridFn blob: size mismatch")
    return GridFn(g, vals.reshape(g.shape))
