"""Mollifiers, asymptotic scales and the regularization maps that turn
symbolic distributions into smooth epsilon-families with explicit bounds.

Two mollifier kinds cover everything the solvers need:

* ``bandlimited`` kernels have a transform that equals 1 on a spectral
  plateau ``|xi| <= r1`` and vanishes for ``|xi| >= r2``.  All higher
  moments vanish, so smoothing converges faster than any power on smooth
  inputs, and any grid function whose discrete spectrum sits inside the
  plateau is reproduced exactly.
* ``bump`` kernels are compactly supported, nonnegative and bounded by 1;
  they are what the positive time coefficient needs (the mollified
  coefficient inherits two-sided bounds).  An optional center offset
  produces a kernel with nonvanishing first moment, used as a control in
  the consistency experiments.

Scales map the regularization parameter to a mollification width
``omega(eps)``.  The ``logchain`` scale is evaluated in iterated-log
coordinates because the epsilon values it needs (``omega <= 1`` requires
``eps < exp(-e^{e^e})``) are far below floating-point range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .dist import DistributionSpec, Delta, DeltaDerivative, ClassicalFn, FiniteSum, fourier_eval, is_compactly_supported
from .errors import HypothesisViolationError, ParameterError, ScaleDomainError, UnsupportedVariantError
from .fitting import fit_power_growth, fit_power_decay
from .spectral import Grid, GridFn

__all__ = [
    "Mollifier",
    "build_mollifier",
    "Scale",
    "ChainCoords",
    "ChainCertificate",
    "omega",
    "chain_certificate",
    "RegularizedCoefficient",
    "regularize_space",
    "extend_regularize_a",
    "regularize_time_dist",
    "compute_eps0",
    "verify_prop21",
    "Prop21Report",
]


#: the erf transition of a bandlimited profile covers this many standard
#: deviations between plateau edge and support edge.  The residual tail
#: erfc(TRANSITION_SIGMAS / (2 sqrt(2))) ~ 8e-24 is zero at working
#: precision, so plateau and support hold exactly in doubles, while the
#: reciprocal width sets the kernel's spatial Gaussian envelope
#: (std = TRANSITION_SIGMAS * omega / (r2 - r1)), which must stay well
#: inside the periodic box for the mollification widths in use.
TRANSITION_SIGMAS = 20.0


@dataclass(frozen=True)
class Mollifier:
    """Schwartz-class smoothing kernel with unit integral.

    ``kind`` is ``"bandlimited"`` (spectral plateau radius ``r1``,
    spectral support radius ``r2``) or ``"bump"`` (compact support
    ``radius``, optional ``center`` offset).  ``moment_order`` records
    how many moments beyond the zeroth are known to vanish ("all" for
    bandlimited kernels).
    """

    kind: str
    dimension: int = 1
    r1: float = 1.0
    r2: float = 2.0
    radius: float = 1.0
    center: float = 0.0
    moment_order: object = 0
    _norm: float = field(default=1.0, repr=False)

    # -- transform side -------------------------------------------------
    def hat_radial(self, s):
        """Transform profile as a function of |xi|.

        Bandlimited kernels use a Gaussian-smoothed indicator (erf
        transition) of the band ``[-rm, rm]`` with ``rm = (r1+r2)/2``:
        identically 1 on the plateau and identically 0 beyond the support
        at working precision.  Bump transforms go through quadrature.
        """
        s = np.abs(np.asarray(s, dtype=float))
        if self.kind == "bandlimited":
            from scipy.special import erf

            rm = 0.5 * (self.r1 + self.r2)
            sig = (self.r2 - self.r1) / TRANSITION_SIGMAS
            z = 1.0 / (np.sqrt(2.0) * sig)
            return 0.5 * (erf((s + rm) * z) - erf((s - rm) * z))
        # bump: 1D numerical transform of the (possibly shifted) kernel
        return self._bump_hat(s)

    def hat(self, *xi):
        if len(xi) == 1:
            return self.hat_radial(xi[0]) if self.kind == "bandlimited" else self._bump_hat(xi[0])
        k1, k2 = xi
        return self.hat_radial(np.hypot(k1, k2))

    def _bump_hat(self, xi):
        xi = np.asarray(xi, dtype=float)
        s, w = _gl_nodes(192)
        y = self.center + self.radius * s
        f = self._bump_values(y) * (self.radius * w)
        ker = np.exp(-1j * np.tensordot(xi, y, axes=0))
        return ker @ f

    # -- physical side ---------------------------------------------------
    def _bump_values(self, x):
        x = np.asarray(x, dtype=float)
        s = (x - self.center) / self.radius
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out * self._norm

    def value(self, x):
        """Kernel values.  1D: at points ``x``; 2D: radial, at radii |x|.

        The 1D bandlimited kernel has the closed form
        ``(rm/pi) sinc(rm x / pi) exp(-sig^2 x^2 / 2)`` (inverse transform
        of the erf profile); the 2D radial kernel goes through a Hankel
        quadrature of the same profile.
        """
        if self.kind == "bump":
            return self._bump_values(x)
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            rm = 0.5 * (self.r1 + self.r2)
            sig = (self.r2 - self.r1) / TRANSITION_SIGMAS
            return (rm / np.pi) * np.sinc(rm * x / np.pi) * np.exp(-0.5 * (sig * x) ** 2)
        from scipy.special import j0

        r = np.abs(x)
        xi, phat = self._profile_nodes()
        out = np.empty(r.shape, dtype=float)
        flat = r.ravel()
        res = out.ravel()
        step = max(1, 2**22 // xi.size)
        for lo in range(0, flat.size, step):
            c = flat[lo : lo + step]
            res[lo : lo + len(c)] = np.trapezoid(
                j0(np.outer(c, xi)) * (phat * xi)[None, :], xi, axis=1
            ) / (2.0 * np.pi)
        return out

    def dvalue(self, x, order: int = 1):
        """Derivatives of the 1D kernel (analytic for bumps up to order 2,
        spectral quadrature for bandlimited kernels)."""
        if self.dimension != 1:
            raise UnsupportedVariantError("kernel derivatives implemented in 1D only")
        x = np.asarray(x, dtype=float)
        if self.kind == "bandlimited":
            xi, phat = self._profile_nodes()
            full = np.concatenate([-xi[:0:-1], xi])
            ker = np.concatenate([phat[:0:-1], phat])
            mult = (1j * full) ** order * ker
            vals = np.trapezoid(
                np.exp(1j * np.outer(x.ravel(), full)) * mult[None, :], full, axis=1
            ) / (2.0 * np.pi)
            # real even transform profile: every derivative is real
            return vals.real.reshape(x.shape)
        if order == 0:
            return self._bump_values(x)
        s = (x - self.center) / self.radius
        phi = self._bump_values(x)
        g1 = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        g1[inside] = -2.0 * si / (1.0 - si**2) ** 2
        if order == 1:
            return phi * g1 / self.radius
        if order == 2:
            g2 = np.zeros_like(s)
            g2[inside] = -2.0 / (1.0 - si**2) ** 2 - 8.0 * si**2 / (1.0 - si**2) ** 3
            return phi * (g1**2 + g2) / self.radius**2
        # higher orders: central differences of the analytic second derivative
        h = 1e-4 * self.radius
        return (self.dvalue(x + h, order - 1) - self.dvalue(x - h, order - 1)) / (2 * h)

    def _profile_nodes(self, n: int = 4096):
        """Quadrature nodes of the radial transform profile on [0, r2]."""
        xi = np.linspace(0.0, self.r2, n)
        return xi, self.hat_radial(xi)

    def moment(self, k: int, halfwidth: float = 60.0, n: int = 2**17) -> float:
        """Numerical k-th moment ``int x^k phi dx`` (1D, quadrature)."""
        if self.dimension != 1:
            raise UnsupportedVariantError("moments implemented in 1D only")
        if self.kind == "bump":
            halfwidth = self.radius + abs(self.center) + 1.0
        x = np.linspace(-halfwidth, halfwidth, n + 1)
        return float(np.trapezoid(x**k * self.value(x), x))


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use
    and shared read-only by every caller."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


#: times per block of :func:`_panel_quadrature`: its temporaries stay near
#: half a megabyte however many times are asked for (blocks of 64 raised
#: the peak resident memory of a 1D net run by about 1%, at no gain in speed)
_QUAD_BLOCK = 32


def _panel_quadrature(t, edges: Callable, integrand: Callable, n_nodes: int) -> np.ndarray:
    """Composite Gauss-Legendre integrals, one per time in ``t``.

    ``edges(tb)`` gives the panel edges for a block of times, shape
    ``(times, panels + 1)``, nondecreasing along each row; a panel outside
    a time's window has zero width and adds nothing.  ``integrand(tb, x)``
    is evaluated at the nodes ``x``, shape ``(times, panels, nodes)``, with
    ``tb`` shaped ``(times, 1, 1)``.  Each time's panels are summed in
    their order, so a value is the float a loop over its panels gives.
    """
    s, w = _gl_nodes(n_nodes)
    t = np.asarray(t, dtype=float).ravel()
    blocks = []
    for lo in range(0, t.size, _QUAD_BLOCK):
        tb = t[lo : lo + _QUAD_BLOCK]
        e = edges(tb)
        mid = 0.5 * (e[:, :-1] + e[:, 1:])
        half = 0.5 * (e[:, 1:] - e[:, :-1])
        x = mid[..., None] + half[..., None] * s
        panels = np.sum(integrand(tb[:, None, None], x) * w, axis=-1) * half
        blocks.append(np.add.accumulate(panels, axis=1)[:, -1])
    return np.concatenate(blocks) if blocks else np.zeros(0)


_BUMP_MASS = quad(
    lambda s: np.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0, limit=400, epsabs=1e-14, epsrel=1e-14
)[0]


def build_mollifier(kind: str, dimension: int = 1, **params) -> Mollifier:
    """Construct a mollifier and verify its defining invariants.

    ``bandlimited`` takes ``r1 < r2`` (plateau and support radii);
    ``bump`` takes ``radius`` and optional ``center``.  Bump kernels are
    normalized to unit mass; the combination of unit mass, compact
    support and the bound ``0 <= phi <= 1`` requires ``radius`` to be
    large enough (about 0.83), which is validated here.
    """
    if kind == "bandlimited":
        r1 = float(params.get("r1", 1.0))
        r2 = float(params.get("r2", 2.0))
        if not (0 < r1 < r2):
            raise ParameterError(f"need 0 < r1 < r2, got r1={r1}, r2={r2}")
        return Mollifier("bandlimited", dimension, r1=r1, r2=r2, moment_order="all")
    if kind == "bump":
        radius = float(params.get("radius", 1.0))
        center = float(params.get("center", 0.0))
        if radius <= 0:
            raise ParameterError("bump radius must be positive")
        if dimension != 1:
            raise ParameterError("bump mollifiers are 1D (time regularization)")
        norm = 1.0 / (_BUMP_MASS * radius)
        peak = norm * np.exp(-1.0)
        if peak > 1.0 + 1e-12:
            raise ParameterError(
                f"bump with radius {radius} has peak {peak:.3f} > 1; "
                "unit mass and 0 <= phi <= 1 require radius >= "
                f"{np.exp(-1.0) / _BUMP_MASS:.3f}"
            )
        m = Mollifier("bump", dimension, radius=radius, center=center,
                      moment_order=1 if center == 0.0 else 0, _norm=norm)
        return m
    raise ParameterError(f"unknown mollifier kind {kind!r}")


# ---------------------------------------------------------------------------
# scales


@dataclass(frozen=True)
class ChainCoords:
    """Scale argument in iterated-log coordinates.

    ``value`` is ``Lambda_level = log(log(...log(1/eps)))`` with ``level``
    nested logs already taken (level 1 stores ``log(1/eps)``).
    """

    level: int
    value: float

    def __post_init__(self):
        if not 1 <= self.level <= 4:
            raise ParameterError("chain coordinate level must be in 1..4")
        if not np.isfinite(self.value):
            raise ParameterError("chain coordinate must be finite")


@dataclass(frozen=True)
class Scale:
    """Mollification-width scale ``eps -> omega(eps)``.

    Kinds: ``standard`` (identity), ``power`` (``eps^r``), ``logchain``
    (reciprocal of a four-fold iterated logarithm of ``1/eps``).  All are
    positive, nonincreasing in ``1/eps``, and bounded below by a power of
    ``eps`` on their domain.
    """

    kind: str = "standard"
    r: float = 1.0

    def __post_init__(self):
        if self.kind not in ("standard", "power", "logchain"):
            raise ParameterError(f"unknown scale kind {self.kind!r}")
        if self.kind == "power" and self.r <= 0:
            raise ParameterError("power scale exponent must be positive")


def _chain_tail(point, target_level: int = 4) -> float:
    """Iterate logs from the given coordinate level up to ``target_level``,
    refusing (never clamping) whenever a log of a nonpositive number would
    be required."""
    if isinstance(point, ChainCoords):
        level, value = point.level, float(point.value)
    else:
        eps = float(point)
        if not eps > 0:
            raise ScaleDomainError(f"eps must be positive, got {eps}")
        # level 0 holds 1/eps itself; the first log moves to level 1
        level, value = 0, 1.0 / eps
    while level < target_level:
        if value <= 0:
            raise ScaleDomainError(
                f"iterated log undefined: chain value {value} at level {level} is not positive"
            )
        value = float(np.log(value))
        level += 1
    return value


def omega(scale: Scale, point) -> float:
    """Evaluate the scale.

    ``point`` is a plain epsilon for the standard and power kinds.  The
    logchain kind accepts a plain epsilon when representable, or a
    :class:`ChainCoords` carrying ``Lambda_k`` for epsilon values outside
    floating-point range.
    """
    if scale.kind == "standard":
        eps = float(point)
        if eps <= 0:
            raise ScaleDomainError("eps must be positive")
        return eps
    if scale.kind == "power":
        eps = float(point)
        if eps <= 0:
            raise ScaleDomainError("eps must be positive")
        return eps**scale.r
    L4 = _chain_tail(point, target_level=4)
    if L4 <= 0:
        raise ScaleDomainError(f"logchain undefined: log log log log(1/eps) = {L4} <= 0")
    return 1.0 / L4


@dataclass(frozen=True)
class ChainCertificate:
    """Certificate for the chain inequality ``exp(omega^{-N}) <= eps^{-D}``.

    Equivalently ``(log log log log(1/eps))^N <= D * log(1/eps)``; the
    reported ``D`` is the smallest positive integer making the inequality
    hold.  ``in_unit_regime`` records whether ``omega <= 1`` (outside it
    the certificate is still evaluated but flagged)."""

    omega: float
    lambda1: float
    N: int
    D: int
    holds: bool
    in_unit_regime: bool
    note: str = ""


def chain_certificate(scale: Scale, point, N: int, D: int | None = None) -> ChainCertificate:
    if scale.kind != "logchain":
        raise ParameterError("chain certificate applies to the logchain scale")
    if N < 0:
        raise ParameterError("N must be nonnegative")
    lam1 = _chain_tail(point, target_level=1)
    if lam1 <= 0:
        raise ScaleDomainError("certificate needs log(1/eps) > 0")
    w = omega(scale, point)
    lhs = (1.0 / w) ** N
    if D is None:
        D = max(1, int(np.ceil(lhs / lam1)))
    holds = lhs <= D * lam1 * (1 + 1e-12)
    unit = w <= 1.0
    note = "" if unit else "outside omega <= 1 regime"
    return ChainCertificate(w, lam1, int(N), int(D), bool(holds), bool(unit), note)


# ---------------------------------------------------------------------------
# regularized coefficients


@dataclass(frozen=True)
class RegularizedCoefficient:
    """One member of a regularized net.

    Space coefficients carry grid samples in ``values``; time
    coefficients carry callables ``fn`` (and ``dfn``, the exact
    convolution derivative).  ``fitted_exponent`` is filled by net-level
    fits, not by a single regularization.
    """

    kind: str  # "space" or "time"
    eps: float
    values: GridFn | None = None
    fn: Callable | None = None
    dfn: Callable | None = None
    decay_weight: str = "none"  # or "x^-2"
    fitted_exponent: float | None = None
    sup: float = 0.0
    meta: dict = field(default_factory=dict)

    def __call__(self, t):
        if self.fn is None:
            raise UnsupportedVariantError("space coefficient is not callable in time")
        return self.fn(t)

    def derivative(self, t):
        if self.dfn is None:
            raise UnsupportedVariantError("no derivative recorded for this coefficient")
        return self.dfn(t)

    def tabulated(self, times) -> "RegularizedCoefficient":
        """Copy whose ``fn`` and ``dfn`` read tables at the sorted ``times``.

        Each table is filled by one vectorized call on first use; a time
        off the table falls back to the untabulated function, so the copy
        agrees with this coefficient everywhere.
        """
        times = np.asarray(times, dtype=float)
        return replace(self, fn=_Tabulated(self.fn, times),
                       dfn=None if self.dfn is None else _Tabulated(self.dfn, times))

    def weighted_sup(self, grid: Grid | None = None) -> float:
        """sup of |values| * <x>^2 on the grid (for decay-tagged b's)."""
        if self.values is None:
            raise UnsupportedVariantError("weighted sup needs grid samples")
        g = self.values.grid
        xs = g.x_meshes()
        w = 1.0 + sum(x**2 for x in xs)
        return float(np.max(np.abs(self.values.values) * w))


class _Tabulated:
    """A time function read from its values at sorted ``times``, found by
    ``searchsorted`` and exact equality; other times call ``fn``."""

    __slots__ = ("fn", "times", "values")

    def __init__(self, fn: Callable, times: np.ndarray):
        self.fn = fn
        self.times = times
        self.values = None

    def __call__(self, t):
        if self.values is None:
            self.values = np.broadcast_to(np.asarray(self.fn(self.times)), self.times.shape)
        i = self.times.searchsorted(t)
        if (self.times.take(i, mode="clip") == t).all():
            return self.values[i]
        return self.fn(t)


def regularize_space(
    d: DistributionSpec,
    m: Mollifier,
    s: Scale,
    eps: float,
    grid: Grid,
    path: str = "fourier",
) -> RegularizedCoefficient:
    """Mollify a space distribution onto the grid at width ``omega(eps)``.

    The default path multiplies the exact transform by the kernel
    transform on the frequency lattice and inverts (this realizes the
    periodization of the convolution on the torus).  For point masses the
    ``direct`` path evaluates the scaled kernel around the center,
    periodized over neighbor copies; the two paths agree to roundoff.
    """
    w = omega(s, eps)
    if d.dim != grid.dimension:
        raise ParameterError("distribution and grid dimensions differ")
    if m.dimension != grid.dimension:
        raise ParameterError("mollifier and grid dimensions differ")
    if path == "direct":
        if not isinstance(d, Delta):
            raise UnsupportedVariantError("direct path implemented for point masses")
        vals = _delta_direct(d, m, w, grid)
    else:
        ks = grid.k_meshes()
        dhat = fourier_eval(d, ks[0] if grid.dimension == 1 else (ks[0], ks[1]))
        scaled = (w * ks[0],) if grid.dimension == 1 else (w * ks[0], w * ks[1])
        mhat = m.hat(*scaled)
        vals = np.fft.ifftn(
            dhat * mhat * _lattice_phase(grid)
        )
    gf = GridFn(grid, vals)
    decay = "x^-2" if _has_x2_decay(d) else "none"
    return RegularizedCoefficient(
        kind="space", eps=eps, values=gf, decay_weight=decay,
        sup=float(np.max(np.abs(gf.values))), meta={"omega": w, "path": path},
    )


def _lattice_phase(grid: Grid) -> np.ndarray:
    """Factor aligning continuum transforms with the DFT convention.

    The torus periodization of a function with continuum transform F has
    Fourier-series coefficient ``F(k) / (2L)^d`` at lattice frequency k,
    and the inverse DFT phase ``e^{2 pi i j m / n}`` differs from
    ``e^{i k x_j}`` (with ``x_j = -L + j dx``) by ``e^{i k L}``.  Both
    corrections combine into ``e^{-i k L} / dx^d`` applied before ifftn.
    """
    if grid.dimension == 1:
        return np.exp(-1j * grid.freq_axis() * grid.half_length) / grid.cell
    k1, k2 = grid.k_meshes()
    return np.exp(-1j * (k1 + k2) * grid.half_length) / grid.cell


def _has_x2_decay(d: DistributionSpec) -> bool:
    # membership order >= 2 yields the <x>^-2 envelope after mollification;
    # point masses and their derivatives qualify automatically
    return isinstance(d, (Delta, DeltaDerivative)) or (
        isinstance(d, FiniteSum) and all(_has_x2_decay(spec) for _, spec in d.terms)
    )


def _delta_direct(d: Delta, m: Mollifier, w: float, grid: Grid) -> np.ndarray:
    xs = grid.x_meshes()
    L = grid.half_length
    if grid.dimension == 1:
        c = float(d.center)
        out = np.zeros(grid.shape, dtype=float)
        for shift in (-2, -1, 0, 1, 2):
            out += m.value((xs[0] - c + 2 * L * shift) / w)
        return out / w
    c1, c2 = d.center
    out = np.zeros(grid.shape, dtype=float)
    for s1 in (-1, 0, 1):
        for s2 in (-1, 0, 1):
            r = np.hypot(xs[0] - c1 + 2 * L * s1, xs[1] - c2 + 2 * L * s2)
            out += m.value(r / w)
    return out / w**2


# ---------------------------------------------------------------------------
# time coefficient a(t): extend, mollify, restrict


def compute_eps0(m: Mollifier, T: float, t_probe: int = 33, tol: float = 0.5) -> float:
    """Largest eps for which the captured kernel mass
    ``I_eps(t) = int_{-(T+1-t)/eps}^{(t+1)/eps} phi`` stays >= 1/2 on [0, T].

    For a compactly supported bump this is reached exactly when the
    support fits inside the extension margin; the value is found by
    bisection on the probed minimum rather than assumed.
    """
    if m.kind != "bump":
        raise ParameterError("the positive coefficient uses a bump mollifier")
    ts = np.linspace(0.0, T, t_probe)
    s, wq = _gl_nodes(160)

    def captured(eps):
        lo = -(T + 1.0 - ts) / eps
        hi = (ts + 1.0) / eps
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * s[None, :]
        vals = m._bump_values(nodes)
        return float(np.min(np.sum(vals * wq[None, :], axis=1) * half))

    lo_e, hi_e = 1e-6, 4.0
    if captured(hi_e) >= tol:
        return hi_e
    for _ in range(60):
        mid = 0.5 * (lo_e + hi_e)
        if captured(mid) >= tol:
            lo_e = mid
        else:
            hi_e = mid
    return lo_e


def extend_regularize_a(
    a: Callable,
    m: Mollifier,
    eps: float,
    T: float,
    ca: float | None = None,
    ca_tilde: float | None = None,
    breakpoints: Sequence[float] = (),
    n_check: int = 257,
) -> RegularizedCoefficient:
    """Regularize the positive leading coefficient a(t).

    The sample function is extended constantly to ``[-1, T+1]`` (zero
    outside), convolved with the scaled bump and restricted back to
    ``[0, T]``.  Composite Gauss-Legendre quadrature split at declared
    breakpoints keeps jump coefficients accurate.  The output callable
    satisfies ``ca/2 <= a_eps <= ca_tilde`` for ``eps`` below the
    computed admissible threshold; violations raise.
    """
    if m.kind != "bump":
        raise ParameterError("extend_regularize_a expects a bump mollifier")
    ts = np.linspace(0.0, T, n_check)
    samples = np.asarray(a(ts), dtype=float)
    if np.any(samples <= 0):
        raise HypothesisViolationError("a(t) must be strictly positive on [0, T]")
    ca_obs = float(samples.min())
    cat_obs = float(samples.max())
    ca = ca_obs if ca is None else float(ca)
    ca_tilde = cat_obs if ca_tilde is None else float(ca_tilde)
    eps0 = compute_eps0(m, T)
    if eps >= eps0:
        raise HypothesisViolationError(
            f"eps={eps} is not below the admissible threshold eps0={eps0:.6g}"
        )

    # constant extension to [-1, T+1]: values outside [0, T] clip to the
    # endpoint samples; the zero extension beyond [-1, T+1] is realized by
    # the integration limits below
    def a_line(t):
        t = np.asarray(t, dtype=float)
        inner = np.clip(t, 0.0, T)
        return np.asarray(a(inner), dtype=float)

    brk = np.array(sorted({0.0, T, *map(float, breakpoints)}))
    R = m.radius + abs(m.center)

    def conv(t, kernel_order: int):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        scale = eps ** (1 + kernel_order)

        def edges(tb):
            # the window [t - R eps, t + R eps] inside [-1, T+1], split at
            # the breakpoints; an empty window has only zero-width panels
            lo = np.maximum(tb - R * eps, -1.0)
            hi = np.maximum(np.minimum(tb + R * eps, T + 1.0), lo)
            return np.column_stack([lo, np.clip(brk, lo[:, None], hi[:, None]), hi])

        def integrand(tb, ss):
            return m.dvalue((tb - ss) / eps, kernel_order) / scale * a_line(ss)

        # 96 nodes integrate the flat-ended bump to machine precision
        out = _panel_quadrature(t, edges, integrand, 96)
        return out if out.size > 1 else float(out[0])

    def fn(t):
        return conv(t, 0)

    def dfn(t):
        return conv(t, 1)

    vals = np.asarray(fn(ts), dtype=float)
    if np.any(vals < 0.5 * ca - 1e-9) or np.any(vals > ca_tilde + 1e-9):
        raise HypothesisViolationError(
            "regularized a(t) escaped the two-sided bound [ca/2, ca_tilde]"
        )
    return RegularizedCoefficient(
        kind="time", eps=eps, fn=fn, dfn=dfn, sup=float(np.max(np.abs(vals))),
        meta={"ca": ca, "ca_tilde": ca_tilde, "eps0": eps0, "T": T},
    )


def regularize_time_dist(
    a_j: DistributionSpec, m: Mollifier, eps: float, T: float
) -> RegularizedCoefficient:
    """Mollify a compactly supported time distribution.

    Returns a continuous sampled function on [0, T] together with its
    exact derivative (convolution against the differentiated kernel),
    which the conjugation formulas need.
    """
    if not is_compactly_supported(a_j):
        raise HypothesisViolationError(
            "time coefficients must be compactly supported distributions"
        )

    def conv(t, order):
        t = np.asarray(t, dtype=float)
        return _time_conv(a_j, m, eps, t, order)

    def fn(t):
        return conv(t, 0)

    def dfn(t):
        return conv(t, 1)

    ts = np.linspace(0.0, T, 513)
    sup = float(np.max(np.abs(fn(ts))))
    return RegularizedCoefficient(
        kind="time", eps=eps, fn=fn, dfn=dfn, sup=sup, meta={"T": T}
    )


def _time_conv(a_j, m: Mollifier, eps: float, t: np.ndarray, order: int):
    if isinstance(a_j, Delta):
        return m.dvalue((t - a_j.center) / eps, order) / eps ** (1 + order)
    if isinstance(a_j, DeltaDerivative):
        k = a_j.order + order
        return m.dvalue((t - a_j.center) / eps, k) / eps ** (1 + k)
    if isinstance(a_j, FiniteSum):
        acc = 0.0
        for w, spec in a_j.terms:
            acc = acc + w * _time_conv(spec, m, eps, t, order)
        return acc
    if isinstance(a_j, ClassicalFn) and a_j.support_radius is not None:
        # integrate in kernel coordinates u = (t - s)/eps so the narrow
        # kernel is always resolved, splitting panels where the function's
        # support edge crosses the kernel window [-Rk, Rk]
        if m.kind != "bump":
            raise ParameterError("a classical time coefficient needs a compactly "
                                 "supported (bump) kernel")
        Rk = m.radius + abs(m.center)
        Rf = a_j.support_radius
        t = np.asarray(t, dtype=float)
        scale = eps**order

        def edges(tb):
            inner = np.clip(np.column_stack([(tb - Rf) / eps, (tb + Rf) / eps]), -Rk, Rk)
            ends = np.full(tb.shape, Rk)
            return np.column_stack([-ends, inner, ends])

        def integrand(tb, uu):
            ss = tb - eps * uu
            fv = np.where(np.abs(ss) <= Rf, np.asarray(a_j.fn(ss), dtype=np.complex128), 0.0)
            return m.dvalue(uu, order) / scale * fv

        out = _panel_quadrature(t, edges, integrand, 64).reshape(t.shape)
        # real only when exactly real: a tolerance would drop small
        # imaginary parts, and differently for different batches of times
        if not np.any(out.imag):
            out = out.real
        return out if out.size > 1 else out.ravel()[0]
    raise UnsupportedVariantError(f"cannot time-regularize {type(a_j).__name__}")


# ---------------------------------------------------------------------------
# estimate families


@dataclass(frozen=True)
class Prop21Report:
    """Fitted regularization-estimate families over an eps net.

    ``family`` is one of ``compact`` (sup growth ``omega^{-N-|beta|}``),
    ``tempered`` (weighted growth), ``bounded`` (uniform sup bound) or
    ``bounded_vm`` (convergence ``omega^q`` under vanishing moments).
    ``rows`` hold one (omega, norm) pair per net point and derivative.
    """

    family: str
    exponents: dict
    constants: dict
    rows: tuple
    converged: bool | None = None
    note: str = ""


def verify_prop21(
    d,
    m: Mollifier,
    s: Scale,
    eps_net: Sequence[float],
    grid: Grid,
    family: str | None = None,
    orders: Sequence[int] = (0, 1),
    q_probe: Sequence[int] = (1, 2, 3),
) -> Prop21Report:
    """Fit one of the four regularization-estimate families on a net.

    For distribution inputs the sup norms of the mollified family and its
    derivatives are fitted against ``1/omega``.  For bounded classical
    inputs the report records uniform boundedness, or the convergence
    rate of ``phi_omega * u - u`` when the kernel has vanishing moments.
    """
    eps_net = sorted(eps_net, reverse=True)
    if len(eps_net) < 2:
        raise ParameterError("need at least two net points")
    if family is None:
        family = "compact" if is_compactly_supported_or_point(d) else "bounded"

    if family in ("bounded", "bounded_vm"):
        gf = d if isinstance(d, GridFn) else GridFn(grid, d.fn(*grid.x_meshes()))
        sups, errs, ws = [], [], []
        for eps in eps_net:
            w = omega(s, eps)
            ws.append(w)
            sm = _smooth_gridfn(gf, m, w)
            sups.append(float(np.max(np.abs(sm.values))))
            errs.append(float(np.max(np.abs(sm.values - gf.values))))
        if family == "bounded":
            N, C, rel = fit_power_growth(ws, sups)
            return Prop21Report("bounded", {0: N}, {0: C}, tuple(zip(ws, sups)),
                                note=f"rel fit residual {rel:.3g}")
        floor = 1e-13 * max(sups)
        errs_f = [max(e, floor) for e in errs]
        qfit, C, rel = fit_power_decay(ws, errs_f)
        conv = all(e <= max(sups) * 1e-8 for e in errs) or qfit >= min(q_probe)
        return Prop21Report("bounded_vm", {"q": qfit}, {"q": C}, tuple(zip(ws, errs)),
                            converged=conv, note=f"rel fit residual {rel:.3g}")

    rows = []
    exponents = {}
    constants = {}
    for beta in orders:
        ws, sups = [], []
        for eps in eps_net:
            w = omega(s, eps)
            rc = regularize_space(d, m, s, eps, grid)
            vals = rc.values
            if beta:
                from .spectral import fft_derivative

                vals = fft_derivative(vals, beta)
            if family == "tempered":
                xs = grid.x_meshes()
                wgt = (1.0 + sum(x**2 for x in xs)) ** (-1.0)
                sup = float(np.max(np.abs(vals.values) * wgt))
            else:
                sup = float(np.max(np.abs(vals.values)))
            ws.append(w)
            sups.append(sup)
        N, C, rel = fit_power_growth(ws, sups)
        exponents[beta] = N
        constants[beta] = C
        rows.extend((beta, w, sup) for w, sup in zip(ws, sups))
    return Prop21Report(family, exponents, constants, tuple(rows))


def is_compactly_supported_or_point(d) -> bool:
    try:
        return is_compactly_supported(d)
    except Exception:  # pragma: no cover
        return False


def _smooth_gridfn(u: GridFn, m: Mollifier, w: float) -> GridFn:
    g = u.grid
    ks = g.k_meshes()
    scaled = tuple(w * k for k in ks)
    mhat = m.hat(*scaled)
    return GridFn(g, np.fft.ifftn(mhat * np.fft.fftn(u.values)))
