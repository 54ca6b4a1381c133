"""Two-dimensional conjugation machinery: the escape-function symbol
``lambda(x, xi)``, exponential operators ``e^{+-lambda}(x, D)``, their
Neumann-series inverse, assembly of the conjugated operator, the (M, h)
selection rules, positivity certification of the first-order symbol, and
the 2D solver.

In two dimensions the first-order terms cannot be removed by a
multiplication operator; instead the operator is conjugated by the
quantization of ``e^{lambda}`` where

    lambda(x, xi) = -M arctan(x . xi/|xi|) (1 - chi)(|xi| / h).

This choice gives, exactly and pointwise,

    sum_j xi_j d_{x_j} lambda = -M |xi| <x . xi/|xi|>^{-2} (1-chi)(|xi|/h)
                             <= -M |xi| <x>^{-2} (1-chi)(|xi|/h) <= 0,

which is the sign the positivity argument needs (the arctan primitive of
``<s>^{-2}`` also caps ``|lambda| <= M pi/2``).  ``M`` comes from the
size of the imaginary first-order coefficients over ``2 C_a``; ``h`` is
found by a doubling search until the composition residual
``e^{lambda}(x,D) e^{-lambda}(x,D) - I`` probes as a contraction.

All exponential-symbol applications run through the dense row-sliced
quantizer of :mod:`spectral`, fed from a per-operator row cache (the
(x, xi) lattice values of ``e^{lambda}``) and bounded by the same memory
guard as the generic dense path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conjugate1d import lawson_rk4
from .errors import (
    HypothesisViolationError,
    InfeasibleParametersError,
    NotInvertibleError,
    ParameterError,
    SizeGuardError,
)
from .regularize import RegularizedCoefficient
from .spectral import (
    DENSE_2D_GUARD,
    Grid,
    GridFn,
    SymbolFn,
    dense_quantize_2d,
    kn_quantize,
    l2_inner,
    l2_norm,
    operator_norm_probe,
    random_bandlimited,
    slice_lattice,
    sobolev_norm,
)
from .trajectory import Trajectory

__all__ = [
    "CutoffChi",
    "LambdaSymbol",
    "NeumannInverse",
    "GardingCertificate",
    "Problem2D",
    "ConjugatedBundle",
    "build_lambda",
    "choose_parameters",
    "apply_exp_lambda",
    "invert_exp_lambda",
    "assemble_conjugated",
    "garding_certify",
    "solve2d",
    "imag_coefficient_bound",
]


def _smoothstep(s):
    s = np.asarray(s, dtype=float)
    a = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
    b = np.where(1.0 - s > 0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class CutoffChi:
    """Smooth even cutoff: 1 on ``|t| <= 1/2``, 0 on ``|t| >= 1``,
    monotone between (so ``t chi'(t) <= 0``).

    The three defining properties are verified on a dense sample at
    construction.
    """

    def __call__(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        return _smoothstep(2.0 * (1.0 - t))

    def one_minus(self, t):
        return 1.0 - self(t)

    def __post_init__(self):
        ts = np.linspace(-2.0, 2.0, 4001)
        vals = self(ts)
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
            raise ParameterError("cutoff escaped [0, 1]")
        inner = np.abs(ts) <= 0.5
        outer = np.abs(ts) >= 1.0
        if np.any(np.abs(vals[inner] - 1.0) > 1e-12) or np.any(np.abs(vals[outer]) > 1e-12):
            raise ParameterError("cutoff plateau/support violated")
        dv = np.gradient(vals, ts)
        if np.any(ts * dv > 1e-9):
            raise ParameterError("cutoff is not monotone outward")


@dataclass
class LambdaSymbol:
    """Escape-function symbol with its lattice evaluation cache.

    The cache stores ``exp(lambda)`` on the (x, xi) product lattice as a
    list of x1-slices, built lazily on first use; ``exp(-lambda)`` rows
    are obtained by pointwise reciprocal (lambda is real).
    """

    M: float
    h: float
    chi: CutoffChi
    grid: Grid
    certificates: dict = field(default_factory=dict)
    _rows: list | None = field(default=None, repr=False)

    def lambda_slice(self, j1: int) -> np.ndarray:
        """lambda on the (x2, k1, k2) lattice for fixed x1 = axis[j1]."""
        x, _, X2, K1, K2 = slice_lattice(self.grid)
        return _lambda_values(self.M, self.h, self.chi, x[j1], X2, K1, K2)

    def exp_slice(self, j1: int, sign: int) -> np.ndarray:
        if self._rows is None:
            self._rows = [None] * self.grid.points
        if self._rows[j1] is None:
            self._rows[j1] = np.exp(self.lambda_slice(j1))
        row = self._rows[j1]
        return row if sign > 0 else 1.0 / row

    def dlambda_slice(self, j1: int, axis: int) -> np.ndarray:
        """d lambda / d x_axis on the (x2, k1, k2) lattice at fixed x1."""
        x, _, X2, K1, K2 = slice_lattice(self.grid)
        return _dlambda_values(self.M, self.h, self.chi, x[j1], X2, K1, K2, axis)


def _unit_freq(K1, K2):
    mag = np.hypot(K1, K2)
    safe = np.where(mag > 0, mag, 1.0)
    return K1 / safe, K2 / safe, mag


def _lambda_values(M, h, chi: CutoffChi, x1, X2, K1, K2):
    e1, e2, mag = _unit_freq(K1, K2)
    s = x1 * e1 + X2 * e2
    return -M * np.arctan(s) * chi.one_minus(mag / h)


def _dlambda_values(M, h, chi: CutoffChi, x1, X2, K1, K2, axis: int):
    e1, e2, mag = _unit_freq(K1, K2)
    s = x1 * e1 + X2 * e2
    ej = e1 if axis == 0 else e2
    return -M * ej / (1.0 + s * s) * chi.one_minus(mag / h)


def build_lambda(M: float, h: float, chi: CutoffChi, grid: Grid) -> LambdaSymbol:
    """Construct the symbol and verify its three lattice certificates.

    * support: ``lambda = 0`` wherever ``|xi| <= h/2`` (exact, via the
      cutoff plateau);
    * sign: ``xi . grad_x lambda <= 0`` at every lattice point (the
      analytic expression is evaluated pointwise; a violation reports the
      witness point);
    * bound: ``sup |lambda| <= M pi/2`` up to roundoff.
    """
    if grid.dimension != 2:
        raise ParameterError("the exponential conjugation is a 2D construction")
    if M < 0:
        raise ParameterError("M must be nonnegative")
    if h < 1.0:
        raise ParameterError("h must be >= 1")
    if grid.points > DENSE_2D_GUARD:
        raise SizeGuardError(
            f"lattice {grid.points}^2 exceeds the dense symbol guard {DENSE_2D_GUARD}^2"
        )
    ls = LambdaSymbol(M=float(M), h=float(h), chi=chi, grid=grid)
    x, k, X2, K1, K2 = slice_lattice(grid)
    sup_abs = 0.0
    sign_max = -np.inf
    witness = None
    support_ok = True
    e1, e2, mag = _unit_freq(K1, K2)
    low = mag <= 0.5 * h
    for j1 in range(grid.points):
        lam = _lambda_values(M, h, chi, x[j1], X2, K1, K2)
        sup_abs = max(sup_abs, float(np.max(np.abs(lam))))
        if np.any(lam[np.broadcast_to(low, lam.shape)] != 0.0):
            support_ok = False
        s = x[j1] * e1 + X2 * e2
        flow = -M * mag / (1.0 + s * s) * chi.one_minus(mag / h)
        fmax = float(np.max(flow))
        if fmax > sign_max:
            sign_max = fmax
            idx = np.unravel_index(int(np.argmax(flow)), flow.shape)
            witness = (float(x[j1]), float(x[idx[0]]), float(k[idx[1]]), float(k[idx[2]]))
    bound = M * np.pi / 2.0 + 1e-12
    certs = {
        "support_exact": bool(support_ok),
        "sign_max": sign_max,
        "sign_ok": bool(sign_max <= 1e-12 * max(1.0, M)),
        "sign_witness": witness,
        "sup_abs": sup_abs,
        "bound": bound,
        "bound_ok": bool(sup_abs <= bound),
        "unlocalized_sign_bound": True,  # arctan primitive dominates the
        # localized requirement pointwise; recorded for the certificate log
    }
    if not certs["sign_ok"]:
        raise ParameterError(f"sign condition violated at (x1,x2,k1,k2) = {witness}")
    if not certs["support_exact"] or not certs["bound_ok"]:
        raise ParameterError(f"lambda certificates failed: {certs}")
    ls.certificates = certs
    return ls


def apply_exp_lambda(sign: int, ls: LambdaSymbol, u: GridFn) -> GridFn:
    """Quantize ``e^{sign * lambda}(x, D) u`` (sign in {+1, -1}).

    With ``M = 0`` the symbol is identically 1 and the application is the
    identity, returned without touching the lattice cache.
    """
    if u.grid != ls.grid:
        raise ParameterError("function and symbol live on different grids")
    if ls.M == 0.0:
        return u
    out = dense_quantize_2d(ls.grid, lambda j1: ls.exp_slice(j1, sign), u.values)
    return GridFn(ls.grid, out)


def residual_apply(ls: LambdaSymbol, u: GridFn) -> GridFn:
    """Composition residual ``r u = e^{lambda}(x,D) e^{-lambda}(x,D) u - u``.

    Defined at the operator level; no oscillatory integrals are evaluated.
    """
    return apply_exp_lambda(+1, ls, apply_exp_lambda(-1, ls, u)) - u


def leading_residual_symbol_apply(ls: LambdaSymbol, u: GridFn) -> GridFn:
    """Quantization of the first-order residual expansion term
    ``i sum_j d_xi_j lambda d_x_j lambda`` (for structure probes)."""
    g = ls.grid
    M, h, chi = ls.M, ls.h, ls.chi

    def sym(x1, X2, K1, K2):
        e1, e2, mag = _unit_freq(K1, K2)
        s = x1 * e1 + X2 * e2
        cut = chi.one_minus(mag / h)
        dcut = _one_minus_chi_derivative(chi, mag / h) / h
        base = 1.0 / (1.0 + s * s)
        safe = np.where(mag > 0, mag, 1.0)
        # d_xi_j (x . xi/|xi|) = x_j/|xi| - (x . xi^) xi_j / |xi|^2
        dsd1 = x1 / safe - s * e1 / safe
        dsd2 = X2 / safe - s * e2 / safe
        dl_dxi1 = -M * (base * dsd1 * cut + np.arctan(s) * dcut * e1)
        dl_dxi2 = -M * (base * dsd2 * cut + np.arctan(s) * dcut * e2)
        dl_dx1 = -M * e1 * base * cut
        dl_dx2 = -M * e2 * base * cut
        return 1j * (dl_dxi1 * dl_dx1 + dl_dxi2 * dl_dx2)

    return kn_quantize(SymbolFn.dense(g, sym), u)


def _one_minus_chi_derivative(chi: CutoffChi, t, dh: float = 1e-6):
    # derivative of (1 - chi) at |t|, by central differences on the profile
    t = np.asarray(t, dtype=float)
    return (chi.one_minus(t + dh) - chi.one_minus(t - dh)) / (2.0 * dh)


@dataclass
class NeumannInverse:
    """Truncated Neumann realization of ``(e^{lambda}(x,D))^{-1}``.

    ``apply`` evaluates ``e^{-lambda}(x,D) sum_{j<=J} (-r)^j v`` with the
    series truncated once the increment drops below ``tol`` relative to
    the input; ``probe_norm`` is the contraction estimate of r recorded
    at construction and ``achieved_residual`` the verified composition
    defect ``|e^{lambda} inverse(u) - u| / |u|`` over probe vectors.
    """

    ls: LambdaSymbol
    probe_norm: float
    tol: float = 1e-10
    max_terms: int = 60
    achieved_residual: float = float("nan")
    max_terms_used: int = 0

    def apply(self, v: GridFn) -> GridFn:
        if self.ls.M == 0.0:
            return v
        acc = v
        w = v
        ref = l2_norm(v)
        used = 0
        for j in range(1, self.max_terms + 1):
            w = -1.0 * residual_apply(self.ls, w)
            acc = acc + w
            used = j
            if l2_norm(w) < self.tol * max(ref, 1e-300):
                break
        self.max_terms_used = max(self.max_terms_used, used)
        return apply_exp_lambda(-1, self.ls, acc)


def invert_exp_lambda(
    ls: LambdaSymbol,
    threshold: float = 0.9,
    tol: float = 1e-10,
    probe_trials: int = 4,
    probe_iters: int = 8,
    residual_probes: int = 6,
    rng: np.random.Generator | None = None,
) -> NeumannInverse:
    """Build the Neumann inverse after probing that r is a contraction.

    Refuses (``NotInvertibleError``) when the probed norm of r reaches
    the threshold; on success the achieved composition residual over
    random localized bandlimited probes is recorded.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if ls.M == 0.0:
        inv = NeumannInverse(ls=ls, probe_norm=0.0, tol=tol)
        inv.achieved_residual = 0.0
        return inv
    nrm = operator_norm_probe(
        lambda u: residual_apply(ls, u), probe_trials, ls.grid,
        iters=probe_iters, rng=rng, localized=True, project_band=2.0 / 3.0,
    )
    if nrm >= threshold:
        raise NotInvertibleError(
            f"residual probe {nrm:.3f} >= {threshold}; raise h or lower M"
        )
    inv = NeumannInverse(ls=ls, probe_norm=nrm, tol=tol)
    worst = 0.0
    for _ in range(residual_probes):
        u = random_bandlimited(ls.grid, rng, localized=True)
        back = apply_exp_lambda(+1, ls, inv.apply(u))
        worst = max(worst, l2_norm(back - u) / max(l2_norm(u), 1e-300))
    inv.achieved_residual = worst
    return inv


@dataclass(frozen=True)
class ParameterChoice:
    """The accepted (M, h), the symbol built for them (certificates and
    row cache included) and the search log."""

    M: float
    h: float
    residual_probe: float
    h_bracket: float | None
    bracket_probe: float | None
    log: tuple
    lam: LambdaSymbol


def select_M(coeff_bound: float, ca: float, eps: float, exponent_sum: float) -> float:
    """Strength of the escape function: the measured imaginary-coefficient
    bound over twice the leading-coefficient floor, at the net's rate."""
    if ca <= 0 or eps <= 0 or coeff_bound < 0:
        raise ParameterError("need coeff_bound >= 0, ca > 0, eps > 0")
    return coeff_bound / (2.0 * ca) * eps ** (-exponent_sum)


def choose_parameters(
    coeff_bound: float,
    ca: float,
    eps: float,
    exponent_sum: float,
    grid: Grid,
    chi: CutoffChi,
    threshold: float = 0.9,
    h_start: float = 1.0,
    rng: np.random.Generator | None = None,
) -> ParameterChoice:
    """Select (M, h) for the conjugation.

    ``M = coeff_bound / (2 ca) * eps^{-exponent_sum}``; then ``h`` is the
    smallest member of the doubling ladder ``h_start * 2^j`` whose
    composition residual probes below the threshold.  A ladder step whose
    active region ``|xi| > h/2`` no longer intersects the dealiased band
    raises ``InfeasibleParametersError`` (the escape function would only
    act on unresolvable modes; the experiment must be downsized).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    M = select_M(coeff_bound, ca, eps, exponent_sum)
    log = []
    if M == 0.0:
        h = max(1.0, h_start)
        return ParameterChoice(M=0.0, h=h, residual_probe=0.0,
                               h_bracket=None, bracket_probe=None, log=(("M=0", 1.0, 0.0),),
                               lam=build_lambda(0.0, h, chi, grid))
    resolvable = (2.0 / 3.0) * grid.nyquist
    h = max(1.0, float(h_start))
    prev = None
    while True:
        if 0.5 * h >= resolvable:
            raise InfeasibleParametersError(
                f"h={h} puts the active region above the resolvable band "
                f"(2/3 of the lattice Nyquist, {resolvable:.3f})"
            )
        ls = build_lambda(M, h, chi, grid)
        nrm = operator_norm_probe(lambda u: residual_apply(ls, u), 3, grid,
                                  iters=6, rng=rng, localized=True,
                                  project_band=2.0 / 3.0)
        log.append(("probe", h, nrm))
        if nrm < threshold:
            return ParameterChoice(M=M, h=h, residual_probe=nrm,
                                   h_bracket=prev[0] if prev else None,
                                   bracket_probe=prev[1] if prev else None,
                                   log=tuple(log), lam=ls)
        prev = (h, nrm)
        h *= 2.0


def imag_coefficient_bound(a_coeffs, b_fields, T: float, t_samples: int = 17) -> float:
    """Fitted front constant of the imaginary first-order coefficients:
    ``sup_{t,x} |(Im(a_j b_j))_j|_2 <x>^2`` over sampled times.

    This is the quantity whose ratio to ``2 C_a`` sets M.
    """
    ts = np.linspace(0.0, T, t_samples)
    grid = b_fields[0].grid
    xs = grid.x_meshes()
    w = 1.0 + sum(x**2 for x in xs)
    worst = 0.0
    for t in ts:
        acc = 0.0
        for aj, bj in zip(a_coeffs, b_fields):
            acc = acc + np.abs(np.imag(complex(aj(t)) * bj.values)) ** 2
        worst = max(worst, float(np.max(np.sqrt(acc) * w)))
    return worst


@dataclass(frozen=True)
class Problem2D:
    """Regularized 2D Cauchy problem on the torus ``[-L, L)^2``."""

    grid: Grid
    T: float
    a: RegularizedCoefficient
    a_coeffs: tuple  # (a1, a2) time coefficients
    b_fields: tuple  # (b1, b2) GridFn space samples
    a0: RegularizedCoefficient
    b0: GridFn
    g: GridFn
    f: Callable | None = None
    eps: float = 1.0
    ca: float = 1.0
    ca_tilde: float = 1.0

    def __post_init__(self):
        if self.grid.dimension != 2:
            raise ParameterError("Problem2D requires a 2D grid")
        if len(self.a_coeffs) != 2 or len(self.b_fields) != 2:
            raise ParameterError("need exactly two first-order coefficient pairs")


class ConjugatedBundle:
    """Operator bundle of the conjugated 2D problem.

    The conjugated operator is realized operatively as
    ``full = e^{lambda}(x,D) S (e^{lambda}(x,D))^{-1}`` (spatial part);
    the principal multiplier, the first-order multiplication terms and
    the escape-gradient correction are assembled explicitly, and the
    zero-order lump ``d0`` is their operator difference from ``full``.
    """

    def __init__(self, p: Problem2D, ls: LambdaSymbol, inv: NeumannInverse):
        self.p = p
        self.ls = ls
        self.inv = inv
        g = p.grid
        k1, k2 = g.k_meshes()
        self._k1, self._k2 = k1, k2
        self._ksq = k1**2 + k2**2
        self._dsym = None

    # -- elementary pieces ------------------------------------------------
    def apply_S(self, t: float, u: GridFn) -> GridFn:
        """Spatial part of the original operator S(t)."""
        p = self.p
        uhat = np.fft.fft2(u.values)
        out = float(p.a(t)) * np.fft.ifft2(self._ksq * uhat)
        for aj, bj, kk in zip(p.a_coeffs, p.b_fields, (self._k1, self._k2)):
            out = out + complex(aj(t)) * bj.values * np.fft.ifft2(kk * uhat)
        out = out + complex(p.a0(t)) * p.b0.values * u.values
        return GridFn(p.grid, out)

    def apply_full(self, t: float, u: GridFn) -> GridFn:
        """``e^{lambda} S (e^{lambda})^{-1} u`` (spatial part)."""
        return apply_exp_lambda(+1, self.ls, self.apply_S(t, self.inv.apply(u)))

    def apply_principal(self, t: float, u: GridFn) -> GridFn:
        return GridFn(
            self.p.grid,
            float(self.p.a(t)) * np.fft.ifft2(self._ksq * np.fft.fft2(u.values)),
        )

    def apply_first_order(self, t: float, u: GridFn) -> GridFn:
        p = self.p
        uhat = np.fft.fft2(u.values)
        out = np.zeros(p.grid.shape, dtype=np.complex128)
        for aj, bj, kk in zip(p.a_coeffs, p.b_fields, (self._k1, self._k2)):
            out = out + complex(aj(t)) * bj.values * np.fft.ifft2(kk * uhat)
        return GridFn(p.grid, out)

    def apply_lambda_correction(self, t: float, u: GridFn) -> GridFn:
        """``2 i a(t) sum_j op(d_{x_j} lambda) D_{x_j} u``."""
        if self.ls.M == 0.0:
            return GridFn(self.p.grid, np.zeros(self.p.grid.shape, np.complex128))
        g = self.p.grid
        uhat = np.fft.fft2(u.values)
        out = np.zeros(g.shape, dtype=np.complex128)
        for axis, kk in enumerate((self._k1, self._k2)):
            du = np.fft.ifft2(kk * uhat)
            out = out + dense_quantize_2d(
                g, lambda j1, ax=axis: self.ls.dlambda_slice(j1, ax), du
            )
        return GridFn(g, 2j * float(self.p.a(t)) * out)

    def apply_d0(self, t: float, u: GridFn) -> GridFn:
        """Zero-order lump, defined by operator subtraction."""
        return (
            self.apply_full(t, u)
            - self.apply_principal(t, u)
            - self.apply_first_order(t, u)
            - self.apply_lambda_correction(t, u)
        )


def assemble_conjugated(p: Problem2D, ls: LambdaSymbol, inv: NeumannInverse) -> ConjugatedBundle:
    if ls.grid != p.grid:
        raise ParameterError("symbol and problem live on different grids")
    return ConjugatedBundle(p, ls, inv)


def conjugation_identity_error_2d(bundle: ConjugatedBundle, v: GridFn, t: float) -> float:
    """Relative error of ``S_conj(e^{lambda} v) - e^{lambda}(S v)`` on a
    time-frozen test function (no time-derivative contribution: the
    symbol does not depend on t)."""
    ev = apply_exp_lambda(+1, bundle.ls, v)
    lhs = bundle.apply_full(t, ev)
    rhs = apply_exp_lambda(+1, bundle.ls, bundle.apply_S(t, v))
    return l2_norm(lhs - rhs) / max(l2_norm(v), 1e-300)


@dataclass(frozen=True)
class GardingCertificate:
    """Pointwise positivity certificate of the first-order symbol.

    ``lattice_min`` is the minimum of the certified symbol over the
    sampled (t, x, xi) lattice, ``scale`` its maximum magnitude,
    ``witness`` the minimizing point, and ``quad_bound`` the fitted
    constant C in ``Re <op(p) u, u> >= -C |u|^2`` over random probes.
    """

    M: float
    lattice_min: float
    scale: float
    positive: bool
    witness: tuple | None
    quad_bound: float
    t_samples: int


def garding_certify(
    p: Problem2D,
    ls: LambdaSymbol,
    t_samples: int = 5,
    quad_probes: int = 6,
    rng: np.random.Generator | None = None,
) -> GardingCertificate:
    """Evaluate the sign-corrected first-order symbol

        p(t,x,xi) = sum_j { -Im(a_j(t) b_j(x)) (1-chi)(|xi|/h)
                            chi(<x>/|xi|) - 2 a(t) d_{x_j} lambda } xi_j

    on the (t, x, xi) lattice and certify pointwise nonnegativity; fit
    the quadratic-form lower bound over random probes as the sharp lower
    order constant surrogate.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    g = p.grid
    if ls.grid != g:
        raise ParameterError("symbol and problem live on different grids")
    x, k, X2, K1, K2 = slice_lattice(g)
    e1, e2, mag = _unit_freq(K1, K2)
    cut_hi = ls.chi.one_minus(mag / ls.h)
    safe = np.where(mag > 0, mag, 1e-300)

    def symbol_rows(t: float):
        """The symbol at time t, as its x1 slice ``j1 -> (x2, k1, k2)``."""
        a_t = float(p.a(t))
        im1 = np.imag(complex(p.a_coeffs[0](t)) * p.b_fields[0].values)
        im2 = np.imag(complex(p.a_coeffs[1](t)) * p.b_fields[1].values)

        def row(j1: int) -> np.ndarray:
            s = x[j1] * e1 + X2 * e2
            base = 1.0 / (1.0 + s * s)
            cut_x = ls.chi(np.sqrt(1.0 + x[j1] ** 2 + X2**2) / safe)
            return (
                -(im1[j1][:, None, None] * K1 + im2[j1][:, None, None] * K2)
                * cut_hi
                * cut_x
                + 2.0 * a_t * ls.M * mag * base * cut_hi
            )

        return row

    ts = np.linspace(0.0, p.T, t_samples)
    lattice_min = np.inf
    scale = 0.0
    witness = None
    for t in ts:
        row = symbol_rows(t)
        for j1 in range(g.points):
            sym = row(j1)
            mn = float(np.min(sym))
            scale = max(scale, float(np.max(np.abs(sym))))
            if mn < lattice_min:
                lattice_min = mn
                idx = np.unravel_index(int(np.argmin(sym)), sym.shape)
                witness = (float(t), float(x[j1]), float(x[idx[0]]),
                           float(k[idx[1]]), float(k[idx[2]]))
    # quadratic-form surrogate at the worst sampled time
    row = symbol_rows(float(ts[t_samples // 2]))
    worst_quad = 0.0
    for _ in range(quad_probes):
        u = random_bandlimited(g, rng, localized=True)
        val = np.real(l2_inner(GridFn(g, dense_quantize_2d(g, row, u.values)), u))
        worst_quad = max(worst_quad, max(0.0, -val) / max(l2_norm(u) ** 2, 1e-300))
    tol = 1e-12 * max(scale, 1.0)
    return GardingCertificate(
        M=ls.M, lattice_min=lattice_min, scale=scale,
        positive=bool(lattice_min >= -tol), witness=witness,
        quad_bound=worst_quad, t_samples=t_samples,
    )


def solve2d(
    p: Problem2D,
    ls: LambdaSymbol,
    inv: NeumannInverse,
    dt: float,
    m_set: Sequence[int] = (0,),
    store_stride: int = 0,
) -> Trajectory:
    """Integrating-factor (Lawson) RK4 on the conjugated system.

    The stiff multiplier ``a(t) |k|^2`` is integrated exactly; the
    remaining conjugated terms are applied per stage through the operator
    bundle; stored states are mapped back through the Neumann inverse.
    The returned trajectory carries the pulled-back states and their
    norms at the stored times, and the conjugated norm track at every
    step in the metadata.
    """
    bundle = assemble_conjugated(p, ls, inv)
    g = p.grid
    ksq = bundle._ksq

    def nonstiff(t: float, vals: np.ndarray) -> np.ndarray:
        u = GridFn(g, vals)
        rest = bundle.apply_full(t, u) - bundle.apply_principal(t, u)
        out = -1j * rest.values
        if p.f is not None:
            fv = p.f(t)
            if fv is not None:
                out = out + 1j * apply_exp_lambda(+1, ls, fv).values
        return out

    v0 = apply_exp_lambda(+1, ls, p.g)
    tr_v = lawson_rk4(g, p.a, ksq, nonstiff, v0, p.T, dt, m_set, store_stride,
                      meta={"eps": p.eps, "kind": "conjugated-2d", "M": ls.M, "h": ls.h})
    u_states = tuple(inv.apply(s) for s in tr_v.states)
    u_norms = {m: np.array([sobolev_norm(s, m) for s in u_states]) for m in m_set}
    return Trajectory(
        times=tr_v.state_times,
        norms=u_norms,
        state_times=tr_v.state_times,
        states=u_states,
        meta={"dt": dt, "eps": p.eps, "kind": "original-2d", "M": ls.M, "h": ls.h,
              "conjugated": tr_v},
    )
