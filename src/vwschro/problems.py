"""Ready-made problem families: the singular-coefficient showcases, the
smooth classical controls, the free particle, and the consistency cases.

Every builder takes the regularization parameter and returns a fully
regularized problem (plus solver helpers), so net-level experiments can
treat a builder as the map ``eps -> solvable problem``.

Coupling weights on the delta coefficients default to values for which
the phase modulation generated by the conjugation stays resolved on the
default grids; they can be raised at the cost of larger grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conjugate1d import Problem1D, solve_mol
from .dist import ClassicalFn, Delta, DistributionSpec, FiniteSum
from .psdo import (
    CutoffChi,
    Problem2D,
    choose_parameters,
    imag_coefficient_bound,
    invert_exp_lambda,
    solve2d,
)
from .regularize import (
    Mollifier,
    RegularizedCoefficient,
    Scale,
    build_mollifier,
    extend_regularize_a,
    omega,
    regularize_space,
    regularize_time_dist,
)
from .spectral import Grid, GridFn, gridfn_from_callable
from .trajectory import Trajectory

__all__ = [
    "zero_time_coeff",
    "const_time_coeff",
    "smooth_time_coeff",
    "free_particle_1d",
    "free_particle_2d",
    "delta_showcase_1d",
    "smooth_classical_1d",
    "ConsistencyCase",
    "consistency_case_1d",
    "showcase_2d",
    "Showcase2D",
    "PROBLEM_KINDS",
]


def zero_time_coeff(eps: float = 1.0) -> RegularizedCoefficient:
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return RegularizedCoefficient(kind="time", eps=eps, fn=zero, dfn=zero)


def const_time_coeff(value: complex, eps: float = 1.0) -> RegularizedCoefficient:
    fn = lambda t: np.full_like(np.asarray(t, dtype=float), 1.0) * value
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return RegularizedCoefficient(kind="time", eps=eps, fn=fn, dfn=zero)


def smooth_time_coeff(fn: Callable, dfn: Callable, eps: float = 1.0) -> RegularizedCoefficient:
    return RegularizedCoefficient(kind="time", eps=eps, fn=fn, dfn=dfn)


def _const_a(eps: float, T: float, value: float = 1.0,
             bump: Mollifier | None = None) -> RegularizedCoefficient:
    bump = bump or build_mollifier("bump", radius=1.0)
    return extend_regularize_a(
        lambda t: np.full_like(np.asarray(t, dtype=float), value),
        bump, eps, T=T, ca=value, ca_tilde=value,
    )


def free_particle_1d(grid: Grid, T: float = 1.0, k_mode: int = 16,
                     eps: float = 0.1) -> Problem1D:
    """Plane-wave datum, unit leading coefficient, no lower-order terms.

    The split-step Fourier step is exact on this problem: the solution is
    the phase ``exp(i k x - i k^2 t)``.
    """
    k0 = k_mode * np.pi / grid.half_length
    zeros = GridFn(grid, np.zeros(grid.shape))
    return Problem1D(
        grid=grid, T=T, a=_const_a(eps, T), a1=zero_time_coeff(eps),
        a0=zero_time_coeff(eps), b1=zeros, b0=zeros,
        g=gridfn_from_callable(grid, lambda x: np.exp(1j * k0 * x)),
        eps=eps, ca=1.0, ca_tilde=1.0,
    )


def free_particle_2d(grid: Grid, T: float = 1.0, modes: tuple = (3, 2),
                     eps: float = 0.1) -> Problem2D:
    k1 = modes[0] * np.pi / grid.half_length
    k2 = modes[1] * np.pi / grid.half_length
    zeros = GridFn(grid, np.zeros(grid.shape))
    return Problem2D(
        grid=grid, T=T, a=_const_a(eps, T),
        a_coeffs=(zero_time_coeff(eps), zero_time_coeff(eps)),
        b_fields=(zeros, zeros), a0=zero_time_coeff(eps), b0=zeros,
        g=gridfn_from_callable(grid, lambda x, y: np.exp(1j * (k1 * x + k2 * y))),
        eps=eps, ca=1.0, ca_tilde=1.0,
    )


def delta_showcase_1d(
    eps: float,
    grid: Grid | None = None,
    T: float = 0.5,
    coupling1: float = 0.15,
    coupling0: float = 0.1,
    coeff_scale: Scale | None = None,
    data_scale: Scale | None = None,
    datum: str = "delta",
) -> Problem1D:
    """The singular 1D showcase: point-mass coefficients in both variables
    and (by default) a point-mass datum.

    ``a == 1``; ``a1`` is a point mass at T/2 mollified in time; ``b1``
    and ``b0`` are weighted point masses at the origin mollified in
    space.  The lower-order coefficients are mollified at the slow
    ``coeff_scale`` (default ``eps^{1/4}``) while the datum uses the
    standard scale: slowing down only the lower-order regularization is
    what keeps the solution family in its polynomial-growth regime while
    the data singularity supplies the growth to fit.  With all scales
    standard the family is still solvable but its norms enter their
    exponential regime within desk-scale nets.

    The coupling weights keep the conjugation phase resolved on the
    default grid (raise them together with the grid size).
    """
    grid = grid or Grid(1, 4096, 20.0)
    coeff_scale = coeff_scale or Scale("power", r=0.25)
    data_scale = data_scale or Scale("standard")
    bump = build_mollifier("bump", radius=1.0)
    band = build_mollifier("bandlimited", r1=1.0, r2=2.0)
    a = _const_a(eps, T, 1.0, bump)
    w_c = omega(coeff_scale, eps)
    a1 = regularize_time_dist(Delta(T / 2.0), bump, w_c, T=T)
    b1 = regularize_space(
        FiniteSum(terms=((coupling1, Delta(0.0)),)), band, coeff_scale, eps, grid
    ).values
    b0 = regularize_space(
        FiniteSum(terms=((coupling0, Delta(0.0)),)), band, coeff_scale, eps, grid
    ).values
    x = grid.axis()
    if datum == "gaussian":
        g = GridFn(grid, np.exp(-(x**2)))
    elif datum == "delta":
        g = regularize_space(Delta(0.0), band, data_scale, eps, grid).values
    else:
        raise ValueError(f"unknown datum {datum!r}")
    return Problem1D(grid=grid, T=T, a=a, a1=a1, a0=a1, b1=b1, b0=b0, g=g,
                     eps=eps, ca=1.0, ca_tilde=1.0)


def smooth_classical_1d(
    eps: float,
    grid: Grid | None = None,
    T: float = 0.5,
    g_pert: Callable | None = None,
    b1_pert: GridFn | None = None,
    datum: str = "gaussian",
) -> Problem1D:
    """Smooth control problem: regular coefficients, no singularity.

    Norms of its solutions are essentially independent of eps.  Optional
    additive perturbations of the datum or of ``b1`` support the paired
    negligibility experiments; ``datum="delta"`` swaps in a mollified
    point mass (the data-only singular family).
    """
    grid = grid or Grid(1, 1024, 20.0)
    bump = build_mollifier("bump", radius=1.0)
    a = extend_regularize_a(
        lambda t: 1.0 + 0.2 * np.sin(2.0 * np.asarray(t, dtype=float)),
        bump, eps, T=T, ca=0.75, ca_tilde=1.25,
    )
    a1 = regularize_time_dist(
        ClassicalFn(fn=lambda t: 0.4 * np.cos(np.asarray(t, dtype=float)),
                    support_radius=T + 3.0),
        bump, eps, T=T,
    )
    a0 = regularize_time_dist(
        ClassicalFn(fn=lambda t: 0.3 * np.ones_like(np.asarray(t, dtype=float)),
                    support_radius=T + 3.0),
        bump, eps, T=T,
    )
    x = grid.axis()
    b1v = _periodized_lorentzian(grid, 0.5)
    if b1_pert is not None:
        b1v = b1v + b1_pert
    b0v = GridFn(grid, 0.4 * np.cos(np.pi * x / grid.half_length))
    if datum == "gaussian":
        gv = np.exp(-(x**2)) * (1.0 + 0.3j)
    elif datum == "delta":
        band = build_mollifier("bandlimited", r1=1.0, r2=2.0)
        gv = regularize_space(Delta(0.0), band, Scale("standard"), eps, grid).values.values
    else:
        raise ValueError(f"unknown datum {datum!r}")
    if g_pert is not None:
        gv = gv + g_pert(x)
    return Problem1D(grid=grid, T=T, a=a, a1=a1, a0=a0, b1=b1v, b0=b0v,
                     g=GridFn(grid, gv), eps=eps, ca=0.75, ca_tilde=1.25)


def _periodized_lorentzian(grid: Grid, weight: float = 1.0, width: float = 1.0) -> GridFn:
    """Smooth periodic representative of ``weight / (1 + (x/width)^2)``:
    the periodization over neighbor cells, which keeps the torus samples
    seam-smooth while matching the quadratic decay on the fundamental
    domain."""
    x = grid.axis()
    L = grid.half_length
    vals = np.zeros_like(x)
    for m in range(-4, 5):
        vals = vals + weight / (1.0 + ((x + 2.0 * L * m) / width) ** 2)
    return GridFn(grid, vals)


@dataclass(frozen=True)
class ConsistencyCase:
    """Paired exact/regularized problem family for the classical-limit
    experiment.  ``reference()`` solves with the exact coefficients;
    ``regularized(eps)`` with mollified coefficients and data;
    ``coefficient_gaps(eps)`` reports the sup-norm coefficient
    differences that drive the error bound."""

    reference: Callable
    regularized: Callable
    coefficient_gaps: Callable
    label: str


def consistency_case_1d(
    kind: str = "smooth",
    grid: Grid | None = None,
    T: float = 0.4,
    dt: float = 1e-3,
    m_norms: tuple = (0, 1),
    scale: Scale | None = None,
) -> ConsistencyCase:
    """Build a 1D consistency case.

    ``smooth``: smooth non-bandlimited real coefficients, vanishing
    moment space mollifier.  ``bandlimited``: coefficients whose discrete
    spectrum sits inside the mollifier plateau for every net point, so
    regularization is the identity.  ``bump``: same smooth coefficients
    but an off-center bump mollifier (nonvanishing first moment), the
    first-order control.
    """
    grid = grid or Grid(1, 1024, 20.0)
    scale = scale or Scale("standard")
    if kind in ("smooth", "bump"):
        b1 = _periodized_lorentzian(grid, 0.4)
        b0 = _periodized_lorentzian(grid, 0.3, width=2.0)
    elif kind == "bandlimited":
        x = grid.axis()
        kL = np.pi / grid.half_length
        b1 = GridFn(grid, 0.4 * np.cos(3 * kL * x))
        b0 = GridFn(grid, 0.3 * np.sin(2 * kL * x))
    else:
        raise ValueError(f"unknown consistency kind {kind!r}")
    if kind == "bump":
        moll = build_mollifier("bump", radius=1.0, center=0.35)
    else:
        moll = build_mollifier("bandlimited", r1=1.0, r2=2.0)
    x = grid.axis()
    if kind == "bandlimited":
        # exact reproduction also needs a datum whose spectrum sits inside
        # the plateau at every net point
        kL = np.pi / grid.half_length
        g_exact = GridFn(grid, (1.0 + 0.2j) * (np.cos(3 * kL * x)
                                               + 0.4 * np.sin(5 * kL * x)))
    else:
        g_exact = GridFn(grid, np.exp(-(x**2) / 2.0) * (1.0 + 0.2j))
    # time coefficients are constant so their (bump-kernel) regularization
    # is exact and the experiment isolates the space-mollifier mechanism;
    # the smoothness contrast lives in the non-bandlimited b fields
    a_fn = lambda t: 1.05 + 0.0 * np.asarray(t, dtype=float)
    da_fn = lambda t: 0.0 * np.asarray(t, dtype=float)
    a1_val = 0.35
    a0_val = 0.25

    def _exact_problem() -> Problem1D:
        a = smooth_time_coeff(a_fn, da_fn)
        return Problem1D(grid=grid, T=T, a=a, a1=const_time_coeff(a1_val),
                         a0=const_time_coeff(a0_val), b1=b1, b0=b0, g=g_exact,
                         eps=1.0, ca=0.85, ca_tilde=1.15)

    def reference() -> Trajectory:
        return solve_mol(_exact_problem(), dt=dt, m_set=m_norms)

    def _smooth_field(u: GridFn, w: float) -> GridFn:
        ks = grid.k_meshes()
        mhat = moll.hat(*(w * k for k in ks))
        return GridFn(grid, np.fft.ifftn(mhat * np.fft.fftn(u.values)))

    bump_t = build_mollifier("bump", radius=1.0)

    def regularized(eps: float) -> Trajectory:
        w = omega(scale, eps)
        a = extend_regularize_a(a_fn, bump_t, eps, T=T, ca=0.85, ca_tilde=1.15)
        a1 = regularize_time_dist(
            ClassicalFn(fn=lambda t: a1_val * np.ones_like(np.asarray(t, float)),
                        support_radius=T + 3.0), bump_t, eps, T=T)
        a0 = regularize_time_dist(
            ClassicalFn(fn=lambda t: a0_val * np.ones_like(np.asarray(t, float)),
                        support_radius=T + 3.0), bump_t, eps, T=T)
        prob = Problem1D(grid=grid, T=T, a=a, a1=a1, a0=a0,
                         b1=_smooth_field(b1, w), b0=_smooth_field(b0, w),
                         g=_smooth_field(g_exact, w), eps=eps,
                         ca=0.85, ca_tilde=1.15)
        return solve_mol(prob, dt=dt, m_set=m_norms)

    def coefficient_gaps(eps: float) -> dict:
        w = omega(scale, eps)
        gaps = {
            "a_gap": _sup_gap_time(a_fn, bump_t, eps, T),
            "b1_gap": float(np.max(np.abs(_smooth_field(b1, w).values - b1.values))),
            "b0_gap": float(np.max(np.abs(_smooth_field(b0, w).values - b0.values))),
            "g_gap": float(np.max(np.abs(_smooth_field(g_exact, w).values - g_exact.values))),
        }
        return gaps

    return ConsistencyCase(reference=reference, regularized=regularized,
                           coefficient_gaps=coefficient_gaps, label=kind)


def _sup_gap_time(a_fn, bump, eps, T, n=65):
    reg = extend_regularize_a(a_fn, bump, eps, T=T)
    ts = np.linspace(0.0, T, n)
    return float(np.max(np.abs(np.asarray(reg(ts)) - np.asarray(a_fn(ts)))))


def saturating_problem_2d(grid: Grid, kappa: float = 0.5, T: float = 0.2) -> Problem2D:
    """Synthetic worst case for the positivity certificate: purely
    imaginary first-order coefficients exactly matching the inverse
    square spatial weight, so the selection formula's M makes the
    certified symbol vanish on diagonal rays (and fail below it)."""
    x1, x2 = grid.x_meshes()
    w = kappa / (1.0 + x1**2 + x2**2)
    b = GridFn(grid, 1j * w)
    zeros = GridFn(grid, np.zeros(grid.shape))
    return Problem2D(
        grid=grid, T=T, a=_const_a(0.05, T, 1.0),
        a_coeffs=(const_time_coeff(1.0), const_time_coeff(1.0)),
        b_fields=(b, b), a0=zero_time_coeff(), b0=zeros,
        g=gridfn_from_callable(grid, lambda u, v: np.exp(-(u**2) - v**2)),
        eps=1.0, ca=1.0, ca_tilde=1.0,
    )


@dataclass
class Showcase2D:
    """Bundle of a 2D showcase problem with its conjugation objects."""

    problem: Problem2D
    lam: object
    inverse: object
    M: float
    h: float

    def solve(self, dt: float, m_set=(0,), store_stride: int = 0) -> Trajectory:
        return solve2d(self.problem, self.lam, self.inverse, dt, m_set,
                       store_stride=store_stride)


def showcase_2d(
    eps: float,
    grid: Grid | None = None,
    T: float = 0.2,
    re_coupling: float = 0.2,
    im_coupling: float = 0.08,
    scale: Scale | None = None,
    exponent_sum: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Showcase2D:
    """2D showcase with complex first-order coefficients.

    ``b1``/``b2`` are mollified point masses carrying both real and
    imaginary weight (square-root scale keeps the mollification band on
    the lattice); M comes from the measured imaginary-coefficient bound
    through the selection formula, h from the doubling search.
    """
    grid = grid or Grid(2, 64, 10.0)
    scale = scale or Scale("power", r=0.5)
    bump = build_mollifier("bump", radius=1.0)
    band2 = build_mollifier("bandlimited", dimension=2, r1=1.0, r2=2.0)
    a = _const_a(eps, T, 1.0, bump)
    amp1 = regularize_time_dist(
        ClassicalFn(fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                    support_radius=T + 3.0), bump, eps, T=T)
    b_spec = FiniteSum(terms=((re_coupling + 1j * im_coupling, Delta((0.0, 0.0))),))
    b1 = regularize_space(b_spec, band2, scale, eps, grid).values
    b2_spec = FiniteSum(terms=((re_coupling - 1j * im_coupling, Delta((0.5, -0.5))),))
    b2 = regularize_space(b2_spec, band2, scale, eps, grid).values
    b0_spec = FiniteSum(terms=((0.1, Delta((0.0, 0.0))),))
    b0 = regularize_space(b0_spec, band2, scale, eps, grid).values
    gdat = gridfn_from_callable(grid, lambda x, y: np.exp(-(x**2) - y**2))
    prob = Problem2D(grid=grid, T=T, a=a, a_coeffs=(amp1, amp1),
                     b_fields=(b1, b2), a0=amp1, b0=b0, g=gdat, eps=eps,
                     ca=1.0, ca_tilde=1.0)
    chi = CutoffChi()
    cbound = imag_coefficient_bound(prob.a_coeffs, prob.b_fields, T)
    choice = choose_parameters(cbound, prob.ca, eps, exponent_sum, grid, chi, rng=rng)
    inv = invert_exp_lambda(choice.lam, rng=rng)
    return Showcase2D(problem=prob, lam=choice.lam, inverse=inv, M=choice.M, h=choice.h)


#: the problem kinds: ``kind -> (dimension, build)``.  ``build(eps, grid,
#: T, scale)`` is the per-point problem the net analyses solve, ``None``
#: where no net solve is wired.  The builders look their problem function
#: up in this module when called, so a patched module attribute is seen.
PROBLEM_KINDS = {
    "free_particle_1d": (1, lambda eps, grid, T, scale: free_particle_1d(
        grid, T=T, eps=eps)),
    "free_particle_2d": (2, None),
    "delta_showcase_1d": (1, lambda eps, grid, T, scale: delta_showcase_1d(
        eps, grid=grid, T=T, data_scale=scale)),
    "smooth_classical_1d": (1, lambda eps, grid, T, scale: smooth_classical_1d(
        eps, grid=grid, T=T)),
    "showcase_2d": (2, None),
}
