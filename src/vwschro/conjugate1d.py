"""One-dimensional pipeline: multiplicative conjugation that removes the
first-order term, split-step spectral integration of the conjugated
problem, the way back, and the per-step energy inequality monitor.

The regularized operator in 1D is

    S = D_t + a(t) D_x^2 + a1(t) b1(x) D_x + a0(t) b0(x),   D = -i d/dx.

With ``B1(x) = int_0^x b1`` and ``F(t,x) = i a1(t) B1(x) / (2 a(t))``,
conjugating by the multiplication operator ``e^F`` cancels the
first-order term and leaves

    e^F S e^{-F} = D_t + a(t) D_x^2 + A0(t, x),

where A0 collects four zero-order contributions (assembled in
:func:`build_conjugation`).  The conjugated problem is integrated by
Strang splitting: the principal part is an exact Fourier multiplier, the
zero-order part an exact pointwise phase.

Every solver of the package, the Lawson routes in 1D and 2D included,
advances through the one time loop :func:`_march`: a route supplies its
step, the loop owns the step count, the norm track, the state storage
and the blow-up check, and step observers see every state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import HypothesisViolationError, NumericalBlowupError, ParameterError
from .regularize import RegularizedCoefficient
from .spectral import Grid, GridFn, fft_derivative, l2_norm, sobolev_norm, sobolev_norms
from .trajectory import Trajectory

__all__ = [
    "Problem1D",
    "ConjugationData",
    "antiderivative_B1",
    "build_conjugation",
    "solve_conjugated",
    "solve_original",
    "solve_mol",
    "energy_monitor",
    "EnergyReport",
    "conjugation_identity_error",
]


#: times on [0, T] at which a problem's coefficients are sampled for its
#: hypothesis checks and the conjugation bounds
T_SAMPLES = 65


@dataclass(frozen=True)
class Problem1D:
    """Regularized 1D Cauchy problem on the torus ``[-L, L)``.

    ``a`` is the positive leading coefficient (time callable with two
    sided bounds), ``a1``/``a0`` time coefficients with exact
    derivatives, ``b1``/``b0`` space samples, ``f`` an optional source
    (callable ``t -> GridFn``) and ``g`` the initial datum.
    """

    grid: Grid
    T: float
    a: RegularizedCoefficient
    a1: RegularizedCoefficient
    a0: RegularizedCoefficient
    b1: GridFn
    b0: GridFn
    g: GridFn
    f: Callable | None = None
    eps: float = 1.0
    ca: float = 1.0
    ca_tilde: float = 1.0

    def __post_init__(self):
        if self.grid.dimension != 1:
            raise ParameterError("Problem1D requires a 1D grid")
        ts = np.linspace(0.0, self.T, T_SAMPLES)
        av = np.asarray(self.a(ts), dtype=float)
        if np.any(av < 0.5 * self.ca - 1e-12) or np.any(av > self.ca_tilde + 1e-9):
            raise HypothesisViolationError(
                "leading coefficient escaped [ca/2, ca_tilde] on [0, T]"
            )


@dataclass(frozen=True)
class ConjugationData:
    """Transform bundle (B1, F, A0) of the 1D conjugation.

    ``F(t)`` and ``A0(t)`` are grid functions per time; ``dtF(t)`` is the
    exact time derivative of F (needed to verify the operator identity on
    static test functions).  ``expF_bound`` records the observed sup of
    ``|e^F|`` over sampled times, ``A0_max`` the observed sup of ``|A0|``.
    """

    B1: GridFn
    F: Callable
    dtF: Callable
    A0: Callable
    expF_bound: float
    A0_max: float
    meta: dict = field(default_factory=dict)

    def expF(self, t: float) -> GridFn:
        f = self.F(t)
        return f.with_values(np.exp(f.values))

    def expmF(self, t: float) -> GridFn:
        f = self.F(t)
        return f.with_values(np.exp(-f.values))


def antiderivative_B1(b1: GridFn, refine: int = 32) -> GridFn:
    """``B1(x) = int_0^x b1(y) dy`` on the line segment ``[-L, L)``.

    Integration uses cumulative Simpson on a spectrally refined copy of
    the samples, anchored so that ``B1(0) = 0`` exactly.  The result is a
    line-segment antiderivative: when ``b1`` carries mass the two seam
    values differ by that mass, which is the honest non-periodic object
    the transform needs (the seam gap is recorded by the caller).
    """
    g = b1.grid
    if g.dimension != 1:
        raise ParameterError("B1 is defined for 1D grids")
    if refine < 1:
        raise ParameterError("refine must be >= 1")
    n = g.points
    coeffs = np.fft.fft(b1.values)
    nf = n * refine
    padded = np.zeros(nf, dtype=np.complex128)
    half = n // 2
    padded[:half] = coeffs[:half]
    padded[-half:] = coeffs[-half:]
    # split the Nyquist row symmetrically so the refined samples stay real
    # for real inputs
    padded[half] *= 0.5
    padded[-half] *= 0.5
    fine = np.fft.ifft(padded) * refine
    dx = g.spacing / refine
    cum = cumulative_simpson(fine.real, dx=dx, initial=0.0).astype(np.complex128)
    if np.max(np.abs(fine.imag)) > 0:
        cum = cum + 1j * cumulative_simpson(fine.imag, dx=dx, initial=0.0)
    anchor = nf // 2  # fine-grid index of x = 0
    cum = cum - cum[anchor]
    return GridFn(g, cum[::refine])


def build_conjugation(p: Problem1D, t_samples: int = T_SAMPLES) -> ConjugationData:
    """Assemble B1, F and the conjugated zero-order coefficient A0.

    A0 is evaluated exactly per the closed formula

        A0 = a0 b0 + B1 (a1 a' - a1' a) / (2 a^2)
             + (i/2) a1 (d/dx b1) - (a1 b1)^2 / (4 a),

    with the space derivative taken spectrally and the time derivatives
    taken from the exact convolution derivatives of the coefficients.
    """
    ts = np.linspace(0.0, p.T, t_samples)
    a_min = float(np.min(np.asarray(p.a(ts), dtype=float)))
    if a_min < 0.5 * p.ca - 1e-12:
        raise HypothesisViolationError("a(t) fell below ca/2; conjugation refused")
    B1 = antiderivative_B1(p.b1)
    b1x = fft_derivative(p.b1, 1).values * 1j  # plain derivative b1'

    def F(t: float) -> GridFn:
        return GridFn(p.grid, 1j * complex(p.a1(t)) * B1.values / (2.0 * float(p.a(t))))

    def dtF(t: float) -> GridFn:
        a = float(p.a(t))
        da = float(p.a.derivative(t))
        a1 = complex(p.a1(t))
        da1 = complex(p.a1.derivative(t))
        return GridFn(p.grid, 1j * B1.values * (da1 * a - a1 * da) / (2.0 * a * a))

    def A0(t: float) -> GridFn:
        a = float(p.a(t))
        da = float(p.a.derivative(t))
        a1 = complex(p.a1(t))
        da1 = complex(p.a1.derivative(t))
        a0 = complex(p.a0(t))
        vals = (
            a0 * p.b0.values
            + B1.values * (a1 * da - da1 * a) / (2.0 * a * a)
            + 0.5j * a1 * b1x
            - (a1 * p.b1.values) ** 2 / (4.0 * a)
        )
        return GridFn(p.grid, vals)

    expF_bound = 0.0
    A0_max = 0.0
    for t in ts:
        expF_bound = max(expF_bound, float(np.max(np.abs(np.exp(F(t).values)))))
        A0_max = max(A0_max, float(np.max(np.abs(A0(t).values))))
    return ConjugationData(
        B1=B1, F=F, dtF=dtF, A0=A0, expF_bound=expF_bound, A0_max=A0_max,
        meta={"B1_sup": float(np.max(np.abs(B1.values))),
              "B1_seam_gap": float(np.abs(B1.values[0] - B1.values[-1]))},
    )


def apply_S_spatial(p: Problem1D, u: GridFn, t: float) -> GridFn:
    """Spatial part of the original operator: a D^2 u + a1 b1 D u + a0 b0 u."""
    k = p.grid.freq_axis()
    uhat = np.fft.fft(u.values)
    d2 = np.fft.ifft(k**2 * uhat)
    d1 = np.fft.ifft(k * uhat)
    vals = (
        float(p.a(t)) * d2
        + complex(p.a1(t)) * p.b1.values * d1
        + complex(p.a0(t)) * p.b0.values * u.values
    )
    return GridFn(p.grid, vals)


def apply_S_conjugated_spatial(
    p: Problem1D, cd: ConjugationData, u: GridFn, t: float
) -> GridFn:
    """Spatial part of the conjugated operator: a D^2 u + A0 u."""
    k = p.grid.freq_axis()
    d2 = np.fft.ifft(k**2 * np.fft.fft(u.values))
    return GridFn(p.grid, float(p.a(t)) * d2 + cd.A0(t).values * u.values)


def conjugation_identity_error(
    p: Problem1D, cd: ConjugationData, v: GridFn, t: float
) -> float:
    """Relative error of the conjugation identity on a static test function.

    Applies both operator orderings to a time-frozen v; the time-derivative
    contribution on the conjugated side is the exact multiplier
    ``-i (d/dt F)`` acting on ``e^F v``.
    """
    eF = cd.expF(t)
    lhs = apply_S_conjugated_spatial(p, cd, eF * v, t) + GridFn(
        p.grid, -1j * cd.dtF(t).values * eF.values * v.values
    )
    rhs = eF * apply_S_spatial(p, v, t)
    return l2_norm(lhs - rhs) / max(l2_norm(v), 1e-300)


def _simpson_int_a(a_fn, t0: float, dt: float) -> float:
    """int_{t0}^{t0+dt} a, Simpson on two panels (O(dt^5) per step)."""
    p0 = float(a_fn(t0))
    p1 = float(a_fn(t0 + 0.25 * dt))
    p2 = float(a_fn(t0 + 0.5 * dt))
    p3 = float(a_fn(t0 + 0.75 * dt))
    p4 = float(a_fn(t0 + dt))
    return dt / 12.0 * (p0 + 4.0 * p1 + 2.0 * p2 + 4.0 * p3 + p4)


def _resolve_steps(T: float, dt: float) -> int:
    if not (0 < dt <= T):
        raise ParameterError("need 0 < dt <= T")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(T, 1.0):
        n = int(np.ceil(T / dt - 1e-12))
    return n


def _step_times(T: float, dt: float) -> tuple[list, list]:
    """The times ``t_0 = 0, ..., t_n`` of the time loop and the step
    lengths ``h_j``, accumulated as ``t_{j+1} = t_j + h_j`` with the last
    step shortened to land on ``T``.  The loop and the coefficient tables
    both read these floats."""
    times, hs = [0.0], []
    for _ in range(_resolve_steps(T, dt)):
        hs.append(min(dt, T - times[-1]))
        times.append(times[-1] + hs[-1])
    return times, hs


def _coefficient_times(T: float, dt: float, half_steps: bool) -> np.ndarray:
    """Every time at which a solve reads its time coefficients, sorted.

    A Strang step reads ``t_j + c h_j`` for ``c`` in ``{0, 1/4, 1/2, 3/4,
    1}``; a Lawson step also runs Simpson on the half step, which reads
    ``t_j + c (h_j / 2)`` (``half_steps``).  Each time is computed by the
    same float operations as in the step, so a table lookup hits exactly.
    The conjugation's :data:`T_SAMPLES` samples are included.
    """
    times, hs = _step_times(T, dt)
    t, h = np.asarray(times[:-1]), np.asarray(hs)
    reads = [np.linspace(0.0, T, T_SAMPLES), np.asarray(times)]
    for step in ((h, 0.5 * h) if half_steps else (h,)):
        reads += [t + c * step for c in (0.25, 0.5, 0.75, 1.0)]
    return np.unique(np.concatenate(reads))


def _tabulated(p: Problem1D, dt: float, half_steps: bool) -> Problem1D:
    """``p`` with ``a``, ``a1`` and ``a0`` read from tables at every time
    a solve with step ``dt`` asks for; a fresh copy per solve, so
    concurrent solves share no table."""
    ts = _coefficient_times(p.T, dt, half_steps)
    return replace(p, a=p.a.tabulated(ts), a1=p.a1.tabulated(ts), a0=p.a0.tabulated(ts))


class _NormTrack:
    """Step observer recording the ``H^m`` norms of every observed state
    (one FFT per state for all m, see :func:`sobolev_norms`)."""

    def __init__(self, m_set: Sequence[int]):
        self.rows = {m: [] for m in m_set}

    def __call__(self, t: float, u: GridFn):
        for m, value in sobolev_norms(u, self.rows).items():
            self.rows[m].append(value)

    def norms(self) -> dict:
        return {m: np.asarray(vals) for m, vals in self.rows.items()}


def _march(grid: Grid, u0: GridFn, T: float, dt: float, step: Callable,
           m_set: Sequence[int], store_stride: int,
           observers: Sequence[Callable] = ()) -> Trajectory:
    """The one time loop behind every solver.

    ``step(t, h, u) -> u`` advances the sample array by ``h``; the last
    step is shortened to land on ``T``.  The driver records the ``H^m``
    norms of every state, stores states every ``store_stride`` steps
    (default: about 16 over the run, the final state always), raises
    :class:`NumericalBlowupError` once the state loses finiteness, and
    calls each observer as ``observe(t, state)`` at t=0 and after every
    step.
    """
    times, hs = _step_times(T, dt)
    n_steps = len(hs)
    track = _NormTrack(m_set)
    observers = (track, *observers)
    u = u0.values.astype(np.complex128)
    cur = GridFn(grid, u)
    for observe in observers:
        observe(0.0, cur)
    stride = store_stride if store_stride > 0 else max(1, n_steps // 16)
    state_times = [0.0]
    states = [cur]
    for j, h in enumerate(hs):
        u = step(times[j], h, u)
        t = times[j + 1]
        if not np.all(np.isfinite(u)):
            raise NumericalBlowupError("solution lost finiteness", t=t)
        cur = GridFn(grid, u)
        for observe in observers:
            observe(t, cur)
        if (j + 1) % stride == 0 or j == n_steps - 1:
            state_times.append(t)
            states.append(cur)
    return Trajectory(times=np.asarray(times), norms=track.norms(),
                      state_times=np.asarray(state_times), states=tuple(states),
                      meta={"dt": dt})


def solve_conjugated(
    p: Problem1D,
    cd: ConjugationData,
    dt: float,
    m_set: Sequence[int] = (0,),
    f_tilde: Callable | None = None,
    g_tilde: GridFn | None = None,
    store_stride: int = 0,
    observers: Sequence[Callable] = (),
) -> Trajectory:
    """Strang split-step integration of the conjugated problem
    ``D_t v + a(t) D^2 v + A0(t,x) v = f_tilde``.

    One step is: half phase ``exp(-i dt/2 A0)`` with the coefficient
    frozen at the quarter point, exact Fourier step with the multiplier
    ``exp(-i (int a) k^2)`` (Simpson within the step), midpoint source
    deposit, half phase at the three-quarter point.  Second order in dt,
    verified by self-convergence.

    ``observers`` are passed to the time loop and called as
    ``observe(t, state)`` on the conjugated state at t=0 and after every
    step (:func:`solve_original` tracks the pulled-back solution this
    way without re-running).
    """
    k2 = p.grid.freq_axis() ** 2
    fnorms: list[float] = []
    a0max_seen = 0.0

    def step(t: float, h: float, v: np.ndarray) -> np.ndarray:
        nonlocal a0max_seen
        A0q = cd.A0(t + 0.25 * h).values
        a0max_seen = max(a0max_seen, float(np.max(np.abs(A0q))))
        fnorm = 0.0
        # overflow is allowed to surface as inf and is converted into the
        # blow-up error by the time loop
        with np.errstate(over="ignore", invalid="ignore"):
            v = v * np.exp(-0.5j * h * A0q)
            v = np.fft.ifft(np.exp(-1j * _simpson_int_a(p.a, t, h) * k2) * np.fft.fft(v))
            if f_tilde is not None:
                src = f_tilde(t + 0.5 * h)
                if src is not None:
                    v = v + 1j * h * src.values
                    fnorm = l2_norm(src)
            v = v * np.exp(-0.5j * h * cd.A0(t + 0.75 * h).values)
        fnorms.append(fnorm)
        return v

    tr = _march(p.grid, g_tilde if g_tilde is not None else p.g, p.T, dt, step,
                m_set, store_stride, observers)
    tr.meta.update({"eps": p.eps, "A0_max_seen": a0max_seen,
                    "f_norms": np.asarray(fnorms + [0.0]), "kind": "conjugated-1d"})
    return tr


def solve_original(
    p: Problem1D,
    dt: float,
    m_set: Sequence[int] = (0,),
    residual: bool = False,
    store_stride: int = 0,
) -> Trajectory:
    """Solve the original regularized problem through the conjugation.

    Runs the auxiliary conjugated problem with transformed data
    ``e^{F(0)} g`` and ``e^{F(t)} f`` and maps the solution back with
    ``e^{-F}``.  Norms of the pulled-back solution are recorded at every
    step.  With ``residual=True`` the discrete defect
    ``|S u - f|_{L2} / |u|_{L2}`` is evaluated along the run (time
    derivative by a 4th-order stencil on five consecutive pulled-back
    states) and its maximum lands in ``meta["residual_max_rel"]``.

    The conjugated trajectory itself is kept in ``meta["conjugated"]``
    for the energy monitor.
    """
    p = _tabulated(p, dt, half_steps=False)
    cd = build_conjugation(p)
    g_t = cd.expF(0.0) * p.g
    f_t = (lambda t: cd.expF(t) * p.f(t)) if p.f is not None else None
    pulled = _NormTrack(m_set)
    window: list[tuple[float, GridFn]] = []
    residual_max = 0.0

    def pull_back(t: float, v: GridFn):
        nonlocal residual_max
        u = cd.expmF(t) * v
        pulled(t, u)
        if residual:
            window.append((t, u))
            del window[:-5]
            if len(window) == 5:
                residual_max = max(residual_max, _defect(p, window, dt))

    tr_v = solve_conjugated(p, cd, dt, m_set, f_tilde=f_t, g_tilde=g_t,
                            store_stride=store_stride, observers=(pull_back,))
    u_states = tuple(cd.expmF(t) * s for t, s in zip(tr_v.state_times, tr_v.states))
    meta = {"dt": dt, "eps": p.eps, "kind": "original-1d",
            "expF_bound": cd.expF_bound, "A0_max_seen": tr_v.meta["A0_max_seen"],
            "B1_seam_gap": cd.meta["B1_seam_gap"]}
    if residual:
        meta["residual_max_rel"] = residual_max
    meta["conjugated"] = tr_v
    return Trajectory(times=tr_v.times, norms=pulled.norms(),
                      state_times=tr_v.state_times, states=u_states, meta=meta)


def _defect(p: Problem1D, window: list, dt: float) -> float:
    """``|S u - f|_{L2} / |u|_{L2}`` at the center of five consecutive
    states, with the time derivative from the 4th-order centered stencil."""
    (_, u0), (_, u1), (tc, uc), (_, u3), (_, u4) = window
    dudt = (u0.values - 8.0 * u1.values + 8.0 * u3.values - u4.values) / (12.0 * dt)
    Su = GridFn(p.grid, -1j * dudt) + apply_S_spatial(p, uc, tc)
    if p.f is not None:
        Su = Su - p.f(tc)
    return l2_norm(Su) / max(l2_norm(uc), 1e-300)


def solve_mol(
    p: Problem1D,
    dt: float,
    m_set: Sequence[int] = (0,),
    store_stride: int = 0,
) -> Trajectory:
    """Direct method-of-lines route: integrating-factor RK4 on the original
    equation with the stiff multiplier handled exactly.

    Serves as the independent second path for the uniqueness surrogate
    and as the reference integrator of the consistency experiments.
    """
    p = _tabulated(p, dt, half_steps=True)
    g = p.grid
    k = g.freq_axis()

    def nonstiff(t: float, u_vals: np.ndarray) -> np.ndarray:
        uhat = np.fft.fft(u_vals)
        du = np.fft.ifft(k * uhat)
        out = -1j * (
            complex(p.a1(t)) * p.b1.values * du
            + complex(p.a0(t)) * p.b0.values * u_vals
        )
        if p.f is not None:
            fv = p.f(t)
            if fv is not None:
                out = out + 1j * fv.values
        return out

    return lawson_rk4(g, p.a, k**2, nonstiff, p.g, p.T, dt, m_set, store_stride,
                      meta={"eps": p.eps, "kind": "mol-1d"})


def lawson_rk4(grid, a_fn, k2, nonstiff, g0: GridFn, T: float, dt: float,
               m_set, store_stride: int, meta: dict) -> Trajectory:
    """Integrating-factor RK4 for ``du/dt = -i a(t) k^2 u + N(t, u)``.

    The stiff diagonal part is removed exactly through relative
    propagators ``exp(-i (int a) k^2)`` accumulated by in-step Simpson;
    the transformed system is advanced by classical RK4.  Shared by the
    1D direct route and the 2D conjugated solver (which passes the
    lattice ``|k|^2`` and an operator-bundle nonstiff part).
    """

    def step(t: float, h: float, u: np.ndarray) -> np.ndarray:
        I_half = _simpson_int_a(a_fn, t, 0.5 * h)
        I_full = _simpson_int_a(a_fn, t, h)
        E_half = np.exp(-1j * I_half * k2)
        E_full = np.exp(-1j * I_full * k2)
        E_second = np.exp(-1j * (I_full - I_half) * k2)
        U = np.fft.fftn(u)
        N1 = np.fft.fftn(nonstiff(t, u))
        Y2 = E_half * (U + 0.5 * h * N1)
        N2 = np.fft.fftn(nonstiff(t + 0.5 * h, np.fft.ifftn(Y2)))
        Y3 = E_half * U + 0.5 * h * N2
        N3 = np.fft.fftn(nonstiff(t + 0.5 * h, np.fft.ifftn(Y3)))
        Y4 = E_full * U + h * E_second * N3
        N4 = np.fft.fftn(nonstiff(t + h, np.fft.ifftn(Y4)))
        U_next = E_full * U + h / 6.0 * (
            E_full * N1 + 2.0 * E_second * (N2 + N3) + N4
        )
        return np.fft.ifftn(U_next)

    tr = _march(grid, g0, T, dt, step, m_set, store_stride)
    tr.meta.update(meta)
    return tr


@dataclass(frozen=True)
class EnergyReport:
    """Per-step discrete Gronwall check of the conjugated evolution.

    The inequality tested at every step is

        |v(t_{j+1})|^2 <= e^{K dt} (|v(t_j)|^2 + dt |f~(t_j)|^2),
        K = 1 + 2 max |A0|;

    ``min_margin`` is the smallest relative slack, nonnegative iff the
    check holds everywhere up to the stated tolerance.
    """

    K: float
    holds: bool
    min_margin: float
    n_steps: int
    tol: float


def energy_monitor(tr: Trajectory, cd: ConjugationData | None = None,
                   tol: float = 1e-8) -> EnergyReport:
    """Check the discrete energy inequality along a conjugated trajectory.

    Works on the L2 norms recorded at every step; the constant K uses the
    grid maximum of |A0| observed during the solve (falling back to the
    bundle's sampled maximum).
    """
    if 0 not in tr.norms:
        raise ParameterError("energy monitor needs the L2 norm track (m=0)")
    nrm2 = np.asarray(tr.norms[0]) ** 2
    f2 = np.asarray(tr.meta.get("f_norms", np.zeros_like(nrm2))) ** 2
    dts = np.diff(tr.times)
    a0max = tr.meta.get("A0_max_seen")
    if a0max is None:
        if cd is None:
            raise ParameterError("no |A0| record available; pass the bundle")
        a0max = cd.A0_max
    K = 1.0 + 2.0 * float(a0max)
    growth = np.exp(K * dts)
    rhs = growth * (nrm2[:-1] + dts * f2[:-1])
    scale = np.maximum(nrm2[1:], 1e-300)
    margins = (rhs - nrm2[1:]) / scale
    min_margin = float(margins.min()) if margins.size else 0.0
    return EnergyReport(K=K, holds=bool(min_margin >= -tol),
                        min_margin=min_margin, n_steps=len(dts), tol=tol)
