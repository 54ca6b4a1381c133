"""Net-level experiments: run families of regularized solves over an
epsilon net, fit moderateness exponents, test stability under negligible
perturbations, and check consistency with the exact-coefficient problem.

Everything here works on trajectories produced by the 1D/2D solvers
through caller-supplied closures, so the same machinery drives any
problem family.  All fitted exponents are least-squares estimates with
recorded residuals, never claimed constants.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, VwschroError
from .fitting import fit_power_decay, fit_power_growth, loglog_fit
from .regularize import Scale
from .reporting import write_csv, write_json, write_plot_script
from .trajectory import Trajectory

__all__ = [
    "EpsNet",
    "SolutionNet",
    "run_net",
    "ModeratenessReport",
    "fit_moderateness",
    "PerturbationSpec",
    "NegligibilityReport",
    "test_negligibility",
    "ConsistencyReport",
    "test_consistency",
    "emit_reports",
]


@dataclass(frozen=True)
class EpsNet:
    """Strictly decreasing net of regularization parameters."""

    points: tuple
    scale: Scale = field(default_factory=Scale)
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = tuple(float(e) for e in self.points)
        if len(pts) < 4:
            raise ParameterError("a net needs at least 4 points")
        if any(b >= a for a, b in zip(pts, pts[1:])):
            raise ParameterError("net points must be strictly decreasing")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class SolutionNet:
    """Map eps -> trajectory, with per-point failures recorded."""

    net: EpsNet
    trajectories: dict
    failures: dict

    def successful(self):
        return [e for e in self.net.points if e in self.trajectories]


def run_net(solve_point: Callable[[float], Trajectory], net: EpsNet,
            workers: int = 1) -> SolutionNet:
    """Solve every net point; failures are recorded per point and do not
    abort the net (a net with no successes raises)."""
    trajectories: dict = {}
    failures: dict = {}

    def one(eps):
        try:
            return eps, solve_point(eps), None
        except VwschroError as exc:
            return eps, None, f"{type(exc).__name__}: {exc}"

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, net.points))
    else:
        results = [one(e) for e in net.points]
    for eps, tr, err in results:
        if tr is not None:
            trajectories[eps] = tr
        else:
            failures[eps] = err
    if not trajectories:
        raise VwschroError(f"every net point failed: {failures}")
    return SolutionNet(net=net, trajectories=trajectories, failures=failures)


@dataclass(frozen=True)
class ModeratenessReport:
    """Power-law fit of sup-in-time Sobolev norms against 1/eps.

    ``exponent`` is the fitted N in ``sup_t |u_eps|_{H^m} ~ C eps^{-N}``;
    ``residual`` the relative log-space fit residual (RMS residual over
    the larger of 1 and the log-norm spread).  ``finite`` certifies that
    every recorded norm on the net is finite, the computable face of
    moderateness.
    """

    m: int
    eps: tuple
    sup_norms: tuple
    exponent: float
    prefactor: float
    residual: float
    finite: bool
    kind: str = "moderateness"

    def rows(self):
        return [(e, s) for e, s in zip(self.eps, self.sup_norms)]


def fit_moderateness(sn: SolutionNet, m: int) -> ModeratenessReport:
    eps = sn.successful()
    if len(eps) < 4:
        raise InsufficientDataError(
            f"moderateness fit needs >= 4 successful points, have {len(eps)}"
        )
    sups = [sn.trajectories[e].sup_norm(m) for e in eps]
    finite = bool(np.all(np.isfinite(sups)))
    N, C, rel = fit_power_growth(eps, sups, min_points=4)
    return ModeratenessReport(m=m, eps=tuple(eps), sup_norms=tuple(sups),
                              exponent=N, prefactor=C, residual=rel, finite=finite)


@dataclass(frozen=True)
class PerturbationSpec:
    """Structured description of a negligible-perturbation experiment.

    ``target`` names the perturbed object; shapes carrying spatial decay
    must be tagged, positive coefficients must stay positive, and time
    shapes must be continuous -- these structural requirements are
    validated here, while the quantitative smallness is what the paired
    solves measure.
    """

    target: str  # one of a, a1, a0, b1, b0, f, g
    rate: int  # perturbation amplitude eps^rate
    decay_tag: str = "none"
    preserves_positivity: bool = True

    _DECAY_REQUIRED = {"b1"}

    def __post_init__(self):
        if self.target not in {"a", "a1", "a0", "b1", "b0", "f", "g"}:
            raise ParameterError(f"unknown perturbation target {self.target!r}")
        if self.rate < 1:
            raise ParameterError("perturbation rate must be a positive integer")
        if self.target in self._DECAY_REQUIRED and self.decay_tag != "x^-2":
            raise ParameterError(
                f"perturbations of {self.target} must carry the x^-2 decay tag"
            )
        if self.target == "a" and not self.preserves_positivity:
            raise ParameterError("perturbations of a must preserve positivity")


@dataclass(frozen=True)
class NegligibilityReport:
    """Outcome of paired perturbed/unperturbed solves over a net.

    ``decay_exponent`` is the fitted q' in
    ``sup_t |u - u'|_{H^m} ~ eps^{q'}``; the verdict compares it against
    ``rate - N_fit - margin`` where ``N_fit`` is the moderateness
    exponent of the unperturbed family.
    """

    m: int
    pert: PerturbationSpec
    eps: tuple
    diffs: tuple
    decay_exponent: float
    moderateness_exponent: float
    margin: float
    verdict: bool
    anchor_max: float
    kind: str = "negligibility"

    def rows(self):
        return [(e, d) for e, d in zip(self.eps, self.diffs)]


def test_negligibility(
    paired_solver: Callable[[float, bool], Trajectory],
    net: EpsNet,
    pert: PerturbationSpec,
    m: int = 0,
    margin: float = 0.5,
    anchor: bool = True,
) -> NegligibilityReport:
    """Fit the decay of ``|u - u'|_{H^m}`` for perturbations scaled by
    ``eps^rate``.

    ``paired_solver(eps, perturbed)`` must run the same discretization
    for both members.  With ``anchor=True`` the zero-perturbation
    difference is evaluated at the coarsest point as a sanity floor
    (identical inputs through the same solver; anything above solver
    tolerance indicates a broken pairing).
    """
    eps_list = []
    diffs = []
    sups = []
    anchor_max = 0.0
    for eps in net.points:
        base = paired_solver(eps, False)
        pertd = paired_solver(eps, True)
        d = _trajectory_distance(base, pertd, m)
        eps_list.append(eps)
        diffs.append(d)
        sups.append(base.sup_norm(m))
    if anchor:
        e0 = net.points[0]
        again = paired_solver(e0, False)
        base = paired_solver(e0, False)
        anchor_max = _trajectory_distance(base, again, m)
    N_fit, _, _ = fit_power_growth(eps_list, sups, min_points=4)
    floor = max(max(diffs) * 1e-14, 1e-300)
    q_fit, _, _ = fit_power_decay(eps_list, [max(d, floor) for d in diffs], min_points=4)
    verdict = q_fit >= pert.rate - max(N_fit, 0.0) - margin
    return NegligibilityReport(
        m=m, pert=pert, eps=tuple(eps_list), diffs=tuple(diffs),
        decay_exponent=q_fit, moderateness_exponent=N_fit, margin=margin,
        verdict=bool(verdict), anchor_max=anchor_max,
    )


def _trajectory_distance(a: Trajectory, b: Trajectory, m: int) -> float:
    """sup over shared stored states of the H^m distance."""
    from .spectral import sobolev_norm

    if len(a.states) != len(b.states):
        raise ParameterError("paired trajectories stored different state counts")
    worst = 0.0
    for sa, sb in zip(a.states, b.states):
        worst = max(worst, sobolev_norm(sa - sb, m))
    return worst


@dataclass(frozen=True)
class ConsistencyReport:
    """Convergence of regularized solves to the exact-coefficient solution.

    ``errors[m]`` holds per-point sup-state H^m distances to the
    reference; ``order[m]`` the fitted convergence order; ``gaps`` the
    recorded coefficient sup-differences per point; ``monotone`` whether
    the errors decrease at every halving; ``converging`` the verdict.
    """

    label: str
    eps: tuple
    errors: dict
    orders: dict
    gaps: tuple
    monotone: bool
    halving_factors: tuple
    converging: bool
    kind: str = "consistency"

    def rows(self):
        ms = sorted(self.errors)
        out = []
        for i, e in enumerate(self.eps):
            out.append((e, *(self.errors[m][i] for m in ms)))
        return out


def test_consistency(case, net: EpsNet, m_set: Sequence[int] = (0, 1)) -> ConsistencyReport:
    """Compare regularized solves against the exact-coefficient reference
    computed with the same grid and integrator.

    The reference is solved once; each net point records the sup-state
    H^m distance and the coefficient gaps driving it.  The verdict
    requires errors to decrease monotonically along the net with a
    positive fitted order.
    """
    ref = case.reference()
    errors = {m: [] for m in m_set}
    gaps = []
    for eps in net.points:
        tr = case.regularized(eps)
        for m in m_set:
            errors[m].append(_trajectory_distance(ref, tr, m))
        gaps.append(case.coefficient_gaps(eps))
    orders = {}
    for m in m_set:
        floor = max(max(errors[m]) * 1e-12, 1e-300)
        vals = [max(v, floor) for v in errors[m]]
        q, _, _ = fit_power_decay(net.points, vals, min_points=4)
        orders[m] = q
    m0 = m_set[0]
    seq = errors[m0]
    monotone = all(b <= a + 1e-300 for a, b in zip(seq, seq[1:]))
    factors = tuple(a / max(b, 1e-300) for a, b in zip(seq, seq[1:]))
    converging = monotone and all(orders[m] > 0 for m in m_set)
    return ConsistencyReport(
        label=case.label, eps=tuple(net.points),
        errors={m: tuple(v) for m, v in errors.items()},
        orders=orders, gaps=tuple(gaps), monotone=monotone,
        halving_factors=factors, converging=converging,
    )


def emit_reports(reports: Sequence, sink: Path, manifest_extra: dict | None = None) -> dict:
    """Serialize reports to CSV + JSON under ``sink``; returns the manifest.

    Deterministic: identical report lists produce byte-identical files.
    An empty report list yields a valid manifest with no entries.
    """
    sink = Path(sink)
    sink.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, rep in enumerate(reports):
        stem = f"{getattr(rep, 'kind', 'report')}_{i:03d}"
        files = {}
        if hasattr(rep, "rows"):
            header = _header_for(rep)
            csv_path = write_csv(sink / f"{stem}.csv", header, rep.rows())
            files["csv"] = csv_path.name
            gp = write_plot_script(sink / f"{stem}.gp", csv_path.name,
                                   header[0], header[1])
            files["plot"] = gp.name
        json_path = write_json(sink / f"{stem}.json", _report_dict(rep))
        files["json"] = json_path.name
        entries.append({"kind": getattr(rep, "kind", "report"), "files": files})
    manifest = {"entries": entries, "count": len(entries)}
    if manifest_extra:
        manifest.update(manifest_extra)
    write_json(sink / "manifest.json", manifest)
    return manifest


def _header_for(rep) -> list:
    if isinstance(rep, ModeratenessReport):
        return ["eps", f"sup_H{rep.m}"]
    if isinstance(rep, NegligibilityReport):
        return ["eps", f"diff_H{rep.m}"]
    if isinstance(rep, ConsistencyReport):
        return ["eps"] + [f"err_H{m}" for m in sorted(rep.errors)]
    return ["eps", "value"]


def _report_dict(rep) -> dict:
    from dataclasses import asdict, is_dataclass

    if is_dataclass(rep):
        d = asdict(rep)
        d.pop("rows", None)
        return d
    return dict(rep)

