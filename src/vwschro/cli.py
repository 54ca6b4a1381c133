"""Experiment orchestration: parse a flat key-tree config, build problems
from the registries, dispatch solves and net analyses, and persist every
artifact deterministically.

Config grammar (line oriented)::

    # comment
    problem.kind   = delta_showcase_1d     # dotted keys form the tree
    problem.T      = 0.5                   # numbers: int or float
    problem.points = 4096
    regularization.net = [0.2, 0.1, 0.05, 0.025]   # lists of scalars
    output.dir     = "runs/showcase"       # strings: bare word or quoted

Keys are dotted identifiers; values are numbers, booleans (``true`` /
``false``), bare words, quoted strings, or ``[...]`` lists of scalars.
Physical parameters (domain size, grid, dt, the net) have no defaults
and must be explicit; only tolerances and the seed carry documented
defaults.

Verbs: ``validate`` (parse and check only), ``run`` (full pipeline),
``report`` (re-render plot scripts from an existing artifact directory).
Scientific failures (for example a positivity certificate failing at an
undersized M) are recorded verdicts and exit 0; only infrastructure
errors exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conjugate1d import energy_monitor, solve_original
from .errors import ConfigError, VwschroError
from .netlab import (
    EpsNet,
    PerturbationSpec,
    emit_reports,
    fit_moderateness,
    run_net,
    test_consistency,
    test_negligibility,
)
from .regularize import Scale
from .reporting import config_hash, read_csv, write_csv, write_json, write_plot_script
from .spectral import Grid, GridFn, l2_norm
from . import problems as prob_mod

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")

_NET_KINDS = frozenset(kind for kind, (_, build) in prob_mod.PROBLEM_KINDS.items()
                       if build is not None)
#: fewest eps-net points an analysis that fits over the net accepts
MIN_NET_POINTS = 4


@dataclass(frozen=True)
class Analysis:
    """The problem kinds an analysis solves, and whether it fits over the
    eps net (and so needs at least :data:`MIN_NET_POINTS` points)."""

    kinds: frozenset
    over_net: bool


#: analysis -> what it solves: moderateness and energy solve the kind's
#: per-point builder, the others build their own fixed problem
ANALYSES = {
    "plane_wave": Analysis(frozenset({"free_particle_1d", "free_particle_2d"}), False),
    "moderateness": Analysis(_NET_KINDS, True),
    "energy": Analysis(_NET_KINDS, True),
    "negligibility": Analysis(frozenset({"smooth_classical_1d"}), True),
    "consistency": Analysis(frozenset({"smooth_classical_1d"}), True),
    "garding": Analysis(frozenset({"showcase_2d"}), False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    problem: dict
    regularization: dict
    solver: dict
    analysis: dict
    output: dict
    raw_text: str = ""

    @property
    def hash(self) -> str:
        return config_hash(self.raw_text)


def _parse_scalar(tok: str, line: int, col: int):
    tok = tok.strip()
    if not tok:
        raise ConfigError([f"line {line}, col {col}: empty value"])
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    if tok in ("true", "false"):
        return tok == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    if re.match(r"^[A-Za-z_][A-Za-z0-9_\-./]*$", tok):
        return tok
    raise ConfigError([f"line {line}, col {col}: cannot parse value {tok!r}"])


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; syntax errors raise immediately with position,
    semantic problems are collected and raised together."""
    tree: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError([f"line {ln}, col 1: expected 'key = value'"])
        key, _, val = line.partition("=")
        key = key.strip()
        col = raw.index("=") + 2
        if not _KEY_RE.match(key):
            raise ConfigError([f"line {ln}, col 1: bad key {key!r}"])
        val = val.strip()
        if val.startswith("["):
            if not val.endswith("]"):
                raise ConfigError([f"line {ln}, col {col}: unterminated list"])
            inner = val[1:-1].strip()
            parsed = [_parse_scalar(t, ln, col) for t in inner.split(",")] if inner else []
        else:
            parsed = _parse_scalar(val, ln, col)
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError([f"line {ln}: key {key!r} descends through a scalar"])
        if parts[-1] in node:
            raise ConfigError([f"line {ln}: duplicate key {key!r}"])
        node[parts[-1]] = parsed
    return _validate(tree, text)


def _validate(tree: dict, text: str) -> ExperimentConfig:
    errors: list[str] = []

    def need(block: str, key: str, types, pred=None, msg=""):
        blk = tree.get(block, {})
        if key not in blk:
            errors.append(f"missing required key {block}.{key}")
            return None
        v = blk[key]
        if not isinstance(v, types):
            errors.append(f"{block}.{key}: expected {types}, got {type(v).__name__}")
            return None
        if pred is not None and not pred(v):
            errors.append(f"{block}.{key}: {msg} (got {v!r})")
            return None
        return v

    kind = need("problem", "kind", str, lambda v: v in prob_mod.PROBLEM_KINDS,
                f"must be one of {sorted(prob_mod.PROBLEM_KINDS)}")
    dim = need("problem", "dimension", int, lambda v: v in (1, 2),
               "dimension must be 1 or 2")
    need("problem", "T", (int, float), lambda v: v > 0, "T must be positive")
    need("problem", "L", (int, float), lambda v: v > 0, "L must be positive")
    need("problem", "points", int, lambda v: v >= 8 and (v & (v - 1)) == 0,
         "points must be a power of two")
    if kind and dim:
        kind_dim = prob_mod.PROBLEM_KINDS[kind][0]
        if kind_dim != dim:
            errors.append(f"problem.kind {kind!r} is {kind_dim}D but dimension={dim}")
    scale_kind = tree.get("regularization", {}).get("scale", "standard")
    if scale_kind not in ("standard", "power", "logchain"):
        errors.append(f"regularization.scale: unknown kind {scale_kind!r}")
    net = need("regularization", "net", list,
               lambda v: len(v) >= 1 and all(isinstance(x, (int, float)) for x in v),
               "net must be a list of numbers")
    if net and any(b >= a for a, b in zip(net, net[1:])):
        errors.append("regularization.net must be strictly decreasing")
    need("solver", "dt", (int, float), lambda v: v > 0, "dt must be positive")
    m_set = tree.get("solver", {}).get("m_set", [0])
    if not (isinstance(m_set, list) and all(isinstance(m, int) and m >= 0 for m in m_set)):
        errors.append("solver.m_set must be a list of nonnegative integers")
    tests = need("analysis", "tests", list,
                 lambda v: all(t in ANALYSES for t in v),
                 f"entries must be in {sorted(ANALYSES)}")
    if tests is not None and net is not None and len(net) < MIN_NET_POINTS:
        over_net = sorted(t for t in tests if ANALYSES[t].over_net)
        if over_net:
            errors.append(f"net analyses {over_net} require at least "
                          f"{MIN_NET_POINTS} net points")
    if tests is not None and kind:
        for t in tests:
            if kind not in ANALYSES[t].kinds:
                errors.append(f"analysis {t!r} does not solve problem.kind {kind!r}; "
                              f"it solves {sorted(ANALYSES[t].kinds)}")
    need("output", "dir", str)
    seed = tree.get("output", {}).get("seed", 0)
    if not isinstance(seed, int):
        errors.append("output.seed must be an integer")
    if errors:
        raise ConfigError(errors)
    out = dict(tree.get("output", {}))
    out.setdefault("seed", 0)
    solver = dict(tree.get("solver", {}))
    solver.setdefault("m_set", [0])
    return ExperimentConfig(
        problem=dict(tree["problem"]),
        regularization=dict(tree["regularization"]),
        solver=solver,
        analysis=dict(tree["analysis"]),
        output=out,
        raw_text=text,
    )


# ---------------------------------------------------------------------------
# experiment execution


def _grid_of(cfg: ExperimentConfig) -> Grid:
    p = cfg.problem
    return Grid(p["dimension"], p["points"], float(p["L"]))


def _scale_of(cfg: ExperimentConfig) -> Scale:
    kind = cfg.regularization.get("scale", "standard")
    r = float(cfg.regularization.get("scale_r", 0.5))
    return Scale(kind) if kind != "power" else Scale("power", r=r)


def _solve_point_factory(cfg: ExperimentConfig):
    """The per-point solve ``eps -> Trajectory`` of the net analyses.

    Each point is solved once per run; a point that raises is not kept
    and raises again when asked for a second time.
    """
    build = prob_mod.PROBLEM_KINDS[cfg.problem["kind"]][1]
    grid = _grid_of(cfg)
    T = float(cfg.problem["T"])
    dt = float(cfg.solver["dt"])
    m_set = tuple(cfg.solver["m_set"])
    scale = _scale_of(cfg)
    solved: dict = {}

    def solve_point(eps):
        if eps not in solved:
            solved[eps] = solve_original(build(eps, grid, T, scale), dt=dt, m_set=m_set)
        return solved[eps]

    return solve_point


def _run_plane_wave(cfg: ExperimentConfig, sink: Path, rng) -> dict:
    grid = _grid_of(cfg)
    T = float(cfg.problem["T"])
    dt = float(cfg.solver["dt"])
    if grid.dimension == 1:
        p = prob_mod.free_particle_1d(grid, T=T)
        tr = solve_original(p, dt=dt, m_set=(0,))
        k0 = 16 * np.pi / grid.half_length
        exact = np.exp(1j * (k0 * grid.axis()) - 1j * k0**2 * T)
    else:
        from .psdo import CutoffChi, build_lambda, invert_exp_lambda, solve2d

        p = prob_mod.free_particle_2d(grid, T=T)
        lam = build_lambda(0.0, 1.0, CutoffChi(), grid)
        inv = invert_exp_lambda(lam, rng=rng)
        tr = solve2d(p, lam, inv, dt=dt, m_set=(0,))
        k1 = 3 * np.pi / grid.half_length
        k2 = 2 * np.pi / grid.half_length
        x1, x2 = grid.x_meshes()
        exact = np.exp(1j * (k1 * x1 + k2 * x2) - 1j * (k1**2 + k2**2) * T)
    err = float(np.max(np.abs(tr.final_state().values - exact)))
    write_csv(sink / "plane_wave.csv", ["T", "max_err"], [(T, err)])
    return {"analysis": "plane_wave", "max_err": err, "verdict": bool(err < 1e-10)}


def _run_moderateness(cfg, sink, workers, solve_point) -> dict:
    net = EpsNet(points=tuple(cfg.regularization["net"]), scale=_scale_of(cfg))
    sn = run_net(solve_point, net, workers=workers)
    reports = [fit_moderateness(sn, m) for m in cfg.solver["m_set"]]
    emit_reports(reports, sink / "moderateness")
    return {
        "analysis": "moderateness",
        "fits": {str(r.m): {"N": r.exponent, "residual": r.residual,
                            "finite": r.finite} for r in reports},
        "failures": sn.failures,
        "verdict": all(r.finite for r in reports),
    }


def _run_energy(cfg, sink, solve_point) -> dict:
    net = EpsNet(points=tuple(cfg.regularization["net"]), scale=_scale_of(cfg))
    rows = []
    all_hold = True
    for eps in net.points:
        tr = solve_point(eps)
        rep = energy_monitor(tr.meta["conjugated"])
        rows.append((eps, rep.K, rep.min_margin, rep.holds))
        all_hold = all_hold and rep.holds
    write_csv(sink / "energy.csv", ["eps", "K", "min_margin", "holds"], rows)
    return {"analysis": "energy", "verdict": bool(all_hold)}


def _run_negligibility(cfg, sink) -> dict:
    net = EpsNet(points=tuple(cfg.regularization["net"]), scale=_scale_of(cfg))
    grid = _grid_of(cfg)
    T = float(cfg.problem["T"])
    dt = float(cfg.solver["dt"])
    q = int(cfg.analysis.get("q", 3))
    pert = PerturbationSpec(target="g", rate=q)

    def paired(eps, perturbed):
        gp = (lambda x: eps**q * np.exp(-((x - 1.0) ** 2))) if perturbed else None
        p = prob_mod.smooth_classical_1d(eps, grid=grid, T=T, g_pert=gp)
        return solve_original(p, dt=dt, m_set=(0,), store_stride=max(
            1, int(round(T / dt)) // 8))

    rep = test_negligibility(paired, net, pert, m=0)
    emit_reports([rep], sink / "negligibility")
    return {"analysis": "negligibility", "decay_exponent": rep.decay_exponent,
            "verdict": bool(rep.verdict)}


def _run_consistency(cfg, sink) -> dict:
    net = EpsNet(points=tuple(cfg.regularization["net"]), scale=_scale_of(cfg))
    grid = _grid_of(cfg)
    T = float(cfg.problem["T"])
    dt = float(cfg.solver["dt"])
    ckind = cfg.analysis.get("consistency_kind", "smooth")
    case = prob_mod.consistency_case_1d(ckind, grid=grid, T=T, dt=dt)
    rep = test_consistency(case, net, m_set=tuple(cfg.solver["m_set"]))
    emit_reports([rep], sink / "consistency")
    return {"analysis": "consistency", "orders": rep.orders,
            "monotone": rep.monotone, "verdict": bool(rep.converging)}


def _run_garding(cfg, sink, rng) -> dict:
    from .psdo import garding_certify
    from .problems import showcase_2d

    eps = float(cfg.regularization["net"][0])
    sc = showcase_2d(eps, grid=_grid_of(cfg), T=float(cfg.problem["T"]), rng=rng)
    cert = garding_certify(sc.problem, sc.lam, rng=rng)
    write_json(sink / "garding.json", {
        "M": cert.M, "lattice_min": cert.lattice_min, "scale": cert.scale,
        "positive": cert.positive, "quad_bound": cert.quad_bound,
        "quad_time": cert.quad_time,
    })
    # a failed certificate is a recorded scientific outcome, not an error
    return {"analysis": "garding", "positive": cert.positive,
            "verdict": True, "certificate_positive": cert.positive}


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   seed: int | None = None) -> tuple[int, Path | None]:
    """Execute all requested analyses; returns (exit_status, artifact dir).

    Exit 0 iff every requested analysis produced a verdict (pass or
    documented fail); nonzero only on infrastructure errors.  Nothing is
    written when the output directory cannot be created.
    """
    outdir = Path(cfg.output["dir"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write_probe"
        probe.write_text("ok")
        probe.unlink()
    except OSError as exc:
        print(f"error: output dir not writable: {exc}", file=sys.stderr)
        return 1, None
    seed = cfg.output["seed"] if seed is None else seed
    rng = np.random.default_rng(seed)
    results = []
    try:
        # moderateness and energy share one solve per net point
        solve_point = _solve_point_factory(cfg)
        for test in cfg.analysis["tests"]:
            if test == "plane_wave":
                results.append(_run_plane_wave(cfg, outdir, rng))
            elif test == "moderateness":
                results.append(_run_moderateness(cfg, outdir, workers, solve_point))
            elif test == "energy":
                results.append(_run_energy(cfg, outdir, solve_point))
            elif test == "negligibility":
                results.append(_run_negligibility(cfg, outdir))
            elif test == "consistency":
                results.append(_run_consistency(cfg, outdir))
            elif test == "garding":
                results.append(_run_garding(cfg, outdir, rng))
    except VwschroError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1, outdir
    manifest = {
        "config_hash": cfg.hash,
        "seed": seed,
        "results": results,
        "problem": cfg.problem,
    }
    write_json(outdir / "run_manifest.json", manifest)
    (outdir / "config.echo").write_text(cfg.raw_text)
    return 0, outdir


def _regenerate_plots(artifact_dir: Path) -> int:
    artifact_dir = Path(artifact_dir)
    if not artifact_dir.exists():
        print(f"error: no such directory {artifact_dir}", file=sys.stderr)
        return 1
    count = 0
    for csv_path in sorted(artifact_dir.rglob("*.csv")):
        header, _ = read_csv(csv_path)
        if len(header) < 2:
            continue
        write_plot_script(csv_path.with_suffix(".gp"), csv_path.name,
                          header[0], header[1])
        count += 1
    print(f"regenerated {count} plot scripts under {artifact_dir}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="vwschro",
        description="regularized-net experiments for singular Schrodinger operators",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb in ("validate", "run"):
        s = sub.add_parser(verb)
        s.add_argument("config", type=Path)
        if verb == "run":
            s.add_argument("--output", type=Path, default=None,
                           help="override output.dir")
            s.add_argument("--workers", type=int, default=1)
            s.add_argument("--seed", type=int, default=None,
                           help="override output.seed")
    rep = sub.add_parser("report")
    rep.add_argument("dir", type=Path)
    args = ap.parse_args(argv)

    if args.verb == "report":
        return _regenerate_plots(args.dir)

    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.verb == "validate":
        print(f"config valid (hash {cfg.hash})")
        return 0
    if args.output is not None:
        out = dict(cfg.output)
        out["dir"] = str(args.output)
        cfg = ExperimentConfig(cfg.problem, cfg.regularization, cfg.solver,
                               cfg.analysis, out, cfg.raw_text)
    status, outdir = run_experiment(cfg, workers=args.workers, seed=args.seed)
    if status == 0:
        print(f"run complete: artifacts in {outdir}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
