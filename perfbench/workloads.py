"""The three benchmark workloads: which config a pass parses, how it runs
the program to a result, and what of that result is checked.

This module is imported by the driver (names and config paths only) and
by the pass process; vwschro and numpy are imported inside the functions
that need them, so the driver never loads them.

``observe`` turns a finished pass into operations.  An operation is one
eps-point solve or one analysis; it maps to ``{"ok": bool, "values":
{key: float}}``.  ``ok`` carries the checks that need no reference (a
verdict, a certificate, an acceptance-style rule); ``values`` are compared
against ``references.json`` within ``tolerances`` (relative, absolute).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# default: relative 1e-6, which admits last-digit changes from a
# reordered reduction but not a changed result
DEFAULT_TOL = (1e-6, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the checkout root
    run: Callable
    observe: Callable
    tolerances: dict = field(default_factory=dict)


def _run_cli(cli, cfg):
    """The user-facing path: ``run_experiment`` on the config, artifacts
    into the pass's own output directory."""
    status, outdir = cli.run_experiment(cfg)
    if status != 0:
        raise RuntimeError(f"run_experiment exited with status {status}")
    return Path(outdir)


def _run_conj2d(cli, cfg):
    import numpy as np
    from vwschro import problems
    from vwschro.spectral import Grid

    p = cfg.problem
    grid = Grid(p["dimension"], p["points"], float(p["L"]))
    sc = problems.showcase_2d(float(cfg.regularization["net"][0]), grid=grid,
                              T=float(p["T"]),
                              rng=np.random.default_rng(cfg.output["seed"]))
    tr = sc.solve(float(cfg.solver["dt"]), m_set=tuple(cfg.solver["m_set"]))
    return sc, tr


def _load(path: Path):
    return json.loads(Path(path).read_text())


def _results(outdir: Path) -> dict:
    return {r["analysis"]: r for r in _load(outdir / "run_manifest.json")["results"]}


def _eps_key(eps) -> str:
    return f"eps={float(eps)!r}"


def _observe_net1d(outdir: Path, cfg) -> dict:
    res = _results(outdir)
    ops = {}
    mod = res["moderateness"]
    reports = [_load(p) for p in sorted((outdir / "moderateness").glob("moderateness_*.json"))]
    failed_points = {float(e) for e in mod["failures"]}
    sups = {r["m"]: dict(zip(r["eps"], r["sup_norms"])) for r in reports}
    for eps in cfg.regularization["net"]:
        ops[f"moderateness solve {_eps_key(eps)}"] = {
            "ok": float(eps) not in failed_points,
            "values": {f"sup_H{m}": by_eps[eps] for m, by_eps in sups.items()
                       if eps in by_eps},
        }
    ops["moderateness analysis"] = {
        "ok": bool(mod["verdict"]) and all(f["finite"] for f in mod["fits"].values()),
        "values": {f"N_H{m}": f["N"] for m, f in mod["fits"].items()},
    }
    with open(outdir / "energy.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            ops[f"energy solve {_eps_key(row['eps'])}"] = {
                "ok": row["holds"] == "true",
                "values": {"K": float(row["K"]), "min_margin": float(row["min_margin"])},
            }
    ops["energy analysis"] = {"ok": bool(res["energy"]["verdict"]), "values": {}}
    return ops


def _observe_classical1d(outdir: Path, cfg) -> dict:
    res = _results(outdir)
    ops = {}
    neg = _load(outdir / "negligibility" / "negligibility_000.json")
    for eps, d in zip(neg["eps"], neg["diffs"]):
        ops[f"negligibility solve {_eps_key(eps)}"] = {
            "ok": math.isfinite(d), "values": {"diff_H0": d}}
    q = neg["pert"]["rate"]
    # acceptance criterion c08: fitted decay within 0.3 of q, exact anchor
    ops["negligibility analysis"] = {
        "ok": bool(res["negligibility"]["verdict"])
        and abs(neg["decay_exponent"] - q) < 0.3 and neg["anchor_max"] < 1e-8,
        "values": {"decay_exponent": neg["decay_exponent"]},
    }
    con = _load(outdir / "consistency" / "consistency_000.json")
    for i, eps in enumerate(con["eps"]):
        ops[f"consistency solve {_eps_key(eps)}"] = {
            "ok": True,
            "values": {f"err_H{m}": errs[i] for m, errs in con["errors"].items()},
        }
    # acceptance criterion c09 (smooth case): monotone, order >= 2; the
    # fitted order itself leans on the roundoff floor of the finest point,
    # so it is not compared to the reference
    ops["consistency analysis"] = {
        "ok": bool(res["consistency"]["verdict"]) and bool(con["monotone"])
        and con["orders"]["0"] >= 2.0,
        "values": {},
    }
    return ops


# fixed probe points of the final 2D state (grid indices)
_PROBE_POINTS = ((32, 32), (28, 36), (40, 24), (16, 48))


def _observe_conj2d(product, cfg) -> dict:
    import numpy as np
    from vwschro.spectral import sobolev_norm

    sc, tr = product
    certs = sc.lam.certificates
    inv = sc.inverse
    u = tr.final_state()
    finite = bool(np.all(np.isfinite(u.values)))
    values = {"H0": sobolev_norm(u, 0), "H1": sobolev_norm(u, 1)}
    for j1, j2 in _PROBE_POINTS:
        z = complex(u.values[j1, j2])
        values[f"re_{j1}_{j2}"] = z.real
        values[f"im_{j1}_{j2}"] = z.imag
    eps = float(cfg.regularization["net"][0])
    return {
        "lambda certificates": {
            "ok": bool(certs["support_exact"] and certs["sign_ok"] and certs["bound_ok"]),
            "values": {"M": sc.M, "h": sc.h},
        },
        # probe vectors depend on the seed, so the inverse is checked by
        # its contract, not against reference numbers
        "neumann inverse": {
            "ok": inv.probe_norm < 0.9 and inv.achieved_residual <= 1e-9,
            "values": {},
        },
        f"conjugated solve {_eps_key(eps)}": {"ok": finite, "values": values},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="net1d-showcase",
            config="demos/configs/showcase_1d.cfg",
            run=_run_cli,
            observe=_observe_net1d,
            # margins are O(1e-3); absolute slack for last-digit changes
            tolerances={"min_margin": (1e-6, 1e-12)},
        ),
        Workload(
            name="classical1d-smooth",
            config="perfbench/configs/classical1d_smooth.cfg",
            run=_run_cli,
            observe=_observe_classical1d,
            # the finest consistency errors sit at the 1e-13 roundoff floor
            tolerances={"err_H0": (1e-6, 1e-11), "err_H1": (1e-6, 1e-11)},
        ),
        Workload(
            name="conj2d-n64",
            config="perfbench/configs/conj2d_n64.cfg",
            run=_run_conj2d,
            observe=_observe_conj2d,
            # the Neumann inverse stops at 1e-10 relative, and the probe
            # vectors (hence h and the truncation point) follow the seed
            tolerances={k: (1e-7, 1e-9) for k in
                        ["H0", "H1"] + [f"{p}_{a}_{b}" for a, b in _PROBE_POINTS
                                        for p in ("re", "im")]},
        ),
    )
}


def compare(observed: dict, reference: dict, tolerances: dict) -> list:
    """Check one pass against the reference; returns one
    ``(operation, ok, detail)`` per reference operation (a missing
    operation fails) and per unexpected extra operation."""
    out = []
    for op, ref in reference.items():
        obs = observed.get(op)
        if obs is None:
            out.append((op, False, "missing"))
            continue
        bad = [] if obs["ok"] else ["check failed"]
        for key, want in ref["values"].items():
            got = obs["values"].get(key)
            rel, abs_ = tolerances.get(key, DEFAULT_TOL)
            if got is None or not math.isfinite(got) or \
                    abs(got - want) > abs_ + rel * abs(want):
                bad.append(f"{key}={got!r}, reference {want!r}")
        out.append((op, not bad, "; ".join(bad)))
    for op in observed.keys() - reference.keys():
        out.append((op, False, "not in the reference"))
    return out
