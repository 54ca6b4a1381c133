"""Span recorder for traced passes, and the reduction of its spans to the
per-layer metrics.

Tracing wraps public functions of each layer under the name their caller
looks them up by (``conjugate1d.sobolev_norm`` is the reference
``conjugate1d`` holds, ``spectral.sobolev_norm`` the one ``l2_norm`` and
``netlab`` reach), so no file of the program changes.  Each call records
a span ``(name, start, end, parent)``; spans stay in memory and are
written once, when the pass ends.  A layer's self time is its spans'
duration minus the part their child spans cover.

The recorder keeps one stack of open spans: the traced workloads run in
one thread.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import time
from collections import defaultdict

# (module, attribute path, layer).  The span is named after the lookup
# site: the module's short name and the attribute.
SITES = (
    ("vwschro.spectral", "sobolev_norm", "spectral.sobolev_norm"),
    ("vwschro.conjugate1d", "sobolev_norm", "spectral.sobolev_norm"),
    ("vwschro.psdo", "sobolev_norm", "spectral.sobolev_norm"),
    ("vwschro.psdo", "operator_norm_probe", "spectral.operator_norm_probe"),
    ("vwschro.regularize", "RegularizedCoefficient.__call__", "regularize.coeff_eval"),
    ("vwschro.regularize", "RegularizedCoefficient.derivative", "regularize.coeff_eval"),
    ("vwschro.problems", "regularize_space", "regularize.build"),
    ("vwschro.problems", "extend_regularize_a", "regularize.build"),
    ("vwschro.problems", "regularize_time_dist", "regularize.build"),
    ("vwschro.problems", "delta_showcase_1d", "problems.build"),
    ("vwschro.problems", "smooth_classical_1d", "problems.build"),
    ("vwschro.problems", "consistency_case_1d", "problems.build"),
    ("vwschro.problems", "showcase_2d", "problems.build"),
    ("vwschro.conjugate1d", "build_conjugation", "conjugate1d.build_conjugation"),
    ("vwschro.conjugate1d", "solve_conjugated", "conjugate1d.strang"),
    ("vwschro.conjugate1d", "lawson_rk4", "conjugate1d.lawson"),
    ("vwschro.psdo", "lawson_rk4", "conjugate1d.lawson"),
    ("vwschro.cli", "energy_monitor", "conjugate1d.energy_monitor"),
    ("vwschro.psdo", "apply_exp_lambda", "psdo.apply_exp_lambda"),
    ("vwschro.problems", "choose_parameters", "psdo.choose_parameters"),
    ("vwschro.problems", "build_lambda", "psdo.build_lambda"),
    ("vwschro.psdo", "build_lambda", "psdo.build_lambda"),
    ("vwschro.problems", "invert_exp_lambda", "psdo.invert_exp_lambda"),
    ("vwschro.problems", "solve2d", "psdo.solve2d"),
    ("vwschro.cli", "solve_original", "netlab.solve"),
    ("vwschro.problems", "solve_mol", "netlab.solve"),
    ("vwschro.cli", "fit_moderateness", "netlab.analysis"),
    ("vwschro.cli", "test_negligibility", "netlab.analysis"),
    ("vwschro.cli", "test_consistency", "netlab.analysis"),
    ("vwschro.cli", "parse_config", "cli.parse_config"),
    ("vwschro.cli", "run_experiment", "cli.run_experiment"),
)

# layers whose span count is a metric (``<layer>.calls``); every layer
# reports ``<layer>.self_s``
COUNTED = ("spectral.sobolev_norm", "spectral.operator_norm_probe",
           "regularize.coeff_eval", "conjugate1d.strang", "conjugate1d.lawson",
           "psdo.apply_exp_lambda")


def _problem_key(route: str, p, dt) -> str:
    """Identity of one eps-point solve: route, eps, horizon, step and the
    bytes of the datum and space coefficients (perturbed problems differ
    in these)."""
    h = hashlib.blake2b(digest_size=12)
    fields = (p.g, p.b1, p.b0) if hasattr(p, "b1") else (p.g, *p.b_fields, p.b0)
    for f in fields:
        h.update(f.values.tobytes())
    return f"{route}|{p.eps!r}|{p.T!r}|{float(dt)!r}|{h.hexdigest()}"


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.steps = defaultdict(int)
        self.solves: list[str] = []
        self.ladder_rungs = 0
        self.row_cache_bytes = 0
        self._inverses: list = []

    def _wrap(self, name: str, layer: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _after_hook(self, layer: str, attr: str, fn):
        """What a site records beyond its span, read from its arguments
        and result."""
        if layer in ("conjugate1d.strang", "conjugate1d.lawson"):
            def hook(tr, args, kwargs):
                self.steps[layer] += len(tr.times) - 1
            return hook
        if layer == "netlab.solve" or attr == "solve2d":
            sig = inspect.signature(fn)

            def hook(tr, args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                self.solves.append(_problem_key(attr, bound["p"], bound["dt"]))
            return hook
        if attr == "choose_parameters":
            def hook(choice, args, kwargs):
                self.ladder_rungs += sum(1 for entry in choice.log if entry[0] == "probe")
            return hook
        if attr == "apply_exp_lambda":
            # the lazily filled row cache of the symbol just applied; read
            # here so the trace keeps no symbol (and its cache) alive
            def hook(out, args, kwargs):
                rows = getattr(args[1], "_rows", None) or ()
                size = sum(r.nbytes for r in rows if r is not None)
                self.row_cache_bytes = max(self.row_cache_bytes, size)
            return hook
        if attr == "invert_exp_lambda":
            return lambda inv, args, kwargs: self._inverses.append(inv)
        return None

    def install(self):
        """Replace every site by its traced wrapper; a site the program no
        longer has is listed in ``missing`` and reads as idle."""
        for module, path, layer in SITES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{path}")
                continue
            name = path if parents else f"{module.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, attr, self._wrap(name, layer, fn, self._after_hook(layer, attr, fn)))

    def counters(self) -> dict:
        """Structural counts of the pass (exact, repeatable)."""
        distinct = len(set(self.solves))
        return {
            "conjugate1d.strang.steps": self.steps["conjugate1d.strang"],
            "conjugate1d.lawson.steps": self.steps["conjugate1d.lawson"],
            "psdo.row_cache_bytes": self.row_cache_bytes,
            "psdo.ladder_rungs": self.ladder_rungs,
            "psdo.neumann_terms_max": max(
                (getattr(inv, "max_terms_used", 0) for inv in self._inverses), default=0),
            "netlab.solves": len(self.solves),
            "netlab.distinct_points": distinct,
            "netlab.solve_reuse": distinct / len(self.solves) if self.solves else 1.0,
        }

    def dump(self, path, extra: dict):
        doc = {"names": self.names, "layers": self.layers, "spans": self.spans,
               "missing": self.missing, "counters": {**self.counters(), **extra}}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_times(doc: dict) -> dict:
    """Per-layer ``calls``, ``self_s`` and inclusive ``total_s`` from one
    pass's span document.  Inclusive time counts only outermost spans of
    a layer, so a layer nested in itself is not counted twice."""
    spans = doc["spans"]
    layer_of = doc["layers"]
    covered = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for i, (nid, start, end, parent) in enumerate(spans):
        layer = layer_of[nid]
        rec = out[layer]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - covered[i]
        if not _inside_layer(spans, layer_of, parent, layer):
            rec["total_s"] += end - start
    return dict(out)


def _inside_layer(spans, layer_of, parent: int, layer: str) -> bool:
    while parent >= 0:
        if layer_of[spans[parent][0]] == layer:
            return True
        parent = spans[parent][3]
    return False


def pass_metrics(doc: dict, names) -> dict:
    """The per-layer metrics named in ``names`` for one traced pass."""
    times = layer_times(doc)
    counters = doc["counters"]
    out = {}
    for name in names:
        if name in counters:
            out[name] = counters[name]
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "calls" and layer in COUNTED:
            out[name] = times.get(layer, {}).get("calls", 0)
        elif kind == "self_s":
            out[name] = times.get(layer, {}).get("self_s", 0.0)
    return out
