"""Benchmark driver for vwschro.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload as a closed loop with one client: each pass is a
fresh single-threaded process (BLAS/OpenMP pinned to one thread), and the
next pass starts only after the previous one has exited.  Passes start
while the measured window of S seconds still has room for one more (at
least MIN_PASSES run).  Every pass gets its own empty output directory
under ``.bench_work/`` in the checkout, removed when the run ends; no
cache survives from one pass to the next.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (median over every fresh process of the run, including
SETUP_PROBES set-up-only ones), ``run_s`` (median pass time to the
program's result) and ``peak_rss_mb`` (median over passes of the pass
process's maximum resident set, read by ``os.wait4``).  ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics
of BENCHMARK.json from the traced ones, with the tracing overhead.

Every pass's output is checked against ``references.json``; an operation
(one eps-point solve or one analysis) fails if its check fails, and every
operation of a pass that exits nonzero fails.  The last line of standard
output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 4
# a run must end within 180 s; children are killed past this deadline
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The program cannot be benchmarked here (missing, or does not start)."""


def _median(xs):
    return statistics.median(xs)


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def environment() -> dict:
    """Machine facts recorded with every run."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (idx / "level").read_text().strip() == "3":
                l3 = _parse_size((idx / "size").read_text().strip())
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "cpu": cpu, "l3_bytes": l3,
            "python": platform.python_version()}


def _parse_size(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(work)
    return env


class Runner:
    """Starts pass processes one at a time and reaps each with its rusage."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = child_env(work)
        self.count = 0

    def run(self, setup_only=False, traced=False) -> dict:
        """One fresh process; returns its result (``None`` when it failed)
        with wall time, peak RSS and, when traced, its span document."""
        self.count += 1
        pdir = self.work / f"pass-{self.count:03d}"
        out = pdir / "out"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out),
               "--result", str(pdir / "result.json")]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(pdir / "spans.json")]
        t0 = time.perf_counter()
        with open(pdir / "stdout.txt", "wb") as so, open(pdir / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=so, stderr=se)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        res = None
        if proc.returncode == 0:
            res = json.loads((pdir / "result.json").read_text())
            res["wall_s"] = wall
            res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
            if traced:
                res["spans"] = json.loads((pdir / "spans.json").read_text())
        else:
            err = (pdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            print(f"pass {self.count} exited with {proc.returncode}: "
                  f"{err[-1] if err else 'no output'}", file=sys.stderr)
        shutil.rmtree(pdir)
        return res


def measure(runner: Runner, seconds: float, pattern, min_passes: int) -> list:
    """Closed loop: pass kinds cycle through ``pattern`` (traced flags);
    a new pass starts while the window has room for the slowest so far."""
    passes = []
    t0 = time.monotonic()
    longest = 0.0
    while len(passes) < min_passes or time.monotonic() - t0 + longest <= seconds:
        if time.monotonic() > runner.deadline:
            break
        traced = pattern[len(passes) % len(pattern)]
        started = time.monotonic()
        res = runner.run(traced=traced)
        longest = max(longest, time.monotonic() - started)
        passes.append((traced, res))
    return passes


def check(passes, workload) -> tuple[int, int, list]:
    """Operations attempted and failed over all passes, with the first
    failures for the log."""
    reference = json.loads((HERE / "references.json").read_text())[workload.name]
    attempted = failed = 0
    notes = []
    for _, res in passes:
        if res is None:
            attempted += len(reference)
            failed += len(reference)
            continue
        for op, ok, detail in workloads.compare(res["observed"], reference,
                                                workload.tolerances):
            attempted += 1
            if not ok:
                failed += 1
                notes.append(f"{op}: {detail}")
    return attempted, failed, notes


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vwschro benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for need in (ROOT / "src" / "vwschro" / "__init__.py", ROOT / wl.config):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; nothing to benchmark",
                  file=sys.stderr)
            return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, wl, spec, Runner(args.workload, args.seed, work, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, wl, spec, runner: Runner) -> int:
    env = environment()
    # the first process also compiles bytecode and warms the file cache;
    # it is not a set-up sample
    warm = runner.run(setup_only=True)
    if warm is None:
        raise BenchError("the program does not start (see the pass error above)")
    env.update(warm["versions"])
    setups = [r["setup_s"] for r in (runner.run(setup_only=True)
                                     for _ in range(SETUP_PROBES)) if r is not None]
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} l3_bytes={env['l3_bytes']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"threads=1 ({','.join(THREAD_VARS)})")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {wl.name}: {why[wl.name]}")

    pattern = (True, False) if args.trace else (False,)
    min_passes = 2 * MIN_TRACED_PASSES if args.trace else MIN_PASSES
    passes = measure(runner, args.seconds, pattern, min_passes)
    good = [(traced, r) for traced, r in passes if r is not None]
    if not good:
        raise BenchError("every pass failed")
    attempted, failed, notes = check(passes, wl)
    for note in notes[:10]:
        print(f"check failed: {note}")
    print(f"closed loop, 1 client: {len(passes)} passes in the measured window "
          f"({len(good)} completed); operations {attempted} attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.6g}")

    untraced = [r for traced, r in good if not traced]
    if args.trace:
        metrics = _layer_metrics(spec, [r for traced, r in good if traced], untraced)
    else:
        setups += [r["setup_s"] for r in untraced]
        metrics = _end_to_end(spec, setups, untraced)
    if wl.name == "conj2d-n64":
        n = int(re.search(r"^problem\.points\s*=\s*(\d+)", (ROOT / wl.config).read_text(),
                          re.M).group(1))
        print(f"row cache (computed n^4*8, n={n}): {n**4 * 8} B against L3 {env['l3_bytes']} B")
    for name, m in metrics.items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _end_to_end(spec, setups, untraced) -> dict:
    if not untraced:
        raise BenchError("no untraced pass completed")
    run_s = [r["run_s"] for r in untraced]
    rss = [r["peak_rss_mb"] for r in untraced]
    q1, q3 = _quartiles(run_s)
    print(f"run_s: median {_median(run_s):.6g} s, quartiles {q1:.6g} .. {q3:.6g} s, "
          f"n={len(run_s)}")
    s1, s3 = _quartiles(setups)
    print(f"setup_s: median {_median(setups):.6g} s, quartiles {s1:.6g} .. {s3:.6g} s, "
          f"n={len(setups)}")
    values = {"setup_s": _median(setups), "run_s": _median(run_s),
              "peak_rss_mb": _median(rss)}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def _layer_metrics(spec, traced, untraced) -> dict:
    if not traced or not untraced:
        raise BenchError("the traced run needs a traced and an untraced pass")
    names = [m["name"] for m in spec["per_layer"]]
    per_pass = [spans.pass_metrics(r["spans"], names) for r in traced]
    first = per_pass[0]
    for other in per_pass[1:]:
        moved = [k for k in first if not k.endswith("_s") and first[k] != other[k]]
        if moved:
            print(f"warning: counts differ between traced passes: {moved}", file=sys.stderr)
    missing = traced[0]["spans"]["missing"]
    if missing:
        print(f"trace sites absent from the program (read as idle): {missing}")
    for layer, t in sorted(spans.layer_times(traced[0]["spans"]).items()):
        print(f"layer {layer}: calls {t['calls']}, inclusive {t['total_s']:.6g} s, "
              f"self {t['self_s']:.6g} s")
    traced_run = _median([r["run_s"] for r in traced])
    plain_run = _median([r["run_s"] for r in untraced])
    print(f"tracing overhead: traced run_s {traced_run:.6g} s - untraced run_s "
          f"{plain_run:.6g} s = {traced_run - plain_run:.6g} s")
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = traced_run - plain_run
        elif name.endswith("_s"):
            values[name] = _median([p[name] for p in per_pass])
        else:
            values[name] = first[name]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


if __name__ == "__main__":
    raise SystemExit(main())
