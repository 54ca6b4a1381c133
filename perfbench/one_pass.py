"""One benchmark pass, run by ``run.py`` in a fresh process.

    python3 perfbench/one_pass.py --workload NAME --seed N --out DIR \
        --result FILE [--spans FILE] [--setup-only]

Set-up is timed from before ``import vwschro`` to the parsed config.  The
run is timed from there to the program's result (artifacts written, or
the 2D trajectory returned); the observation of that result for checking
happens after the clock stops.  With ``--spans`` the layer sites are
traced and the spans written to FILE when the pass ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    from vwschro import cli

    recorder = None
    if args.spans is not None:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    cfg = cli.parse_config((ROOT / wl.config).read_text())
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    result = {"setup_s": setup_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not args.setup_only:
        cfg = dataclasses.replace(
            cfg, output={**cfg.output, "dir": str(args.out), "seed": args.seed})
        t1 = time.perf_counter()
        product = wl.run(cli, cfg)
        result["run_s"] = time.perf_counter() - t1
        result["observed"] = wl.observe(product, cfg)
        if recorder is not None:
            recorder.dump(args.spans, {"cli.artifact_bytes": _artifact_bytes(args.out)})
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
