"""Regenerate ``references.json`` from one pass of every workload.

    python3 perfbench/refresh_references.py

Run it only on a commit whose outputs are trusted (the acceptance suite
passes), and say in the change why the references moved.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    work = run.ROOT / ".bench_work" / f"refresh-{os.getpid()}"
    refs = {}
    try:
        for name in workloads.WORKLOADS:
            out = work / name
            out.mkdir(parents=True)
            subprocess.run([sys.executable, str(run.HERE / "one_pass.py"), "--workload", name,
                            "--seed", "0", "--out", str(out / "out"),
                            "--result", str(out / "result.json")],
                           cwd=run.ROOT, env=run.child_env(work), check=True)
            observed = json.loads((out / "result.json").read_text())["observed"]
            bad = [op for op, o in observed.items() if not o["ok"]]
            if bad:
                print(f"{name}: checks fail, not a reference: {bad}", file=sys.stderr)
                return 1
            refs[name] = {op: {"values": o["values"]} for op, o in observed.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
