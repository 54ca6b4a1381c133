# Driving experiments from a config file
# ======================================
#
# Experiments are described in a flat key-tree text format and executed
# through the runner (or the installed ``vwschro`` command line).  The
# runner writes deterministic CSV tables, JSON manifests and gnuplot
# scripts into the chosen artifact directory; identical configs produce
# byte-identical artifacts.

import json
import tempfile
from pathlib import Path

from vwschro.cli import parse_config, run_experiment

CONFIG = """\
# 1D free particle anchor plus a moderateness net on the singular showcase
problem.kind      = free_particle_1d
problem.dimension = 1
problem.T         = 1.0
problem.L         = 20.0
problem.points    = 256

regularization.scale = standard
regularization.net   = [0.2, 0.1, 0.05, 0.025]

solver.dt    = 1e-3
solver.m_set = [0]

analysis.tests = [plane_wave]

output.dir  = "{outdir}"
output.seed = 7
"""

workdir = Path(tempfile.mkdtemp(prefix="vwschro_demo_"))
cfg_text = CONFIG.format(outdir=workdir / "artifacts")
cfg = parse_config(cfg_text)
print("config hash:", cfg.hash)

status, artifact_dir = run_experiment(cfg)
print("exit status:", status)
print("artifacts:")
for path in sorted(artifact_dir.rglob("*")):
    print("  ", path.relative_to(artifact_dir))

manifest = json.loads((artifact_dir / "run_manifest.json").read_text())
print("\nplane-wave result:", manifest["results"][0])
