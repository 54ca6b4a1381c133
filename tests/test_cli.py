"""Config parsing, validation, and the experiment runner."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import vwschro.cli as cli
from vwschro.cli import ExperimentConfig, main, parse_config, run_experiment
from vwschro.errors import ConfigError

MINIMAL = """\
# minimal 1D free-particle experiment
problem.kind      = free_particle_1d
problem.dimension = 1
problem.T         = 1.0
problem.L         = 20.0
problem.points    = 256

regularization.scale = standard
regularization.net   = [0.2, 0.1, 0.05, 0.025]

solver.dt = 1e-3

analysis.tests = [plane_wave]

output.dir = "{outdir}"
"""

SHOWCASE = """\
problem.kind      = delta_showcase_1d
problem.dimension = 1
problem.T         = 0.5
problem.L         = 20.0
problem.points    = 2048

regularization.scale = standard
regularization.net   = [0.2, 0.1, 0.05, 0.025]

solver.dt    = 1e-3
solver.m_set = [0, 1, 2]

analysis.tests = [moderateness]

output.dir  = "{outdir}"
output.seed = 7
"""


class TestParseConfig:
    def test_minimal_roundtrip(self, tmp_path):
        text = MINIMAL.format(outdir=tmp_path / "out")
        cfg = parse_config(text)
        assert cfg.problem["kind"] == "free_particle_1d"
        assert cfg.regularization["net"] == [0.2, 0.1, 0.05, 0.025]
        # defaults documented and filled
        assert cfg.output["seed"] == 0
        assert cfg.solver["m_set"] == [0]
        assert cfg.raw_text == text

    def test_dimension_domain(self, tmp_path):
        text = MINIMAL.format(outdir=tmp_path).replace(
            "problem.dimension = 1", "problem.dimension = 3")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("dimension" in e for e in err.value.errors)

    def test_errors_aggregated(self, tmp_path):
        text = MINIMAL.format(outdir=tmp_path)
        text = text.replace("problem.dimension = 1", "problem.dimension = 3")
        text = text.replace("solver.dt = 1e-3", "solver.dt = -1")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.errors) >= 2

    def test_syntax_error_position(self):
        with pytest.raises(ConfigError) as err:
            parse_config("problem.kind free_particle_1d\n")
        assert "line 1" in err.value.errors[0]

    def test_duplicate_key(self, tmp_path):
        text = MINIMAL.format(outdir=tmp_path) + "\nproblem.T = 2.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("duplicate" in e for e in err.value.errors)

    def test_net_must_decrease(self, tmp_path):
        text = MINIMAL.format(outdir=tmp_path).replace(
            "[0.2, 0.1, 0.05, 0.025]", "[0.1, 0.2, 0.05, 0.025]")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_no_silent_physical_defaults(self, tmp_path):
        text = MINIMAL.format(outdir=tmp_path).replace(
            "problem.L         = 20.0\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("problem.L" in e for e in err.value.errors)

    def test_hash_stable(self, tmp_path):
        text = SHOWCASE.format(outdir=tmp_path)
        h1 = parse_config(text).hash
        h2 = parse_config(text).hash
        assert h1 == h2
        assert parse_config(text + "# trailing comment\n").hash != h1

    def test_shipped_configs_golden_hashes(self):
        # golden-file oracle on the example configs shipped with the repo
        root = Path(__file__).resolve().parent.parent / "demos" / "configs"
        golden = {
            "free_particle_1d.cfg": "6ebf70a6164e6949",
            "showcase_1d.cfg": "b46a3144d9d1808b",
        }
        for name, expected in golden.items():
            cfg = parse_config((root / name).read_text())
            assert cfg.hash == expected, name


class TestRunExperiment:
    def test_free_particle_exit_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config(MINIMAL.format(outdir=out))
        status, artifact = run_experiment(cfg)
        assert status == 0
        manifest = json.loads((artifact / "run_manifest.json").read_text())
        res = manifest["results"][0]
        assert res["analysis"] == "plane_wave"
        assert res["verdict"] is True
        assert res["max_err"] < 1e-10
        assert (artifact / "plane_wave.csv").exists()

    def test_showcase_moderateness_csv(self, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config(SHOWCASE.format(outdir=out))
        status, artifact = run_experiment(cfg)
        assert status == 0
        csv = (artifact / "moderateness" / "moderateness_000.csv").read_text()
        assert len(csv.strip().split("\n")) == 5  # header + 4 net rows

    def test_unwritable_dir_no_partial_files(self, tmp_path):
        # a regular file as path parent defeats mkdir for any user
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = blocker / "sub"
        cfg = parse_config(MINIMAL.format(outdir=target))
        status, _ = run_experiment(cfg)
        assert status != 0
        assert not target.exists()

    def test_reproducible_outputs(self, tmp_path):
        # every artifact of two runs of one config is byte-identical,
        # including the net analyses that share their per-point solves
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.format(outdir=tmp_path / "unused").replace(
            "analysis.tests = [plane_wave]",
            "analysis.tests = [plane_wave, moderateness, energy]\nsolver.m_set = [0, 1]"))
        for name in ("a", "b"):
            assert main(["run", str(cfg_path), "--output", str(tmp_path / name)]) == 0

        def files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        a, b = files(tmp_path / "a"), files(tmp_path / "b")
        assert Path("energy.csv") in a
        assert Path("moderateness/moderateness_001.csv") in a
        assert a == b

    def test_net_points_solved_once(self, tmp_path, monkeypatch):
        # moderateness and energy share the per-point solves, also when
        # more worker threads than cores fill the cache concurrently
        calls = []
        lock = threading.Lock()
        solve = cli.solve_original

        def counted(p, **kw):
            with lock:
                calls.append(p.eps)
            return solve(p, **kw)

        monkeypatch.setattr(cli, "solve_original", counted)
        cfg = parse_config(MINIMAL.format(outdir=tmp_path / "run").replace(
            "[plane_wave]", "[moderateness, energy]"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            status, _ = run_experiment(cfg, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert status == 0
        assert sorted(calls) == sorted(cfg.regularization["net"])


class TestMainVerbs:
    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.format(outdir=tmp_path / "out"))
        assert main(["validate", str(cfg_path)]) == 0
        assert "config valid" in capsys.readouterr().out

    def test_validate_reports_all_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        bad = MINIMAL.format(outdir=tmp_path).replace(
            "problem.dimension = 1", "problem.dimension = 3").replace(
            "solver.dt = 1e-3", "solver.dt = -1")
        cfg_path.write_text(bad)
        assert main(["validate", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") >= 2

    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "artifacts"
        cfg_path.write_text(MINIMAL.format(outdir=out))
        assert main(["run", str(cfg_path)]) == 0
        # regenerate plot scripts from existing CSVs
        assert main(["report", str(out)]) == 0
        assert (out / "plane_wave.gp").exists()
        gp = (out / "plane_wave.gp").read_text()
        assert "plane_wave.csv" in gp

    @pytest.mark.parametrize("kind,dim,tests", [
        ("showcase_2d", 2, "[moderateness]"),
        ("delta_showcase_1d", 1, "[garding]"),
        ("showcase_2d", 2, "[negligibility]"),
    ])
    def test_validate_rejects_what_run_cannot_do(self, tmp_path, capsys, kind, dim, tests):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SHOWCASE.format(outdir=tmp_path / "out")
                            .replace("delta_showcase_1d", kind)
                            .replace("problem.dimension = 1", f"problem.dimension = {dim}")
                            .replace("[moderateness]", tests))
        assert main(["validate", str(cfg_path)]) == 2
        assert "config error: analysis" in capsys.readouterr().err
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    #: the (kind, analysis) pairs a run can do; every other pair is refused
    SOLVABLE = {
        ("free_particle_1d", "plane_wave"), ("free_particle_2d", "plane_wave"),
        ("free_particle_1d", "moderateness"), ("free_particle_1d", "energy"),
        ("delta_showcase_1d", "moderateness"), ("delta_showcase_1d", "energy"),
        ("smooth_classical_1d", "moderateness"), ("smooth_classical_1d", "energy"),
        ("smooth_classical_1d", "negligibility"), ("smooth_classical_1d", "consistency"),
        ("showcase_2d", "garding"),
    }

    @pytest.mark.parametrize("analysis", ["plane_wave", "moderateness", "energy",
                                          "negligibility", "consistency", "garding"])
    @pytest.mark.parametrize("kind,dim", [
        ("free_particle_1d", 1), ("free_particle_2d", 2), ("delta_showcase_1d", 1),
        ("smooth_classical_1d", 1), ("showcase_2d", 2),
    ])
    def test_validate_accepts_exactly_the_solvable_pairs(self, tmp_path, capsys,
                                                         kind, dim, analysis):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SHOWCASE.format(outdir=tmp_path / "out")
                            .replace("delta_showcase_1d", kind)
                            .replace("problem.dimension = 1", f"problem.dimension = {dim}")
                            .replace("[moderateness]", f"[{analysis}]"))
        status = main(["validate", str(cfg_path)])
        if (kind, analysis) in self.SOLVABLE:
            assert status == 0
        else:
            assert status == 2
            assert f"config error: analysis '{analysis}'" in capsys.readouterr().err

    @pytest.mark.parametrize("analysis,kind", [
        ("moderateness", "delta_showcase_1d"), ("energy", "delta_showcase_1d"),
        ("negligibility", "smooth_classical_1d"), ("consistency", "smooth_classical_1d"),
    ])
    def test_net_analyses_need_four_net_points(self, tmp_path, capsys, analysis, kind):
        assert cli.ANALYSES[analysis].over_net
        cfg_path = tmp_path / "exp.cfg"
        text = (SHOWCASE.format(outdir=tmp_path / "out")
                .replace("delta_showcase_1d", kind)
                .replace("[moderateness]", f"[{analysis}]"))
        cfg_path.write_text(text)
        assert main(["validate", str(cfg_path)]) == 0
        cfg_path.write_text(text.replace("[0.2, 0.1, 0.05, 0.025]", "[0.2, 0.1, 0.05]"))
        assert main(["validate", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "require at least 4 net points" in err
        assert analysis in err

    def test_module_entry_point_without_runtime_warning(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vwschro.cli",
             "validate", "demos/configs/free_particle_1d.cfg"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_output_override(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.format(outdir=tmp_path / "ignored"))
        target = tmp_path / "override"
        assert main(["run", str(cfg_path), "--output", str(target)]) == 0
        assert (target / "run_manifest.json").exists()
        assert not (tmp_path / "ignored").exists()
