import hashlib
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from thermosim.cli import main


def run_cli(args):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def artifact_hashes(out_dir):
    doc = json.loads((out_dir / "manifest.json").read_text())
    return doc["artifacts"]


def run_twice_and_compare(tmp_path, subcommand, cfg):
    """Golden-manifest check: identical config => identical artifact hashes."""
    hashes = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg_path = write_config(tmp_path, f"cfg_{tag}.yaml",
                                {**cfg, "output_dir": str(out)})
        result = run_cli([subcommand, cfg_path])
        assert result.exit_code == 0, result.output
        hashes.append(artifact_hashes(out))
    assert hashes[0] == hashes[1]
    return hashes[0]


class TestSimulate:
    def cfg(self):
        return {"seed": 1, "model": {"vp": {"beta": 2.0, "dim": 1}},
                "tf": 0.5, "dt": 0.01, "n_traj": 50,
                "initial": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}}

    def test_smoke_and_determinism(self, tmp_path):
        h = run_twice_and_compare(tmp_path, "simulate", self.cfg())
        assert set(h) == {"trajectory.csv", "moments.json", "oracle_moments.json"}

    def test_missing_seed_exit_2(self, tmp_path):
        cfg = self.cfg()
        del cfg["seed"]
        path = write_config(tmp_path, "c.yaml", {**cfg, "output_dir": str(tmp_path / "o")})
        result = run_cli(["simulate", path])
        assert result.exit_code == 2

    def test_missing_field_names_path(self, tmp_path):
        cfg = self.cfg()
        del cfg["tf"]
        path = write_config(tmp_path, "c.yaml", {**cfg, "output_dir": str(tmp_path / "o")})
        runner = CliRunner(mix_stderr=False) if hasattr(CliRunner, "mix_stderr") \
            else CliRunner()
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2

    def test_divergence_exit_3(self, tmp_path):
        cfg = {"seed": 1, "model": {"A0": [[50.0]], "b0": [0.0], "C0": [[0.0]]},
               "tf": 10.0, "dt": 0.5,
               "initial": {"kind": "fixed", "v0": [1.0]},
               "output_dir": str(tmp_path / "o")}
        path = write_config(tmp_path, "c.yaml", cfg)
        result = run_cli(["simulate", path])
        assert result.exit_code == 3

    def test_oracle_starts_at_initial_covariance(self, tmp_path):
        cfg = {"seed": 1, "model": {"vp": {"beta": 2.0, "dim": 2}},
               "tf": 0.1, "dt": 0.01, "n_traj": 20,
               "initial": {"kind": "gaussian", "mean": [0.0, 1.0],
                           "cov": [[1.0, 0.3], [0.3, 0.5]]},
               "output_dir": str(tmp_path / "o")}
        assert run_cli(["simulate", write_config(tmp_path, "c.yaml", cfg)]).exit_code == 0
        oracle = json.loads((tmp_path / "o" / "oracle_moments.json").read_text())
        assert oracle["cov"][0] == cfg["initial"]["cov"]
        assert oracle["mean"][0] == cfg["initial"]["mean"]

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = self.cfg()
        out1, out2 = tmp_path / "1", tmp_path / "2"
        p = write_config(tmp_path, "c.yaml", cfg)
        assert run_cli(["simulate", p, "--output-dir", str(out1)]).exit_code == 0
        assert run_cli(["simulate", p, "--output-dir", str(out2),
                        "--seed", "99"]).exit_code == 0
        assert (artifact_hashes(out1)["trajectory.csv"]
                != artifact_hashes(out2)["trajectory.csv"])


class TestSamplers:
    def test_sghmc(self, tmp_path):
        cfg = {"seed": 3, "target": {"kind": "gaussian", "mean": [0.0],
                                     "cov": [[1.0]]},
               "n_steps": 500, "dt": 0.05}
        h = run_twice_and_compare(tmp_path, "sghmc", cfg)
        assert "chain.csv" in h

    def test_sgld(self, tmp_path):
        cfg = {"seed": 3, "target": {"kind": "gaussian", "mean": [0.0],
                                     "cov": [[1.0]]},
               "n_steps": 500, "step_size": 0.01}
        run_twice_and_compare(tmp_path, "sgld", cfg)

    def test_hmc_metrics_include_acceptance(self, tmp_path):
        cfg = {"seed": 3, "target": {"kind": "gaussian", "mean": [0.0],
                                     "cov": [[1.0]]},
               "n_iter": 200, "step": 0.5, "output_dir": str(tmp_path / "o")}
        path = write_config(tmp_path, "c.yaml", cfg)
        assert run_cli(["hmc", path]).exit_code == 0
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert 0.0 <= metrics["acceptance_rate"] <= 1.0
        run_twice_and_compare(tmp_path, "hmc", {k: v for k, v in cfg.items()
                                                if k != "output_dir"})

    def test_anneal(self, tmp_path):
        cfg = {"seed": 5, "loss": {"kind": "double_well", "dim": 1},
               "n_steps": 2000, "dt": 0.01, "output_dir": str(tmp_path / "o")}
        path = write_config(tmp_path, "c.yaml", cfg)
        assert run_cli(["anneal", path]).exit_code == 0
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert "best_x" in metrics

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_anneal_divergence_exit_3(self, tmp_path):
        cfg = {"seed": 1, "loss": {"kind": "double_well", "dim": 2}, "dt": 0.5,
               "output_dir": str(tmp_path / "o")}
        result = run_cli(["anneal", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 3
        assert not (tmp_path / "o" / "metrics.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sghmc_divergence_exit_3(self, tmp_path):
        cfg = {"seed": 0, "target": {"kind": "double_well", "dim": 1}, "dt": 0.5,
               "x0": [2.0], "output_dir": str(tmp_path / "o")}
        result = run_cli(["sghmc", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 3
        assert "sghmc chain diverged at step" in result.output
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_sample_diffusion(self, tmp_path):
        cfg = {"seed": 2, "dim": 1, "kind": "vp", "T": 1.0, "beta": 2.0,
               "dt": 0.01, "n_samples": 200,
               "score": {"kind": "analytic_gaussian", "mean": [2.0],
                         "cov": [[0.25]]}}
        run_twice_and_compare(tmp_path, "sample-diffusion", cfg)


class TestSBitCommand:
    def test_smoke_and_determinism(self, tmp_path):
        cfg = {"seed": 7, "T": 20.0, "lambda0": 1.0, "lambda1": 3.0, "x0": 0}
        h = run_twice_and_compare(tmp_path, "sbit", cfg)
        assert set(h) == {"trajectory.csv", "metrics.json"}


class TestCompileCircuit:
    def test_two_cell_example_printed(self, tmp_path):
        netlist = {"cells": [{"R": 1.0, "C": 1.0, "T": 300.0},
                             {"R": 1.0, "C": 1.0, "T": 300.0}],
                   "couplings": [{"i": 0, "j": 1, "kind": "resistive",
                                  "value": 1.0}]}
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(netlist))
        cfg = {"seed": 0, "netlist": str(net_path),
               "output_dir": str(tmp_path / "o")}
        path = write_config(tmp_path, "c.yaml", cfg)
        result = run_cli(["compile-circuit", path])
        assert result.exit_code == 0
        a0 = np.loadtxt(tmp_path / "o" / "A0.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(a0, [[-2.0, 1.0], [1.0, -2.0]])
        run_twice_and_compare(tmp_path, "compile-circuit",
                              {"seed": 0, "netlist": str(net_path)})


class TestTrainDemon:
    def test_train_and_reuse_checkpoint(self, tmp_path):
        cfg = {"seed": 1, "data": {"kind": "gaussian", "mean": [2.0],
                                   "cov": [[0.25]]},
               "beta": 2.0, "T": 1.0,
               "train": {"steps": 30, "learning_rate": 1e-3, "batch_size": 16}}
        h = run_twice_and_compare(tmp_path, "train-demon", cfg)
        assert set(h) == {"demon.json", "loss.csv"}
        # sampling from the saved checkpoint works end to end
        demon_path = tmp_path / "a" / "demon.json"
        s_cfg = {"seed": 2, "dim": 1, "kind": "vp", "T": 1.0, "beta": 2.0,
                 "dt": 0.05, "n_samples": 50,
                 "score": {"kind": "checkpoint", "path": str(demon_path)},
                 "output_dir": str(tmp_path / "samp")}
        path = write_config(tmp_path, "s.yaml", s_cfg)
        assert run_cli(["sample-diffusion", path]).exit_code == 0


class TestRollouts:
    def test_nsde_rollout(self, tmp_path):
        cfg = {"seed": 4, "hidden_dim": 2, "T": 0.5, "dt": 0.01,
               "sigma": 0.1, "inputs": [[1.0, 0.0], [0.0, 1.0]]}
        h = run_twice_and_compare(tmp_path, "nsde-rollout", cfg)
        assert set(h) == {"weights.csv", "hidden_final.csv"}

    def test_latent_rollout(self, tmp_path):
        cfg = {"seed": 4, "model": {"A0": [[-1.0]], "b0": [0.5], "C0": [[0.2]]},
               "h0": [1.0], "checkpoints": [0.25, 0.5, 1.0], "dt": 0.01}
        h = run_twice_and_compare(tmp_path, "latent-rollout", cfg)
        assert set(h) == {"readouts.csv"}


def test_manifest_records_version_and_config(tmp_path):
    import thermosim
    cfg = {"seed": 1, "model": {"vp": {"beta": 2.0, "dim": 1}},
           "tf": 0.1, "dt": 0.01, "output_dir": str(tmp_path / "o")}
    path = write_config(tmp_path, "c.yaml", cfg)
    assert run_cli(["simulate", path]).exit_code == 0
    doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert doc["version"] == thermosim.__version__
    assert doc["config"]["seed"] == 1
    # recorded hashes actually match the files on disk
    for name, digest in doc["artifacts"].items():
        actual = hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
        assert actual == digest
