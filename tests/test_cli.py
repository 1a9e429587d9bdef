import hashlib
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from thermosim import cli, core_sde
from thermosim.cli import main
from thermosim.demon import ScoreNetworkDemon


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

    def test_oracle_bytes_are_its_stacked_rows(self, tmp_path):
        """oracle_moments.json holds the oracle's rows stacked into three
        arrays, written by write_compact_json, as when the oracle was a list."""
        A0, b0 = [[-1.0, 0.3, 0.0], [0.1, -0.7, 0.2], [0.0, -0.2, -0.4]], [0.2, -0.1, 0.5]
        C0 = [[0.5, 0.0, 0.0], [0.1, 0.3, 0.0], [0.0, 0.2, 0.6]]
        cfg = {"seed": 2, "model": {"A0": A0, "b0": b0, "C0": C0},
               "t0": 0.1, "tf": 0.6, "dt": 0.01, "n_traj": 5,
               "initial": {"kind": "gaussian", "mean": [1.0, -2.0, 0.5],
                           "cov": [[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]]},
               "output_dir": str(tmp_path / "o")}
        assert run_cli(["simulate", write_config(tmp_path, "c.yaml", cfg)]).exit_code == 0
        rows = core_sde.propagate_moments(core_sde.SDEModel(A0, b0, C0), None,
                                          cfg["initial"]["mean"], cfg["initial"]["cov"],
                                          0.1, 0.6, 0.01)
        core_sde.write_compact_json(tmp_path / "stacked.json", {
            "times": np.array([m.t for m in rows]), "mean": np.array([m.mean for m in rows]),
            "cov": np.array([m.cov for m in rows])})
        assert ((tmp_path / "o" / "oracle_moments.json").read_bytes()
                == (tmp_path / "stacked.json").read_bytes())

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = self.cfg()
        out1, out2 = tmp_path / "1", tmp_path / "2"
        p = write_config(tmp_path, "c.yaml", cfg)
        assert run_cli(["simulate", p, "--output-dir", str(out1)]).exit_code == 0
        assert run_cli(["simulate", p, "--output-dir", str(out2),
                        "--seed", "99"]).exit_code == 0
        assert (artifact_hashes(out1)["trajectory.csv"]
                != artifact_hashes(out2)["trajectory.csv"])


class TestExitCodes:
    """Exit 2 names the config field at fault; any other library fault exits
    1 with one line naming its type (exit 3 is tested per subcommand)."""

    def run_simulate(self, tmp_path, **changes):
        cfg = {**TestSimulate().cfg(), **changes, "output_dir": str(tmp_path / "o")}
        return run_cli(["simulate", write_config(tmp_path, "c.yaml", cfg)])

    @pytest.mark.parametrize("changes, field", [
        ({"tf": "abc"}, "tf"),
        ({"initial": "oops"}, "initial"),
        ({"model": {"A0": [[-1.0, 0.0], [0.0]], "b0": [0.0, 0.0],
                    "C0": [[1.0, 0.0], [0.0, 1.0]]}}, "model.A0"),
    ])
    def test_bad_field_exit_2_names_field(self, tmp_path, changes, field):
        result = self.run_simulate(tmp_path, **changes)
        assert result.exit_code == 2
        assert f"config field {field}" in result.output

    @pytest.mark.parametrize("initial, field", [
        ({"kind": "gaussian", "mean": [0.0, 0.0], "cov": np.eye(3).tolist()}, "initial.cov"),
        ({"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]]},
         "initial.cov"),
        ({"kind": "gaussian", "mean": [0.0], "cov": np.eye(2).tolist()}, "initial.mean"),
        ({"kind": "fixed", "v0": [0.0, 0.0, 0.0]}, "initial.v0"),
    ])
    def test_misfit_initial_state_exit_2_before_running(self, tmp_path, initial, field):
        """On a 2-dim model a 3x3 cov used to exit 1 at the first trajectory,
        and an asymmetric one exit 2 only after the whole ensemble had run."""
        result = self.run_simulate(tmp_path, model={"vp": {"beta": 2.0, "dim": 2}},
                                   initial=initial)
        assert result.exit_code == 2
        assert f"config field {field}" in result.output
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_singular_covariance_exit_2(self, tmp_path):
        result = self.run_simulate(tmp_path, initial={"kind": "gaussian", "mean": [0.0],
                                                      "cov": [[0.0]]})
        assert result.exit_code == 2
        assert "SPD" in result.output
        cfg = {"seed": 0, "target": {"kind": "gaussian", "mean": [0.0], "cov": [[0.0]]},
               "n_iter": 5, "output_dir": str(tmp_path / "h")}
        result = run_cli(["hmc", write_config(tmp_path, "h.yaml", cfg)])
        assert result.exit_code == 2
        assert "SPD" in result.output

    GAUSS = {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}
    ASYMMETRIC = [[1.0, 0.9], [0.0, 1.0]]
    TRAIN = {"seed": 1, "data": {"kind": "gaussian", "mean": [2.0], "cov": [[0.25]]},
             "train": {"mode": "in_situ", "steps": 2, "batch_size": 4}}

    @pytest.mark.parametrize("command, cfg, words", [
        ("simulate", {**TestSimulate().cfg(), "dt": float("nan")}, "field dt must be finite"),
        ("simulate", {**TestSimulate().cfg(), "seed": True}, "seed must be an integer"),
        ("simulate", {**TestSimulate().cfg(), "n_traj": -1},
         "field n_traj must be a nonnegative integer"),
        ("sghmc", {"seed": 0, "target": GAUSS, "n_steps": 1}, "metrics need 2 samples"),
        ("sgld", {"seed": 0, "target": GAUSS, "n_steps": 5, "burn_in": 2.5},
         "burn_in must lie in [0, 1)"),
        ("hmc", {"seed": 0, "target": GAUSS, "n_iter": 5, "mass": [[0.0]]},
         "mass matrix must be SPD"),
        ("hmc", {"seed": 0, "target": GAUSS, "n_iter": 5, "x0": [0.0, 0.0]},
         "x0 must be finite, of length 1"),
        ("hmc", {"seed": 0, "target": GAUSS, "n_iter": 0}, "at least one iteration"),
        ("anneal", {"seed": 0, "loss": {"kind": "double_well", "dim": 0}},
         "dimension must be at least 1"),
        ("nsde-rollout", {"seed": 0, "hidden_dim": 2, "inputs": [[1.0, 0.0]], "w0": [0.0]},
         "w0 must be finite, of length 4"),
        ("latent-rollout", {"seed": 0, "model": {"A0": [[-1.0]], "b0": [0.0], "C0": [[1.0]]},
                            "h0": [1.0], "checkpoints": [0.5], "dt": 0.0},
         "dt must be finite and positive, got 0.0"),
        ("sample-diffusion", {"seed": 0, "kind": "vq", "score": {"kind": "analytic_gaussian",
                                                                 "mean": [0.0], "cov": [[1.0]]}},
         "kind must be 'vp' or 've'"),
        ("train-demon", {**TRAIN, "model": {"vp": {"dim": 2}}}, "dimensions differ"),
        ("train-demon", {**TRAIN, "model": {"vp": {"beta": 0.0}}},
         "kernel covariance must be SPD"),
        ("anneal", {"seed": 0, "loss": {"kind": "double_well", "dim": 2}, "S": np.eye(3).tolist(),
                    "n_steps": 10}, "S must be a lower-triangular 2x2 matrix"),
        ("hmc", {"seed": 0, "target": {**GAUSS, "mean": [0.0, 0.0], "cov": ASYMMETRIC},
                 "n_iter": 5}, "covariance must be symmetric within 1e-10"),
        ("train-demon", {**TRAIN, "data": {**GAUSS, "mean": [0.0, 0.0], "cov": ASYMMETRIC}},
         "covariance must be symmetric within 1e-10"),
        ("sample-diffusion", {"seed": 0, "dim": 3, "score": {
            "kind": "analytic_gaussian", "mean": [0.0, 0.0], "cov": np.eye(2).tolist()}},
         "config field score.mean must fit dim 3, got shape (2,)"),
        ("sample-diffusion", {"seed": 0, "dim": 1, "score": {
            "kind": "analytic_gaussian", "mean": [0.0, 0.0], "cov": np.eye(2).tolist()}},
         "config field score.mean must fit dim 1, got shape (2,)"),
        ("sample-diffusion", {"seed": 0, "dim": 2, "score": {
            "kind": "analytic_gaussian", "mean": [0.0, 0.0], "cov": np.eye(3).tolist()}},
         "config field score.cov must fit dim 2, got shape (3, 3)"),
        ("sgld", {"seed": 0, "n_steps": 10, "target": {
            "kind": "mixture", "weights": [0.5, 0.5], "means": [[0.0], [1.0], [2.0]],
            "covs": [[[1.0]], [[1.0]]]}}, "got weights 2, means 3, covs 2"),
        ("sgld", {"seed": 0, "n_steps": 10, "target": {
            "kind": "mixture", "weights": [0.5, 0.5], "means": [[0.0], [1.0]],
            "covs": [[[1.0]], [[1.0]], [[1.0]]]}}, "got weights 2, means 2, covs 3"),
        ("sghmc", {"seed": 0, "target": GAUSS, "n_steps": 10, "dt": 0.0},
         "dt must be finite and positive, got 0.0"),
        ("sghmc", {"seed": 0, "target": GAUSS, "n_steps": 10, "dt": -0.1},
         "dt must be finite and positive, got -0.1"),
        ("anneal", {"seed": 0, "loss": {"kind": "double_well", "dim": 1}, "n_steps": 10,
                    "dt": 0.0}, "dt must be finite and positive, got 0.0"),
        ("anneal", {"seed": 0, "loss": {"kind": "double_well", "dim": 1}, "n_steps": 10,
                    "dt": -0.1}, "dt must be finite and positive, got -0.1"),
    ])
    def test_out_of_range_exit_2(self, tmp_path, command, cfg, words):
        path = write_config(tmp_path, "c.yaml", {**cfg, "output_dir": str(tmp_path / "o")})
        result = run_cli([command, path])
        assert result.exit_code == 2, result.output
        assert words in result.output

    GAUSS_SCORE = {"kind": "analytic_gaussian", "mean": [0.0], "cov": [[1.0]]}

    def test_zero_samples_exit_2_before_sampling(self, tmp_path):
        cfg = {"seed": 0, "n_samples": 0, "dt": 0.1, "score": self.GAUSS_SCORE,
               "output_dir": str(tmp_path / "o")}
        result = run_cli(["sample-diffusion", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 2, result.output
        assert "n_samples must be an integer of at least 1, got 0" in result.output
        assert not (tmp_path / "o" / "samples.csv").exists()

    def test_checkpoint_dimension_mismatch_exit_2(self, tmp_path):
        """A 2-dim checkpoint under dim 1 used to exit 1 on a matmul error."""
        (tmp_path / "demon.json").write_text(json.dumps(ScoreNetworkDemon(2, hidden=(8,))
                                                        .to_dict()))
        cfg = {"seed": 0, "dim": 1, "n_samples": 10, "dt": 0.1,
               "score": {"kind": "checkpoint", "path": str(tmp_path / "demon.json")},
               "output_dir": str(tmp_path / "o")}
        result = run_cli(["sample-diffusion", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 2, result.output
        assert "config field score.path: checkpoint dim 2 != dim 1" in result.output

    def test_nonfinite_unread_field_exit_2_before_run(self, tmp_path):
        """No subcommand reads ``extra``, but the manifest records it, and
        strict JSON has no NaN."""
        cfg = {"seed": 7, "T": 5.0, "lambda0": 1.0, "lambda1": 3.0, "extra": float("nan"),
               "output_dir": str(tmp_path / "o")}
        result = run_cli(["sbit", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 2, result.output
        assert "config field extra must be finite" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError("Singular matrix"), KeyError("x")])
    def test_library_fault_exit_1_names_type(self, tmp_path, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "simulate_ensemble", broken)
        result = self.run_simulate(tmp_path)
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"error: {type(exc).__name__}: {exc}"]
        assert not (tmp_path / "o" / "manifest.json").exists()


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

    def test_hmc_nan_proposals_rejected(self, tmp_path):
        """Every leapfrog trajectory of this step size overflows; the chain
        stays at x0 instead of turning NaN and failing the JSON writer."""
        cfg = {"seed": 0, "target": {"kind": "double_well", "dim": 2}, "n_leapfrog": 10,
               "step": 2.0, "n_iter": 50, "x0": [0.5, 0.5], "output_dir": str(tmp_path / "o")}
        result = run_cli(["hmc", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert metrics["acceptance_rate"] == 0.0
        chain = np.loadtxt(tmp_path / "o" / "chain.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(chain, 0.5)

    def test_hmc_nonfinite_start_exit_2(self, tmp_path):
        cfg = {"seed": 0, "target": {"kind": "gaussian", "mean": [0.0, 0.0],
                                     "cov": [[1.0, 0.0], [0.0, 1.0]]},
               "n_iter": 20, "x0": [float("nan"), 0.0], "output_dir": str(tmp_path / "o")}
        result = run_cli(["hmc", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 2
        assert "x0 must be finite" in result.output

    def test_anneal(self, tmp_path):
        cfg = {"seed": 5, "loss": {"kind": "double_well", "dim": 1},
               "n_steps": 2000, "dt": 0.01, "output_dir": str(tmp_path / "o")}
        path = write_config(tmp_path, "c.yaml", cfg)
        assert run_cli(["anneal", path]).exit_code == 0
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert "best_x" in metrics

    def test_anneal_divergence_exit_3(self, tmp_path):
        cfg = {"seed": 1, "loss": {"kind": "double_well", "dim": 2}, "dt": 0.5,
               "output_dir": str(tmp_path / "o")}
        result = run_cli(["anneal", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 3
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_sghmc_divergence_exit_3(self, tmp_path):
        cfg = {"seed": 0, "target": {"kind": "double_well", "dim": 1}, "dt": 0.5,
               "x0": [2.0], "output_dir": str(tmp_path / "o")}
        result = run_cli(["sghmc", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 3
        assert "sghmc chain diverged at step" in result.output
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_sgld_finite_runaway_exit_3(self, tmp_path):
        """The chain reaches |x| ~ 1e23 in 40 steps without overflowing."""
        cfg = {"seed": 0, "target": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
               "step_size": 10.0, "n_steps": 40, "output_dir": str(tmp_path / "o")}
        result = run_cli(["sgld", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 3, result.output
        assert "sgld chain diverged at step" in result.output
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_sample_diffusion(self, tmp_path):
        cfg = {"seed": 2, "dim": 1, "kind": "vp", "T": 1.0, "beta": 2.0,
               "dt": 0.01, "n_samples": 200,
               "score": {"kind": "analytic_gaussian", "mean": [2.0],
                         "cov": [[0.25]]}}
        run_twice_and_compare(tmp_path, "sample-diffusion", cfg)

    def test_sample_diffusion_ve_analytic(self, tmp_path):
        cfg = {"seed": 2, "dim": 1, "kind": "ve", "T": 4.0, "c0": 1.0,
               "dt": 0.01, "n_samples": 400,
               "score": {"kind": "analytic_gaussian", "mean": [2.0],
                         "cov": [[0.25]]}}
        run_twice_and_compare(tmp_path, "sample-diffusion", cfg)
        samples = np.loadtxt(tmp_path / "a" / "samples.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(samples))
        assert abs(samples.mean() - 2.0) < 0.3

    def test_sample_diffusion_divergence_exit_3(self, tmp_path):
        demon = ScoreNetworkDemon(2, hidden=(8,))
        doc = demon.to_dict()
        doc["net"]["weights"][-1] = (np.array(doc["net"]["weights"][-1]) * 1e300).tolist()
        (tmp_path / "demon.json").write_text(json.dumps(doc))
        cfg = {"seed": 1, "dim": 2, "n_samples": 10, "dt": 0.01,
               "score": {"kind": "checkpoint", "path": str(tmp_path / "demon.json")},
               "output_dir": str(tmp_path / "o")}
        result = run_cli(["sample-diffusion", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 3, result.output
        assert "diverged at step 1, t=0.01" in result.output
        assert not (tmp_path / "o" / "metrics.json").exists()


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

    def test_unknown_mode_exit_2(self, tmp_path):
        cfg = {"seed": 1, "data": {"kind": "gaussian", "mean": [2.0], "cov": [[0.25]]},
               "train": {"mode": "nope", "steps": 3}, "output_dir": str(tmp_path / "o")}
        result = run_cli(["train-demon", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 2
        assert "train.mode" in result.output


class TestRollouts:
    def test_nsde_rollout(self, tmp_path):
        cfg = {"seed": 4, "hidden_dim": 2, "T": 0.5, "dt": 0.01,
               "sigma": 0.1, "inputs": [[1.0, 0.0], [0.0, 1.0]]}
        h = run_twice_and_compare(tmp_path, "nsde-rollout", cfg)
        assert set(h) == {"weights.csv", "hidden_final.csv"}

    def test_nsde_rollout_divergence_exit_3(self, tmp_path):
        cfg = {"seed": 1, "hidden_dim": 2, "T": 1.0, "dt": 0.01, "sigma": 1e308,
               "weight_drift": "zero", "inputs": [[1, 2], [3, 4]],
               "output_dir": str(tmp_path / "o")}
        result = run_cli(["nsde-rollout", write_config(tmp_path, "c.yaml", cfg)])
        assert result.exit_code == 3, result.output
        assert "diverged at step 1, t=0.01" in result.output
        assert not (tmp_path / "o" / "weights.csv").exists()

    def test_latent_rollout(self, tmp_path):
        cfg = {"seed": 4, "model": {"A0": [[-1.0]], "b0": [0.5], "C0": [[0.2]]},
               "h0": [1.0], "checkpoints": [0.25, 0.5, 1.0], "dt": 0.01}
        h = run_twice_and_compare(tmp_path, "latent-rollout", cfg)
        assert set(h) == {"readouts.csv"}


class TestGatePrograms:
    """A program.json that does not fit the 2-dim model, or holds a non-finite
    generator or a non-boolean compose, is a config error naming what is wrong."""

    MODEL = {"A0": [[-1.0, 0.0], [0.0, -1.0]], "b0": [0.0, 0.0],
             "C0": [[1.0, 0.0], [0.0, 1.0]]}
    CONFIGS = {
        "simulate": {"seed": 1, "model": MODEL, "tf": 1.0, "dt": 0.1, "n_traj": 4,
                     "initial": {"kind": "fixed", "v0": [1.0, 0.0]}},
        "latent-rollout": {"seed": 1, "model": MODEL, "h0": [1.0, 0.0],
                           "checkpoints": [0.5, 1.0], "dt": 0.1},
    }

    @staticmethod
    def segment(form, payload, t_start=0.0, t_end=1.0, target="drift_super"):
        return {"target": target, "t_start": t_start, "t_end": t_end, "form": form,
                "payload": payload}

    def run(self, tmp_path, command, segments, compose=True):
        program = tmp_path / "program.json"
        program.write_text(json.dumps({"segments": segments, "compose": compose}))
        cfg = {**self.CONFIGS[command], "program": str(program),
               "output_dir": str(tmp_path / "o")}
        return run_cli([command, write_config(tmp_path, "c.yaml", cfg)])

    @pytest.mark.parametrize("command", ["simulate", "latent-rollout"])
    def test_fitting_program_runs(self, tmp_path, command):
        segments = [self.segment("dense", (-0.1 * np.eye(4)).tolist(), 0.0, 0.5),
                    self.segment("diagonal", [0.1, 0.0, 0.0, 0.2], 0.5, 1.0),
                    self.segment("scalar", 0.3, target="drift_vec")]
        assert self.run(tmp_path, command, segments).exit_code == 0

    @pytest.mark.parametrize("command", ["simulate", "latent-rollout"])
    @pytest.mark.parametrize("segments, words", [
        ([segment("dense", np.zeros((2, 2)).tolist())], "drift_super operator has size 2"),
        ([segment("diagonal", [0.0] * 3)], "drift_super operator has size 3"),
        ([segment("dense", np.zeros((4, 4)).tolist(), 0.0, 0.5),
          segment("diagonal", [0.0] * 3, 0.5, 1.0)], "drift_super segments have operator sizes"),
        ([segment("scalar", float("nan"))], "drift_super scalar generator must be a finite"),
        ([segment("diagonal", [0.0, float("inf"), 0.0, 0.0], target="diffusion_super")],
         "diffusion_super diagonal generator must be a finite"),
    ], ids=["dense", "diagonal", "mixed", "nan", "inf"])
    def test_misfit_program_exit_2(self, tmp_path, command, segments, words):
        result = self.run(tmp_path, command, segments)
        assert result.exit_code == 2, result.output
        assert words in result.output

    @pytest.mark.parametrize("command", ["simulate", "latent-rollout"])
    def test_short_program_exit_2_before_any_artifact(self, tmp_path, command):
        """simulate used to step past a program ending before tf, write
        trajectory.csv and moments.json, and only then exit 2 in the oracle."""
        result = self.run(tmp_path, command, [self.segment("scalar", 0.3, 0.0, 0.95,
                                                           target="drift_vec")])
        assert result.exit_code == 2, result.output
        assert "gate program domain [0, 0.95] does not cover the grid [0, 1]" in result.output
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("compose", ["false", {"drift_super": "false"}])
    def test_non_boolean_compose_exit_2(self, tmp_path, compose):
        result = self.run(tmp_path, "simulate", [self.segment("scalar", 0.1)], compose)
        assert result.exit_code == 2, result.output
        assert "compose must be a bool" in result.output


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


def _row_by_row_csv(path, chain, header=None):
    """The chain writer as it was: one formatted write per row."""
    chain = np.atleast_2d(np.asarray(chain, dtype=float))
    if header is None:
        header = ["x%d" % (j + 1) for j in range(chain.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in chain:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


@pytest.mark.parametrize("shape", [(1, 1), (3000, 2), (700, 16), (5,)])
def test_chain_csv_bytes_unchanged(tmp_path, shape):
    """Block-wise formatting writes the bytes the row-by-row writer wrote,
    signed zeros, subnormals and values near the float limits included."""
    rng = np.random.default_rng(0)
    chain = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = np.array([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308, 0.1, -2.5])
    flat = chain.reshape(-1)
    flat[:min(flat.size, special.size)] = special[:flat.size]
    core_sde.write_csv(tmp_path / "new.csv", chain)
    _row_by_row_csv(tmp_path / "old.csv", chain)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    header = ["t"] + [f"h{j}" for j in range(np.atleast_2d(chain).shape[1] - 1)]
    core_sde.write_csv(tmp_path / "new_h.csv", chain, header=header)
    _row_by_row_csv(tmp_path / "old_h.csv", chain, header=header)
    assert (tmp_path / "new_h.csv").read_bytes() == (tmp_path / "old_h.csv").read_bytes()


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_loader_builds_the_same_configs(tmp_path):
    """The CLI parses configs with libyaml when it can; the resolver and
    constructor are the pure-Python ones, so the objects are the same."""
    configs = [TestSimulate().cfg(),
               {"seed": 3, "target": {"kind": "mixture", "weights": [0.4, 0.6],
                                      "means": [[-0.5, 0.3], [0.5, -0.3]],
                                      "covs": [[[0.4, 0.0], [0.0, 0.5]]] * 2},
                "n_steps": 500, "dt": 0.05, "burn_in": 0.2, "x0": None},
               {"seed": 7, "T": 20.0, "lambda0": 1.0, "lambda1": 3.0, "x0": 0,
                "train": {"mode": "in_situ", "steps": 30, "learning_rate": 1e-3}}]
    texts = [yaml.safe_dump(cfg) for cfg in configs]
    texts.append("seed: 5\ndt: 1e-3\nrate: 2.5e+1\nflag: yes\nname: 'x0'\n"
                 "when: 2001-12-14\nitems: [1, -2.0, .inf, null]\n")
    for i, text in enumerate(texts):
        path = tmp_path / f"c{i}.yaml"
        path.write_text(text)
        pure = yaml.load(text, Loader=yaml.SafeLoader)
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert repr(fast) == repr(pure)
        assert repr(cli._load_config(path)) == repr(pure)


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


ARTIFACT_CONFIGS = {
    "simulate": TestSimulate().cfg(),
    "sample-diffusion": {"seed": 2, "dim": 1, "dt": 0.05, "n_samples": 20,
                         "score": {"kind": "analytic_gaussian", "mean": [2.0],
                                   "cov": [[0.25]]}},
    "sghmc": {"seed": 3, "target": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
              "n_steps": 100, "dt": 0.05},
    "sgld": {"seed": 3, "target": {"kind": "double_well", "dim": 2}, "n_steps": 100},
    "hmc": {"seed": 3, "target": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
            "n_iter": 20},
    "anneal": {"seed": 5, "loss": {"kind": "double_well", "dim": 1}, "n_steps": 100},
    "sbit": {"seed": 7, "T": 5.0, "lambda0": 1.0, "lambda1": 3.0, "x0": 0},
    "compile-circuit": {"seed": 0, "cell": {"R": 1.0, "C": 1.0, "T": 300.0}},
    "train-demon": {"seed": 1, "data": {"kind": "gaussian", "mean": [2.0], "cov": [[0.25]]},
                    "train": {"steps": 5, "batch_size": 8}},
    "nsde-rollout": {"seed": 4, "hidden_dim": 2, "T": 0.1, "dt": 0.01,
                     "inputs": [[1.0, 0.0], [0.0, 1.0]]},
    "latent-rollout": {"seed": 4, "model": {"A0": [[-1.0]], "b0": [0.5], "C0": [[0.2]]},
                       "h0": [1.0], "checkpoints": [0.25, 0.5], "dt": 0.05},
}


def test_artifact_configs_cover_every_subcommand():
    assert set(ARTIFACT_CONFIGS) == set(main.commands)


@pytest.mark.parametrize("command", sorted(ARTIFACT_CONFIGS))
def test_artifacts_are_lf_csv_and_strict_json(tmp_path, command):
    """Every artifact a subcommand lists, and its manifest, has LF line ends
    only; CSVs parse as numbers (an s-bit trajectory's state_bits column as
    bit strings) and JSON parses with NaN and infinities refused."""
    out = tmp_path / "o"
    cfg = {**ARTIFACT_CONFIGS[command], "output_dir": str(out)}
    result = run_cli([command, write_config(tmp_path, "c.yaml", cfg)])
    assert result.exit_code == 0, result.output
    for name in [*artifact_hashes(out), "manifest.json"]:
        text = (out / name).read_bytes().decode()
        assert "\r" not in text, name
        if name.endswith(".json"):
            json.loads(text, parse_constant=_reject_constant)
        elif text.startswith("t,state_bits\n"):
            rows = [line.split(",") for line in text.splitlines()[1:]]
            assert all(np.isfinite(float(t)) and set(bits) <= {"0", "1"}
                       for t, bits in rows), name
        else:
            assert np.all(np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1,
                                                 ndmin=2))), name
