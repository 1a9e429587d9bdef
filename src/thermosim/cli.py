"""Experiment runner: YAML configs in, reproducible CSV/JSON artifacts out.

Every subcommand reads one config file, requires an explicit seed (no
wall-clock seeding), writes its artifacts plus a manifest.json recording the
resolved config, package version, and artifact hashes.  Exit codes: 0
success, 2 config error, 3 numerical divergence.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .apps import (DiffusionSpec, NSDESpec, anneal, diffusion_reverse,
                   double_well_target, gaussian_target, hmc_sample,
                   latent_sde_rollout, mixture_target, sghmc_sample,
                   sgld_sample, weight_diffuser_rollout)
from .circuit import RCNetlist, compile_network, compile_rc_cell
from .core_sde import (SDEModel, fixed_initial, gaussian_initial,
                       propagate_moments, simulate_ensemble,
                       simulate_trajectory)
from .demon import AnalyticScoreDemon, ScoreNetworkDemon
from .errors import ConfigError, ContractViolationError, DivergenceError
from .gates import program_from_json
from .potentials import Gaussian
from .sbit import RateSchedule, sample_sbit_trajectory
from .training import (TrainConfig, VPSchedule, kernel_dsm_objective,
                       loss_history_to_csv, train_demon)

EXIT_CONFIG = 2
EXIT_DIVERGED = 3
CSV_BLOCK_VALUES = 512
# libyaml's parser when PyYAML was built with it; it builds the same objects.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# ----------------------------------------------------------------- plumbing

def _load_config(path):
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return cfg


def _get(cfg, path, default=None, required=False):
    """Walk a dotted field path; missing required fields name the path."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(f"missing config field: {path}")
            return default
        node = node[key]
    return node


def _resolve(cfg, output_dir, seed):
    cfg = dict(cfg)
    if output_dir is not None:
        cfg["output_dir"] = output_dir
    if seed is not None:
        cfg["seed"] = seed
    if "seed" not in cfg:
        raise ConfigError("missing config field: seed (wall-clock seeding is not allowed)")
    if not isinstance(cfg["seed"], int):
        raise ConfigError("config field seed must be an integer")
    out = Path(cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out, cfg, artifacts):
    manifest = {
        "version": __version__,
        "config": cfg,
        "artifacts": {name: _sha256(out / name) for name in artifacts},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_chain_csv(path, chain, header=None):
    chain = np.atleast_2d(np.asarray(chain, dtype=float))
    if header is None:
        header = ["x%d" % (j + 1) for j in range(chain.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        # Rows are formatted about CSV_BLOCK_VALUES numbers at a time, so a
        # long chain is never held as Python floats and strings all at once.
        block = max(1, CSV_BLOCK_VALUES // chain.shape[1])
        for start in range(0, len(chain), block):
            rows = chain[start:start + block].tolist()
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)


def _chain_metrics(chain):
    chain = np.atleast_2d(np.asarray(chain, dtype=float))
    return {
        "n_samples": int(chain.shape[0]),
        "mean": np.mean(chain, axis=0).tolist(),
        "cov": np.atleast_2d(np.cov(chain.T)).tolist(),
    }


def _build_model(cfg):
    spec = _get(cfg, "model", required=True)
    if "netlist" in spec:
        return compile_network(RCNetlist.from_json(Path(spec["netlist"]).read_text()))
    if "vp" in spec:
        beta, dim = float(spec["vp"].get("beta", 2.0)), int(spec["vp"].get("dim", 1))
        return SDEModel(A0=-0.5 * beta * np.eye(dim), b0=np.zeros(dim),
                        C0=np.sqrt(beta) * np.eye(dim))
    if "ve" in spec:
        c0, dim = float(spec["ve"].get("c0", 1.0)), int(spec["ve"].get("dim", 1))
        return SDEModel(A0=np.zeros((dim, dim)), b0=np.zeros(dim), C0=c0 * np.eye(dim))
    if "A0" in spec:
        return SDEModel(A0=spec["A0"], b0=spec["b0"], C0=spec["C0"],
                        D0=spec.get("D0"))
    raise ConfigError("config field model must give netlist, vp, ve, or explicit matrices")


def _build_target(cfg, field="target"):
    spec = _get(cfg, field, required=True)
    kind = spec.get("kind")
    if kind == "gaussian":
        return gaussian_target(spec["mean"], spec["cov"])
    if kind == "mixture":
        return mixture_target(spec["weights"], spec["means"], spec["covs"])
    if kind == "double_well":
        return double_well_target(int(spec.get("dim", 1)))
    raise ConfigError(f"config field {field}.kind must be gaussian, mixture, or double_well")


def _run(fn):
    """Uniform error-to-exit-code mapping for all subcommands."""
    try:
        fn()
    except (ConfigError, ContractViolationError, KeyError, TypeError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except DivergenceError as exc:
        click.echo(f"divergence: {exc}", err=True)
        sys.exit(EXIT_DIVERGED)


def _common(fn):
    fn = click.option("--seed", type=int, default=None, help="Override config seed.")(fn)
    fn = click.option("--output-dir", type=click.Path(), default=None,
                      help="Override config output directory.")(fn)
    fn = click.argument("config", type=click.Path(exists=True))(fn)
    return fn


@click.group()
def main():
    """Thermodynamic-hardware simulator experiment runner."""


# -------------------------------------------------------------- subcommands

@main.command()
@_common
def simulate(config, output_dir, seed):
    """Simulate an s-mode SDE: trajectory CSV plus ensemble/oracle moments."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        model = _build_model(cfg)
        program = None
        if _get(cfg, "program") is not None:
            program = program_from_json(Path(cfg["program"]).read_text())
        t0 = float(_get(cfg, "t0", 0.0))
        tf = float(_get(cfg, "tf", required=True))
        dt = float(_get(cfg, "dt", required=True))
        init = _get(cfg, "initial")
        cov0 = np.zeros((model.dim, model.dim))
        if init is None:
            sampler, v0 = fixed_initial(np.zeros(model.dim)), np.zeros(model.dim)
        elif init.get("kind") == "fixed":
            v0 = np.asarray(init["v0"], dtype=float)
            sampler = fixed_initial(v0)
        elif init.get("kind") == "gaussian":
            sampler = gaussian_initial(init["mean"], init["cov"])
            v0 = np.asarray(init["mean"], dtype=float)
            cov0 = np.asarray(init["cov"], dtype=float)
        else:
            raise ConfigError("config field initial.kind must be fixed or gaussian")
        traj = simulate_trajectory(model, program, None, v0, t0, tf, dt, cfg["seed"])
        traj.to_csv(out / "trajectory.csv")
        n_traj = int(_get(cfg, "n_traj", 1))
        summary = simulate_ensemble(model, program, None, sampler, t0, tf, dt,
                                    n_traj, cfg["seed"])
        summary.to_json(out / "moments.json")
        oracle = propagate_moments(model, program, v0, cov0, t0, tf, dt)
        _write_json(out / "oracle_moments.json", {
            "times": [m.t for m in oracle],
            "mean": [m.mean.tolist() for m in oracle],
            "cov": [m.cov.tolist() for m in oracle],
        })
        _write_manifest(out, cfg, ["trajectory.csv", "moments.json", "oracle_moments.json"])

    _run(body)


@main.command("sample-diffusion")
@_common
def sample_diffusion(config, output_dir, seed):
    """Reverse-diffusion sampling with an analytic or checkpointed score."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        dim = int(_get(cfg, "dim", 1))
        T = float(_get(cfg, "T", 1.0))
        kind = _get(cfg, "kind", "vp")
        if kind == "vp":
            sched = VPSchedule(float(_get(cfg, "beta", 2.0)), T=T)
            spec = DiffusionSpec("vp", dim, T, schedule=sched)
        else:
            spec = DiffusionSpec("ve", dim, T, c0=float(_get(cfg, "c0", 1.0)))
        score_cfg = _get(cfg, "score", required=True)
        if score_cfg.get("kind") == "checkpoint":
            score = ScoreNetworkDemon.load(score_cfg["path"])
        elif score_cfg.get("kind") == "analytic_gaussian":
            data = Gaussian(score_cfg["mean"], score_cfg["cov"])

            def score_fn(X, t):
                a, var = spec.kernel(t)
                return Gaussian(a * data.mean, a * a * data.cov + var * np.eye(dim)).score(X)

            score = AnalyticScoreDemon(score_fn, dim, batched=True)
        else:
            raise ConfigError("config field score.kind must be checkpoint or analytic_gaussian")
        samples = diffusion_reverse(spec, score, int(_get(cfg, "n_samples", 1000)),
                                    float(_get(cfg, "dt", 1e-2)), cfg["seed"])
        _write_chain_csv(out / "samples.csv", samples)
        _write_json(out / "metrics.json", _chain_metrics(samples))
        _write_manifest(out, cfg, ["samples.csv", "metrics.json"])

    _run(body)


@main.command()
@_common
def sghmc(config, output_dir, seed):
    """Underdamped Langevin (SGHMC) chain over a catalog target."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        target = _build_target(cfg)
        chain = sghmc_sample(
            target,
            mass=_get(cfg, "mass"), friction=_get(cfg, "friction"),
            n_steps=int(_get(cfg, "n_steps", 10000)),
            dt=float(_get(cfg, "dt", 1e-2)), seed=cfg["seed"],
            x0=_get(cfg, "x0"), burn_in=float(_get(cfg, "burn_in", 0.2)))
        _write_chain_csv(out / "chain.csv", chain)
        _write_json(out / "metrics.json", _chain_metrics(chain))
        _write_manifest(out, cfg, ["chain.csv", "metrics.json"])

    _run(body)


@main.command()
@_common
def sgld(config, output_dir, seed):
    """Overdamped Langevin (SGLD) chain over a catalog target."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        target = _build_target(cfg)
        chain = sgld_sample(
            target, step_sizes=float(_get(cfg, "step_size", 1e-2)),
            n_steps=int(_get(cfg, "n_steps", 10000)), seed=cfg["seed"],
            x0=_get(cfg, "x0"), burn_in=float(_get(cfg, "burn_in", 0.2)))
        _write_chain_csv(out / "chain.csv", chain)
        _write_json(out / "metrics.json", _chain_metrics(chain))
        _write_manifest(out, cfg, ["chain.csv", "metrics.json"])

    _run(body)


@main.command()
@_common
def hmc(config, output_dir, seed):
    """Reference Hamiltonian Monte Carlo chain with acceptance tracking."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        target = _build_target(cfg)
        chain, accept = hmc_sample(
            target, mass=_get(cfg, "mass"),
            n_leapfrog=int(_get(cfg, "n_leapfrog", 10)),
            step=float(_get(cfg, "step", 0.1)),
            n_iter=int(_get(cfg, "n_iter", 1000)), seed=cfg["seed"],
            x0=_get(cfg, "x0"), burn_in=float(_get(cfg, "burn_in", 0.2)))
        metrics = _chain_metrics(chain)
        metrics["acceptance_rate"] = accept
        _write_chain_csv(out / "chain.csv", chain)
        _write_json(out / "metrics.json", metrics)
        _write_manifest(out, cfg, ["chain.csv", "metrics.json"])

    _run(body)


@main.command("anneal")
@_common
def anneal_cmd(config, output_dir, seed):
    """SDE annealing over a catalog loss; records best point and chain."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        target = _build_target(cfg, field="loss")
        best, chain = anneal(
            target, S=_get(cfg, "S"),
            n_steps=int(_get(cfg, "n_steps", 20000)),
            dt=float(_get(cfg, "dt", 1e-2)), seed=cfg["seed"],
            lam=float(_get(cfg, "lambda", 1.0)), x0=_get(cfg, "x0"))
        metrics = _chain_metrics(chain)
        metrics["best_x"] = best.tolist()
        metrics["best_loss"] = target.U(best)
        _write_chain_csv(out / "chain.csv", chain)
        _write_json(out / "metrics.json", metrics)
        _write_manifest(out, cfg, ["chain.csv", "metrics.json"])

    _run(body)


@main.command()
@_common
def sbit(config, output_dir, seed):
    """Sample a single s-bit CTMC trajectory with constant flip rates."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        T = float(_get(cfg, "T", required=True))
        lam0 = RateSchedule.constant(float(_get(cfg, "lambda0", required=True)))
        lam1 = RateSchedule.constant(float(_get(cfg, "lambda1", required=True)))
        traj = sample_sbit_trajectory(lam0, lam1, int(_get(cfg, "x0", 0)), T, cfg["seed"])
        traj.to_csv(out / "trajectory.csv")
        grid = np.linspace(0.0, T, 1001)
        occupancy = float(np.mean([traj.state_at(t)[0] for t in grid]))
        _write_json(out / "metrics.json", {
            "n_flips": len(traj.jumps), "occupancy_1": occupancy})
        _write_manifest(out, cfg, ["trajectory.csv", "metrics.json"])

    _run(body)


@main.command("compile-circuit")
@_common
def compile_circuit(config, output_dir, seed):
    """Compile a noisy-RC netlist and print the drift/diffusion matrices."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        if _get(cfg, "netlist") is not None:
            net = RCNetlist.from_json(Path(cfg["netlist"]).read_text())
            model = compile_network(net)
        elif _get(cfg, "cell") is not None:
            c = cfg["cell"]
            model = compile_rc_cell(float(c["R"]), float(c["C"]), float(c["T"]))
        else:
            raise ConfigError("missing config field: netlist (or cell)")
        for name, M in (("A0", model.A0), ("C0", model.C0)):
            click.echo(name)
            for row in M:
                click.echo(",".join(repr(float(x)) for x in row))
            _write_chain_csv(out / f"{name}.csv", M,
                             header=[f"c{j + 1}" for j in range(model.dim)])
        _write_manifest(out, cfg, ["A0.csv", "C0.csv"])

    _run(body)


@main.command("train-demon")
@_common
def train_demon_cmd(config, output_dir, seed):
    """Train a score-network demon by denoising score matching."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        data_cfg = _get(cfg, "data", required=True)
        if data_cfg.get("kind") != "gaussian":
            raise ConfigError("config field data.kind must be gaussian")
        data = Gaussian(data_cfg["mean"], data_cfg["cov"])
        sched = VPSchedule(float(_get(cfg, "beta", 2.0)), T=float(_get(cfg, "T", 1.0)))
        tc = TrainConfig(
            mode=_get(cfg, "train.mode", "ex_situ"),
            optimizer=_get(cfg, "train.optimizer", "adam"),
            learning_rate=float(_get(cfg, "train.learning_rate", 1e-3)),
            batch_size=int(_get(cfg, "train.batch_size", 64)),
            steps=int(_get(cfg, "train.steps", 500)), seed=cfg["seed"])
        demon = ScoreNetworkDemon(data.dim, seed=cfg["seed"])
        env = _build_model(cfg) if tc.mode == "in_situ" else None
        objective = kernel_dsm_objective(lambda rng, n: data.sample(rng, n),
                                         sched, tc.batch_size, env_model=env)
        demon, history = train_demon(demon, objective, tc)
        demon.save(out / "demon.json")
        loss_history_to_csv(history, out / "loss.csv")
        _write_manifest(out, cfg, ["demon.json", "loss.csv"])

    _run(body)


@main.command("nsde-rollout")
@_common
def nsde_rollout(config, output_dir, seed):
    """Prior rollout of the hidden/weight coupled neural SDE."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        hidden = int(_get(cfg, "hidden_dim", required=True))
        weight_dim = hidden * hidden

        def f_h(t, H, w):
            return np.tanh(H @ w.reshape(hidden, hidden).T)

        drift = _get(cfg, "weight_drift", "ou")
        if drift == "ou":
            f_w = lambda t, w: -w
        elif drift == "zero":
            f_w = None
        else:
            raise ConfigError("config field weight_drift must be ou or zero")
        spec = NSDESpec(hidden, weight_dim, f_h, f_w=f_w,
                        sigma=float(_get(cfg, "sigma", 0.1)))
        inputs = np.asarray(_get(cfg, "inputs", required=True), dtype=float)
        times, H, W = weight_diffuser_rollout(
            spec, "prior", inputs, float(_get(cfg, "T", 1.0)),
            float(_get(cfg, "dt", 1e-2)), cfg["seed"],
            w0=_get(cfg, "w0"))
        _write_chain_csv(out / "weights.csv", W)
        _write_chain_csv(out / "hidden_final.csv", H[-1])
        _write_manifest(out, cfg, ["weights.csv", "hidden_final.csv"])

    _run(body)


@main.command("latent-rollout")
@_common
def latent_rollout(config, output_dir, seed):
    """Latent-SDE rollout read out at the configured checkpoint times."""

    def body():
        cfg, out = _resolve(_load_config(config), output_dir, seed)
        model = _build_model(cfg)
        program = None
        if _get(cfg, "program") is not None:
            program = program_from_json(Path(cfg["program"]).read_text())
        times, readouts = latent_sde_rollout(
            model, program, None, np.asarray(_get(cfg, "h0", required=True), dtype=float),
            _get(cfg, "checkpoints", required=True),
            t0=float(_get(cfg, "t0", 0.0)), dt=float(_get(cfg, "dt", 1e-2)),
            seed=cfg["seed"])
        _write_chain_csv(out / "readouts.csv",
                         np.column_stack([times, readouts]),
                         header=["t"] + [f"h{j + 1}" for j in range(model.dim)])
        _write_manifest(out, cfg, ["readouts.csv"])

    _run(body)


if __name__ == "__main__":
    main()
