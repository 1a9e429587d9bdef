"""Experiment runner: YAML configs in, reproducible CSV/JSON artifacts out.

Every subcommand reads one config file, requires an explicit seed (no
wall-clock seeding), writes its artifacts plus a manifest.json recording the
resolved config, package version, and artifact hashes.  Exit codes: 0
success, 1 internal error (the message names the exception type), 2 config
error, 3 numerical divergence.
"""

from __future__ import annotations

import hashlib
import json
import math
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
                       simulate_trajectory, write_csv)
from .demon import AnalyticScoreDemon, ScoreNetworkDemon
from .errors import ConfigError, ContractViolationError, DivergenceError
from .gates import program_from_json
from .potentials import Gaussian
from .sbit import RateSchedule, sample_sbit_trajectory
from .training import (TrainConfig, VPSchedule, kernel_dsm_objective,
                       loss_history_to_csv, train_demon)

EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
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


def _get(cfg, path, default=None, required=False, kind=None):
    """Walk a dotted field path and convert its value with ``kind``.  A null
    value counts as missing; converted values must be finite, and ``int``
    fields (counts and states) nonnegative integers.  A missing required
    field, a non-mapping on the path and a rejected value raise ConfigError
    naming the path."""
    node, keys = cfg, path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(node, dict):
            raise ConfigError(f"config field {'.'.join(keys[:i])} must be a mapping")
        node = node.get(key)
        if node is None:
            if required:
                raise ConfigError(f"missing config field: {path}")
            return default
    if kind is None:
        return node
    try:
        value = kind(node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {path}: {exc}") from None
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"config field {path} must be finite")
    if kind is int and (value < 0 or value != node):
        raise ConfigError(f"config field {path} must be a nonnegative integer")
    return value


def _array(rank):
    """``_get`` kind: a float array of at least one and at most ``rank`` dimensions."""
    def convert(value):
        a = np.array(value, dtype=float, ndmin=1)
        if a.ndim > rank:
            raise ValueError(f"must be a number array of rank at most {rank}")
        return a

    return convert


def _from_file(cfg, field, parse, required=True):
    """``parse`` the text of the file a config field names, or return None if
    it names none; a missing or malformed file is a config error."""
    path = _get(cfg, field, required=required)
    if path is None:
        return None
    try:
        return parse(Path(path).read_text())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config field {field}: cannot load {path}: "
                          f"{type(exc).__name__}: {exc}") from None


def _check_finite(node, path=""):
    """Raise ConfigError naming the field of the first non-finite number in
    a config, read or not: the manifest records every field."""
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for value in node:
            _check_finite(value, path)
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"config field {path} must be finite")


def _resolve(cfg, output_dir, seed):
    cfg = dict(cfg)
    if output_dir is not None:
        cfg["output_dir"] = output_dir
    if seed is not None:
        cfg["seed"] = seed
    if "seed" not in cfg:
        raise ConfigError("missing config field: seed (wall-clock seeding is not allowed)")
    if type(cfg["seed"]) is not int:  # bool is an int subclass
        raise ConfigError("config field seed must be an integer")
    _check_finite(cfg)
    out = Path(cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path, doc):
    """Write a small document (metrics, manifest) indented, with sorted keys."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)


def _write_manifest(out, cfg, artifacts):
    _write_json(out / "manifest.json", {
        "version": __version__, "config": cfg,
        "artifacts": {name: _sha256(out / name) for name in artifacts}})


def _write_samples(out, name, chain, **metrics):
    """Write a chain as CSV ``name`` plus metrics.json (sample count, mean,
    covariance and ``metrics``); return both artifact names."""
    chain = np.atleast_2d(np.asarray(chain, dtype=float))
    if len(chain) < 2:
        raise ConfigError(f"metrics need 2 samples, {len(chain)} left; raise the step count")
    write_csv(out / name, chain)
    _write_json(out / "metrics.json", dict(
        n_samples=int(chain.shape[0]), mean=np.mean(chain, axis=0).tolist(),
        cov=np.atleast_2d(np.cov(chain.T)).tolist(), **metrics))
    return [name, "metrics.json"]


def _build_model(cfg):
    _get(cfg, "model", required=True)
    if _get(cfg, "model.netlist") is not None:
        return compile_network(_from_file(cfg, "model.netlist", RCNetlist.from_json))
    if _get(cfg, "model.vp") is not None:
        beta = _get(cfg, "model.vp.beta", 2.0, kind=float)
        dim = _get(cfg, "model.vp.dim", 1, kind=int)
        return SDEModel(A0=-0.5 * beta * np.eye(dim), b0=np.zeros(dim),
                        C0=np.sqrt(beta) * np.eye(dim))
    if _get(cfg, "model.ve") is not None:
        c0 = _get(cfg, "model.ve.c0", 1.0, kind=float)
        dim = _get(cfg, "model.ve.dim", 1, kind=int)
        return SDEModel(A0=np.zeros((dim, dim)), b0=np.zeros(dim), C0=c0 * np.eye(dim))
    if _get(cfg, "model.A0") is not None:
        return SDEModel(*(_get(cfg, f"model.{name}", required=True, kind=_array(rank))
                          for name, rank in (("A0", 2), ("b0", 1), ("C0", 2))),
                        D0=_get(cfg, "model.D0", kind=_array(2)))
    raise ConfigError("config field model must give netlist, vp, ve, or explicit matrices")


def _build_target(cfg, field="target"):
    def get(key, rank):
        return _get(cfg, f"{field}.{key}", required=True, kind=_array(rank))

    kind = _get(cfg, f"{field}.kind", required=True)
    if kind == "gaussian":
        return gaussian_target(get("mean", 1), get("cov", 2))
    if kind == "mixture":
        return mixture_target(get("weights", 1), get("means", 2), get("covs", 3))
    if kind == "double_well":
        return double_well_target(_get(cfg, f"{field}.dim", 1, kind=int))
    raise ConfigError(f"config field {field}.kind must be gaussian, mixture, or double_well")


@click.group()
def main():
    """Thermodynamic-hardware simulator experiment runner."""


def _subcommand(name=None):
    """Register ``fn(cfg, out) -> artifact names`` as a subcommand whose runner
    loads and resolves the config, calls ``fn``, writes the manifest, and maps
    failures to exit codes with a one-line message."""
    def register(fn):
        @main.command(name or fn.__name__, help=fn.__doc__)
        @click.argument("config", type=click.Path(exists=True))
        @click.option("--output-dir", type=click.Path(), default=None,
                      help="Override config output directory.")
        @click.option("--seed", type=int, default=None, help="Override config seed.")
        def command(config, output_dir, seed):
            try:
                cfg, out = _resolve(_load_config(config), output_dir, seed)
                _write_manifest(out, cfg, fn(cfg, out))
                return
            except (ConfigError, ContractViolationError) as exc:
                code, message = EXIT_CONFIG, f"config error: {exc}"
            except DivergenceError as exc:
                code, message = EXIT_DIVERGED, f"divergence: {exc}"
            except Exception as exc:
                code, message = EXIT_INTERNAL, f"error: {type(exc).__name__}: {exc}"
            click.echo(message, err=True)
            sys.exit(code)

        return command

    return register


# -------------------------------------------------------------- subcommands

@_subcommand()
def simulate(cfg, out):
    """Simulate an s-mode SDE: trajectory CSV plus ensemble/oracle moments."""
    model = _build_model(cfg)
    program = _from_file(cfg, "program", program_from_json, required=False)
    seed, t0 = _get(cfg, "seed"), _get(cfg, "t0", 0.0, kind=float)
    tf, dt = (_get(cfg, name, required=True, kind=float) for name in ("tf", "dt"))
    n = model.dim
    kind = _get(cfg, "initial.kind", "fixed")
    if kind not in ("fixed", "gaussian"):
        raise ConfigError("config field initial.kind must be fixed or gaussian")
    # Sizes are checked before any trajectory runs, so a misfit initial state
    # is a config error that names its field.
    field = "initial.v0" if kind == "fixed" else "initial.mean"
    v0 = _get(cfg, field, np.zeros(n), required=kind == "gaussian", kind=_array(1))
    if v0.shape != (n,):
        raise ConfigError(f"config field {field} must have length {n}, got {v0.size}")
    if kind == "fixed":
        sampler, cov0 = fixed_initial(v0), np.zeros((n, n))
    else:
        cov0 = _get(cfg, "initial.cov", required=True, kind=_array(2))
        try:
            sampler = gaussian_initial(v0, cov0)
        except ContractViolationError as exc:
            raise ConfigError(f"config field initial.cov: {exc}") from None
    # Each result is written and dropped before the next is made, so the
    # peak holds one artifact's arrays at a time.
    simulate_trajectory(model, program, None, v0, t0, tf, dt, seed).to_csv(
        out / "trajectory.csv")
    simulate_ensemble(model, program, None, sampler, t0, tf, dt,
                      _get(cfg, "n_traj", 1, kind=int), seed).to_json(out / "moments.json")
    propagate_moments(model, program, v0, cov0, t0, tf, dt).to_json(out / "oracle_moments.json")
    return ["trajectory.csv", "moments.json", "oracle_moments.json"]


@_subcommand("sample-diffusion")
def sample_diffusion(cfg, out):
    """Reverse-diffusion sampling with an analytic or checkpointed score."""
    dim, T = _get(cfg, "dim", 1, kind=int), _get(cfg, "T", 1.0, kind=float)
    kind = _get(cfg, "kind", "vp")
    sched = VPSchedule(_get(cfg, "beta", 2.0, kind=float), T=T) if kind == "vp" else None
    spec = DiffusionSpec(kind, dim, T, schedule=sched, c0=_get(cfg, "c0", 1.0, kind=float))
    score_kind = _get(cfg, "score.kind", required=True)
    if score_kind == "checkpoint":
        score = _from_file(cfg, "score.path",
                           lambda text: ScoreNetworkDemon.from_dict(json.loads(text)))
        if score.dim != dim:
            raise ConfigError(f"config field score.path: checkpoint dim {score.dim} != dim {dim}")
    elif score_kind == "analytic_gaussian":
        mean = _get(cfg, "score.mean", required=True, kind=_array(1))
        cov = np.atleast_2d(_get(cfg, "score.cov", required=True, kind=_array(2)))
        for key, shape in (("mean", mean.shape), ("cov", cov.shape)):
            if shape != (dim,) * len(shape):
                raise ConfigError(f"config field score.{key} must fit dim {dim}, got shape {shape}")
        data = Gaussian(mean, cov)

        def score_fn(X, t):
            a, var = spec.kernel(t)
            return Gaussian(a * data.mean, a * a * data.cov + var * np.eye(dim)).score(X)

        score = AnalyticScoreDemon(score_fn, dim, batched=True)
    else:
        raise ConfigError("config field score.kind must be checkpoint or analytic_gaussian")
    samples = diffusion_reverse(spec, score, _get(cfg, "n_samples", 1000, kind=int),
                                _get(cfg, "dt", 1e-2, kind=float), _get(cfg, "seed"))
    return _write_samples(out, "samples.csv", samples)


@_subcommand()
def sghmc(cfg, out):
    """Underdamped Langevin (SGHMC) chain over a catalog target."""
    chain = sghmc_sample(
        _build_target(cfg),
        mass=_get(cfg, "mass", kind=_array(2)), friction=_get(cfg, "friction", kind=_array(2)),
        n_steps=_get(cfg, "n_steps", 10000, kind=int),
        dt=_get(cfg, "dt", 1e-2, kind=float), seed=_get(cfg, "seed"),
        x0=_get(cfg, "x0", kind=_array(1)), burn_in=_get(cfg, "burn_in", 0.2, kind=float))
    return _write_samples(out, "chain.csv", chain)


@_subcommand()
def sgld(cfg, out):
    """Overdamped Langevin (SGLD) chain over a catalog target."""
    chain = sgld_sample(
        _build_target(cfg), step_sizes=_get(cfg, "step_size", 1e-2, kind=float),
        n_steps=_get(cfg, "n_steps", 10000, kind=int), seed=_get(cfg, "seed"),
        x0=_get(cfg, "x0", kind=_array(1)), burn_in=_get(cfg, "burn_in", 0.2, kind=float))
    return _write_samples(out, "chain.csv", chain)


@_subcommand()
def hmc(cfg, out):
    """Reference Hamiltonian Monte Carlo chain with acceptance tracking."""
    chain, accept = hmc_sample(
        _build_target(cfg), mass=_get(cfg, "mass", kind=_array(2)),
        n_leapfrog=_get(cfg, "n_leapfrog", 10, kind=int),
        step=_get(cfg, "step", 0.1, kind=float),
        n_iter=_get(cfg, "n_iter", 1000, kind=int), seed=_get(cfg, "seed"),
        x0=_get(cfg, "x0", kind=_array(1)), burn_in=_get(cfg, "burn_in", 0.2, kind=float))
    return _write_samples(out, "chain.csv", chain, acceptance_rate=accept)


@_subcommand("anneal")
def anneal_cmd(cfg, out):
    """SDE annealing over a catalog loss; records best point and chain."""
    target = _build_target(cfg, field="loss")
    best, chain = anneal(
        target, S=_get(cfg, "S", kind=_array(2)),
        n_steps=_get(cfg, "n_steps", 20000, kind=int),
        dt=_get(cfg, "dt", 1e-2, kind=float), seed=_get(cfg, "seed"),
        lam=_get(cfg, "lambda", 1.0, kind=float), x0=_get(cfg, "x0", kind=_array(1)))
    return _write_samples(out, "chain.csv", chain,
                          best_x=best.tolist(), best_loss=target.U(best))


@_subcommand()
def sbit(cfg, out):
    """Sample a single s-bit CTMC trajectory with constant flip rates."""
    T = _get(cfg, "T", required=True, kind=float)
    lam0, lam1 = (RateSchedule.constant(_get(cfg, name, required=True, kind=float))
                  for name in ("lambda0", "lambda1"))
    traj = sample_sbit_trajectory(lam0, lam1, _get(cfg, "x0", 0, kind=int), T,
                                  _get(cfg, "seed"))
    traj.to_csv(out / "trajectory.csv")
    grid = np.linspace(0.0, T, 1001)
    occupancy = float(np.mean([traj.state_at(t)[0] for t in grid]))
    _write_json(out / "metrics.json", {"n_flips": len(traj.jumps), "occupancy_1": occupancy})
    return ["trajectory.csv", "metrics.json"]


@_subcommand("compile-circuit")
def compile_circuit(cfg, out):
    """Compile a noisy-RC netlist and print the drift/diffusion matrices."""
    if _get(cfg, "netlist") is not None:
        model = compile_network(_from_file(cfg, "netlist", RCNetlist.from_json))
    elif _get(cfg, "cell") is not None:
        model = compile_rc_cell(*(_get(cfg, f"cell.{name}", required=True, kind=float)
                                  for name in "RCT"))
    else:
        raise ConfigError("missing config field: netlist (or cell)")
    for name, M in (("A0", model.A0), ("C0", model.C0)):
        click.echo(name)
        for row in M:
            click.echo(",".join(repr(float(x)) for x in row))
        write_csv(out / f"{name}.csv", M, [f"c{j + 1}" for j in range(model.dim)])
    return ["A0.csv", "C0.csv"]


@_subcommand("train-demon")
def train_demon_cmd(cfg, out):
    """Train a score-network demon by denoising score matching."""
    if _get(cfg, "data.kind", required=True) != "gaussian":
        raise ConfigError("config field data.kind must be gaussian")
    data = Gaussian(_get(cfg, "data.mean", required=True, kind=_array(1)),
                    _get(cfg, "data.cov", required=True, kind=_array(2)))
    sched = VPSchedule(_get(cfg, "beta", 2.0, kind=float), T=_get(cfg, "T", 1.0, kind=float))
    mode = _get(cfg, "train.mode", "ex_situ")
    if mode not in ("ex_situ", "in_situ"):
        raise ConfigError("config field train.mode must be ex_situ or in_situ")
    seed = _get(cfg, "seed")
    tc = TrainConfig(
        optimizer=_get(cfg, "train.optimizer", "adam"),
        learning_rate=_get(cfg, "train.learning_rate", 1e-3, kind=float),
        batch_size=_get(cfg, "train.batch_size", 64, kind=int),
        steps=_get(cfg, "train.steps", 500, kind=int), seed=seed)
    demon = ScoreNetworkDemon(data.dim, seed=seed)
    env = _build_model(cfg) if mode == "in_situ" else None
    objective = kernel_dsm_objective(lambda rng, n: data.sample(rng, n),
                                     sched, tc.batch_size, env_model=env)
    demon, history = train_demon(demon, objective, tc)
    demon.save(out / "demon.json")
    loss_history_to_csv(history, out / "loss.csv")
    return ["demon.json", "loss.csv"]


@_subcommand("nsde-rollout")
def nsde_rollout(cfg, out):
    """Prior rollout of the hidden/weight coupled neural SDE."""
    hidden = _get(cfg, "hidden_dim", required=True, kind=int)
    drift = _get(cfg, "weight_drift", "ou")
    if drift not in ("ou", "zero"):
        raise ConfigError("config field weight_drift must be ou or zero")

    def f_h(t, H, w):
        return np.tanh(H @ w.reshape(hidden, hidden).T)

    spec = NSDESpec(hidden, hidden * hidden, f_h,
                    f_w=(lambda t, w: -w) if drift == "ou" else None,
                    sigma=_get(cfg, "sigma", 0.1, kind=float))
    times, H, W = weight_diffuser_rollout(
        spec, "prior", _get(cfg, "inputs", required=True, kind=_array(2)),
        _get(cfg, "T", 1.0, kind=float), _get(cfg, "dt", 1e-2, kind=float),
        _get(cfg, "seed"), w0=_get(cfg, "w0", kind=_array(1)))
    write_csv(out / "weights.csv", W)
    write_csv(out / "hidden_final.csv", H[-1])
    return ["weights.csv", "hidden_final.csv"]


@_subcommand("latent-rollout")
def latent_rollout(cfg, out):
    """Latent-SDE rollout read out at the configured checkpoint times."""
    model = _build_model(cfg)
    times, readouts = latent_sde_rollout(
        model, _from_file(cfg, "program", program_from_json, required=False), None,
        _get(cfg, "h0", required=True, kind=_array(1)),
        _get(cfg, "checkpoints", required=True, kind=_array(1)),
        t0=_get(cfg, "t0", 0.0, kind=float), dt=_get(cfg, "dt", 1e-2, kind=float),
        seed=_get(cfg, "seed"))
    write_csv(out / "readouts.csv", np.column_stack([times, readouts]),
              ["t"] + [f"h{j + 1}" for j in range(model.dim)])
    return ["readouts.csv"]


if __name__ == "__main__":
    main()
