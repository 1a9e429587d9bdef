"""Benchmark workloads: inputs generated from a seed, the jobs that run them,
and the checks of their outputs against independent oracles.

Each workload is a function ``make(seed, rep, out)`` that writes every input
file under ``out`` and returns a ``Plan``.  All randomness comes from
``(seed, rep)``, so the same seed always gives the same inputs.  Jobs call
the public entry points a user calls: ``thermosim`` CLI subcommands, or a
public library function the CLI does not expose.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from thermosim import cli, core_sde, demon, gates, sbit

# Failures the benchmark expects today, by (workload, check id).  A failed
# check listed here still counts in ``failed``, but does not make the run
# incorrect.
KNOWN_DEFECTS = {
    ("ensemble", "simulate.oracle_artifact"): (
        "cli simulate passes np.zeros as cov0 to propagate_moments whatever "
        "initial.cov says, so oracle_moments.json starts at covariance 0"),
}


@dataclass
class Job:
    """One timed call.  ``argv`` runs a CLI subcommand; ``fn`` a library call."""

    name: str
    out: Path
    argv: list | None = None
    fn: object = None


@dataclass
class Check:
    job: str
    id: str
    ok: bool
    err: float | None = None  # contributes to accuracy_err when set
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)
        self.err = None if self.err is None else float(self.err)


@dataclass
class Plan:
    jobs: list
    check: object  # callable() -> list[Check], run after the timed jobs


# ------------------------------------------------------------------ helpers

def _rng(seed, rep, tag):
    return np.random.default_rng([seed, rep, tag])


def _seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _stable_model(rng, n):
    """Random stable model, drawn the way acceptance test_01 draws it."""
    while True:
        A = -np.diag(rng.uniform(0.5, 2.0, n)) + 0.3 * rng.standard_normal((n, n))
        if np.max(np.linalg.eigvals(A).real) < -0.1:
            break
    return core_sde.SDEModel(A0=A, b0=rng.standard_normal(n),
                             C0=0.5 * rng.standard_normal((n, n)))


def _model_cfg(model):
    return {"A0": model.A0.tolist(), "b0": model.b0.tolist(), "C0": model.C0.tolist()}


def _cli_job(name, sub, cfg, out):
    """Write ``cfg`` (JSON is valid YAML) and return the job running it."""
    job_out = out / name
    job_out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.yaml"
    path.write_text(json.dumps(dict(cfg, output_dir=str(job_out))))
    return Job(name, job_out, argv=[sub, str(path)])


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


def load_json(path):
    """Load an artifact, refusing NaN and infinities."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)


def finite_artifacts(job, out, names):
    """One check per artifact: it exists, parses, and holds only finite numbers."""
    checks = []
    for name in names:
        path = out / name
        try:
            if name.endswith(".json"):
                load_json(path)
                ok = True
            else:
                ok = bool(np.all(np.isfinite(load_csv(path))))
            detail = "" if ok else "non-finite value"
        except (OSError, ValueError) as exc:
            ok, detail = False, str(exc)
        checks.append(Check(job, f"{job}.finite:{name}", ok, detail=detail))
    return checks


def _cov_rel_err(covs, oracle, stride, skip_zero=False):
    """Max over oracle grid times of the relative Frobenius covariance error."""
    worst = 0.0
    for k, m in enumerate(oracle):
        if skip_zero and k == 0:
            continue
        worst = max(worst, np.linalg.norm(np.asarray(covs[k * stride]) - m.cov)
                    / np.linalg.norm(m.cov))
    return float(worst)


def _artifact_oracle_check(job, out, oracle, stride, tol):
    """The CLI's own oracle artifact must agree with the benchmark's oracle."""
    doc = load_json(out / "oracle_moments.json")
    err = 0.0
    for k, m in enumerate(oracle):
        scale = max(1.0, np.linalg.norm(m.cov))
        err = max(err, np.linalg.norm(np.asarray(doc["cov"][k * stride]) - m.cov) / scale,
                  np.linalg.norm(np.asarray(doc["mean"][k * stride]) - m.mean)
                  / max(1.0, np.linalg.norm(m.mean)))
    return Check(job, "simulate.oracle_artifact", err <= tol,
                 detail=f"max error {err:.3g} against the benchmark's oracle")


def _gaussian_law_err(samples, mean, cov):
    """Largest per-coordinate error of sample mean (in std units) and variance ratio."""
    std = np.sqrt(np.diag(cov))
    mean_err = np.max(np.abs(samples.mean(axis=0) - mean) / std)
    var_err = np.max(np.abs(samples.var(axis=0, ddof=1) / std ** 2 - 1.0))
    return float(max(mean_err, var_err))


# ----------------------------------------------------------------- ensemble

ENSEMBLE = {"dim": 4, "tf": 2.0, "dt": 1e-3, "n_traj": 8192, "tol": 0.10}


def ensemble(seed, rep, out):
    """``thermosim simulate`` on a random stable 4-dim model, Gaussian initial state."""
    p = ENSEMBLE
    rng = _rng(seed, rep, 1)
    model = _stable_model(rng, p["dim"])
    mean0 = 0.5 * rng.standard_normal(p["dim"])
    cov0 = np.eye(p["dim"])
    cfg = {"seed": _seed(rng), "model": _model_cfg(model), "tf": p["tf"], "dt": p["dt"],
           "n_traj": p["n_traj"],
           "initial": {"kind": "gaussian", "mean": mean0.tolist(), "cov": cov0.tolist()}}
    job = _cli_job("simulate", "simulate", cfg, out)

    def check():
        checks = finite_artifacts(job.name, job.out,
                                  ["trajectory.csv", "moments.json", "oracle_moments.json"])
        if not all(c.ok for c in checks):
            return checks
        oracle = core_sde.propagate_moments(model, None, mean0, cov0, 0.0, p["tf"], p["dt"])
        covs = load_json(job.out / "moments.json")["cov"]
        err = _cov_rel_err(covs, oracle, 1)
        checks.append(Check(job.name, "simulate.moments", err <= p["tol"], err))
        checks.append(_artifact_oracle_check(job.name, job.out, oracle, 1, 1e-9))
        return checks

    return Plan([job], check)


# --------------------------------------------------------------- programmed

PROGRAMMED = {"dim": 3, "tf": 2.0, "dt": 1e-3, "n_traj": 1000, "segments": 4,
              "oracle_stride": 4, "tol": 0.25}


def _dense_program(rng, n, tf, n_segments):
    """Dense drift and diffusion superoperator schedules, composed in time."""
    segments = []
    for target in ("drift_super", "diffusion_super"):
        for j in range(n_segments):
            K = rng.standard_normal((n * n, n * n))
            K *= 0.5 / np.linalg.norm(K, 1)  # equal norms give expm equal work
            segments.append({"target": target, "form": "dense", "payload": K.tolist(),
                             "t_start": tf * j / n_segments,
                             "t_end": tf * (j + 1) / n_segments})
    return {"segments": segments, "compose": True}


def programmed(seed, rep, out):
    """``thermosim simulate`` then ``latent-rollout`` under one dense gate program."""
    p = PROGRAMMED
    rng = _rng(seed, rep, 2)
    model = _stable_model(rng, p["dim"])
    program_doc = _dense_program(rng, p["dim"], p["tf"], p["segments"])
    program_path = out / "program.json"
    program_path.write_text(json.dumps(program_doc))
    v0 = rng.standard_normal(p["dim"])
    base = {"model": _model_cfg(model), "program": str(program_path), "dt": p["dt"]}
    sim = _cli_job("simulate", "simulate", dict(
        base, seed=_seed(rng), tf=p["tf"], n_traj=p["n_traj"],
        initial={"kind": "fixed", "v0": v0.tolist()}), out)
    checkpoints = [p["tf"] * k / 4 for k in range(1, 5)]
    latent = _cli_job("latent", "latent-rollout", dict(
        base, seed=_seed(rng), h0=v0.tolist(), checkpoints=checkpoints), out)

    def check():
        checks = finite_artifacts(sim.name, sim.out,
                                  ["trajectory.csv", "moments.json", "oracle_moments.json"])
        checks += finite_artifacts(latent.name, latent.out, ["readouts.csv"])
        if not all(c.ok for c in checks):
            return checks
        # RK4 on a coarser grid is still far more accurate than the sampler,
        # and keeps the check's own gate evaluations small.
        stride = p["oracle_stride"]
        oracle = core_sde.propagate_moments(model, gates.program_from_json(program_doc), v0,
                                            np.zeros((p["dim"], p["dim"])), 0.0, p["tf"],
                                            p["dt"] * stride)
        covs = load_json(sim.out / "moments.json")["cov"]
        err = _cov_rel_err(covs, oracle, stride, skip_zero=True)
        checks.append(Check(sim.name, "simulate.moments", err <= p["tol"], err))
        checks.append(_artifact_oracle_check(sim.name, sim.out, oracle, stride, 1e-6))
        rows = load_csv(latent.out / "readouts.csv")
        checks.append(Check(latent.name, "latent.readouts", rows.shape == (4, p["dim"] + 1)))
        return checks

    return Plan([sim, latent], check)


# -------------------------------------------------------------------- demon

DEMON = {"dim": 2, "train_steps": 2000, "learning_rate": 3e-3, "batch": 256, "T": 3.0,
         "beta": 2.0, "sample_dt": 1e-2, "n_samples": 2000, "sample_tol": 0.5,
         "stateful_traj": 256, "stateful_tf": 1.0, "stateful_dt": 4e-3, "k": 0.5,
         "stateful_tol": 0.6}


def _stateful_job(model, k, v0, seed, job_out):
    """Library job: ensemble driven by a total-derivative demon with r = -k I."""
    p = DEMON
    n = model.dim

    def run():
        dev = demon.TotalDerivativeDemon(lambda t, v: np.zeros(n),
                                         lambda t, v: -k * np.eye(n), np.zeros(n))
        summary = core_sde.simulate_ensemble(
            model, None, dev, core_sde.fixed_initial(v0), 0.0, p["stateful_tf"],
            p["stateful_dt"], p["stateful_traj"], seed)
        summary.to_json(job_out / "moments.json")

    return run


def demon_workload(seed, rep, out):
    """Score-network training and sampling, plus a stateful-demon ensemble."""
    p = DEMON
    rng = _rng(seed, rep, 3)
    n = p["dim"]
    mean = rng.standard_normal(n)
    L = np.tril(0.2 * rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(0.7, 1.0, n))
    cov = L @ L.T
    train = _cli_job("train", "train-demon", {
        "seed": _seed(rng), "data": {"kind": "gaussian", "mean": mean.tolist(),
                                     "cov": cov.tolist()},
        "beta": p["beta"], "T": p["T"], "model": {"vp": {"beta": p["beta"], "dim": n}},
        "train": {"mode": "in_situ", "steps": p["train_steps"], "learning_rate": p["learning_rate"],
                  "batch_size": p["batch"]}}, out)
    sample = _cli_job("sample", "sample-diffusion", {
        "seed": _seed(rng), "dim": n, "kind": "vp", "T": p["T"], "beta": p["beta"],
        "dt": p["sample_dt"], "n_samples": p["n_samples"],
        "score": {"kind": "checkpoint", "path": str(train.out / "demon.json")}}, out)
    model = _stable_model(rng, n)
    v0 = rng.standard_normal(n)
    stateful_out = out / "stateful"
    stateful_out.mkdir(parents=True, exist_ok=True)
    stateful = Job("stateful", stateful_out,
                   fn=_stateful_job(model, p["k"], v0, _seed(rng), stateful_out))

    def check():
        checks = finite_artifacts(train.name, train.out, ["demon.json", "loss.csv"])
        checks += finite_artifacts(sample.name, sample.out, ["samples.csv", "metrics.json"])
        checks += finite_artifacts(stateful.name, stateful.out, ["moments.json"])
        if not all(c.ok for c in checks):
            return checks
        err = _gaussian_law_err(load_csv(sample.out / "samples.csv"), mean, cov)
        checks.append(Check(sample.name, "sample.law", err <= p["sample_tol"], err))
        # With q = 0 and r = -k I the demon output is exactly -k (v - v0), so
        # the ensemble is the linear model (A - kD, b + kD v0).
        D = model.D0
        equivalent = core_sde.SDEModel(model.A0 - p["k"] * D, model.b0 + p["k"] * D @ v0,
                                       model.C0)
        oracle = core_sde.propagate_moments(equivalent, None, v0, np.zeros((n, n)), 0.0,
                                            p["stateful_tf"], p["stateful_dt"])
        covs = load_json(stateful.out / "moments.json")["cov"]
        err = _cov_rel_err(covs, oracle, 1, skip_zero=True)
        checks.append(Check(stateful.name, "stateful.moments", err <= p["stateful_tol"], err))
        return checks

    return Plan([train, sample, stateful], check)


# ------------------------------------------------------------------- chains

CHAINS = {"chain_steps": 5000, "hmc_iter": 500, "anneal_steps": 10_000,
          "chain_tol": 0.5, "anneal_tol": 0.05, "sbit_T": 2000.0, "sbit_tol": 0.1,
          "bits": 10, "coupled_T": 1.0, "coupled_traj": 300, "tv_tol": 0.45}


def _mixture(rng):
    """Two overlapping 2-D Gaussians: weights, means, covs and closed-form moments."""
    w = rng.uniform(0.3, 0.7)
    angle = rng.uniform(0.0, np.pi)
    # Mode separation 1.2: far enough to be bimodal, close enough that a
    # 5 000-step chain hops between the modes whatever the seed.
    d = 0.6 * np.array([np.cos(angle), np.sin(angle)])
    weights = np.array([w, 1 - w])
    means = np.array([-d, d])
    covs = np.array([np.diag(rng.uniform(0.3, 0.6, 2)) for _ in range(2)])
    mean = weights @ means
    second = sum(wk * (ck + np.outer(mk, mk)) for wk, mk, ck in zip(weights, means, covs))
    target = {"kind": "mixture", "weights": weights.tolist(), "means": means.tolist(),
              "covs": covs.tolist()}
    return target, mean, second - np.outer(mean, mean)


def _chain_err(chain, mean, cov):
    """Chain mean error in units of the target's scale, and relative covariance error."""
    mean_err = np.linalg.norm(chain.mean(axis=0) - mean) / math.sqrt(np.trace(cov))
    cov_err = np.linalg.norm(np.cov(chain.T) - cov) / np.linalg.norm(cov)
    return float(max(mean_err, cov_err))


def _coupled_job(system, n_bits, T, n_traj, seed, job_out):
    """Library job: many coupled trajectories and the exact transient law."""

    def run():
        ends = np.zeros(1 << n_bits, dtype=int)
        for i in range(n_traj):
            traj = sbit.sample_coupled_trajectory(system, (0,) * n_bits, T, seed + i)
            end = traj.jumps[-1][1] if traj.jumps else traj.x0
            ends[sbit.state_index(end)] += 1
        p0 = np.zeros(1 << n_bits)
        p0[0] = 1.0
        exact = sbit.transient_distribution(system, p0, T)
        np.savetxt(job_out / "end_states.csv", np.column_stack([ends, exact]),
                   delimiter=",", header="count,exact", comments="")

    return run


def chains(seed, rep, out):
    """Single-chain samplers, the annealer, rollouts and s-bit sampling at batch 1."""
    p = CHAINS
    rng = _rng(seed, rep, 4)
    target, mean, cov = _mixture(rng)
    n = p["chain_steps"]
    jobs = [
        _cli_job("sghmc", "sghmc", {"seed": _seed(rng), "target": target,
                                    "n_steps": n, "dt": 0.1}, out),
        _cli_job("sgld", "sgld", {"seed": _seed(rng), "target": target,
                                  "n_steps": n, "step_size": 0.05}, out),
        _cli_job("hmc", "hmc", {"seed": _seed(rng), "target": target,
                                "n_iter": p["hmc_iter"], "n_leapfrog": 10, "step": 0.15}, out),
        _cli_job("anneal", "anneal", {"seed": _seed(rng),
                                      "loss": {"kind": "double_well", "dim": 2},
                                      "n_steps": p["anneal_steps"], "dt": 0.01,
                                      "lambda": 4.0}, out),
        _cli_job("nsde", "nsde-rollout", {"seed": _seed(rng), "hidden_dim": 4, "T": 1.0,
                                          "dt": 1e-3, "sigma": 0.1,
                                          "inputs": rng.standard_normal((8, 4)).tolist()}, out),
    ]
    lam0, lam1 = rng.uniform(0.5, 2.0, 2)
    jobs.append(_cli_job("sbit", "sbit", {"seed": _seed(rng), "T": p["sbit_T"],
                                          "lambda0": float(lam0), "lambda1": float(lam1),
                                          "x0": 0}, out))
    bits, T = p["bits"], p["coupled_T"]
    times = [0.0, T / 2, T]
    up = [sbit.RateSchedule.piecewise_constant(times, rng.uniform(0.1, 0.4, 2))
          for _ in range(bits)]
    down = [sbit.RateSchedule.piecewise_constant(times, rng.uniform(0.8, 1.6, 2))
            for _ in range(bits)]
    system = sbit.SBitSystem.single_flip(up, down)
    coupled_out = out / "coupled"
    coupled_out.mkdir(parents=True, exist_ok=True)
    jobs.append(Job("coupled", coupled_out, fn=_coupled_job(
        system, bits, T, p["coupled_traj"], _seed(rng), coupled_out)))
    by_name = {j.name: j for j in jobs}

    def check():
        artifacts = {"sghmc": ["chain.csv", "metrics.json"], "sgld": ["chain.csv", "metrics.json"],
                     "hmc": ["chain.csv", "metrics.json"], "anneal": ["chain.csv", "metrics.json"],
                     "nsde": ["weights.csv", "hidden_final.csv"],
                     "sbit": ["trajectory.csv", "metrics.json"], "coupled": ["end_states.csv"]}
        checks = []
        for name, files in artifacts.items():
            checks += finite_artifacts(name, by_name[name].out, files)
        if not all(c.ok for c in checks):
            return checks
        for name in ("sghmc", "sgld", "hmc"):
            err = _chain_err(load_csv(by_name[name].out / "chain.csv"), mean, cov)
            checks.append(Check(name, f"{name}.moments", err <= p["chain_tol"], err))
        best = load_json(by_name["anneal"].out / "metrics.json")["best_loss"]
        checks.append(Check("anneal", "anneal.best_loss", best <= p["anneal_tol"], best))
        occ = load_json(by_name["sbit"].out / "metrics.json")["occupancy_1"]
        err = abs(occ - lam0 / (lam0 + lam1))
        checks.append(Check("sbit", "sbit.occupancy", err <= p["sbit_tol"], err))
        counts, exact = load_csv(by_name["coupled"].out / "end_states.csv").T
        tv = 0.5 * float(np.sum(np.abs(counts / counts.sum() - exact)))
        checks.append(Check("coupled", "coupled.tv", tv <= p["tv_tol"], tv))
        return checks

    return Plan(jobs, check)


WORKLOADS = {"ensemble": ensemble, "programmed": programmed, "demon": demon_workload,
             "chains": chains}


def run_cli(argv):
    """Run one CLI subcommand in this process; return its exit code."""
    try:
        cli.main.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0
