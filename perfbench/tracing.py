"""Traced run: timing shims around calls into each thermosim module.

The shims live in the benchmark, not in the program.  ``install`` replaces
public functions and methods with wrappers that record a span (name, start,
end, parent, attributes) around the original call and return its result
untouched, so a traced run draws the same numbers and writes the same bytes
as an untraced one.  ``layer_metrics`` turns the spans into per-unit costs and
exact counts.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

# Per-layer metric -> the workload whose traced run reports it.
HOME = {
    "core_sde.ensemble_ns_per_traj_step": "ensemble",
    "core_sde.noise_ns_per_traj_step": "ensemble",
    "core_sde.ensemble_self_ns_per_traj_step": "ensemble",
    "core_sde.noise_block_mb": "ensemble",
    "core_sde.trajectory_us_per_step": "ensemble",
    "core_sde.oracle_self_us_per_step": "programmed",
    "core_sde.rng_streams": "ensemble",
    "gates.coefficients_calls": "programmed",
    "gates.expm_calls": "programmed",
    "gates.coefficients_us_per_call": "programmed",
    "apps.latent_us_per_step": "programmed",
    "apps.reverse_self_ns_per_sample_step": "demon",
    "demon.query_batch_ns_per_sample": "demon",
    "demon.stateful_ns_per_traj_step": "demon",
    "demon.clones": "demon",
    "mlp.forward_ns_per_sample": "demon",
    "mlp.backward_ns_per_sample": "demon",
    "mlp.adam_step_us": "demon",
    "training.step_us": "demon",
    "training.objective_self_us_per_step": "demon",
    "apps.sghmc_self_us_per_step": "chains",
    "apps.sgld_self_us_per_step": "chains",
    "apps.anneal_self_us_per_step": "chains",
    "apps.nsde_us_per_step": "chains",
    "apps.hmc_self_us_per_leapfrog": "chains",
    "apps.hmc_accept_ratio": "chains",
    "potentials.gradient_calls": "chains",
    "potentials.gradient_us_per_call": "chains",
    "potentials.value_us_per_call": "chains",
    "sbit.events_per_s": "chains",
    "sbit.clock_use_ratio": "chains",
    "sbit.state_at_us_per_call": "chains",
    "sbit.transient_s": "chains",
    "cli.self_s": "chains",
    "cli.bytes_written": "chains",
}

# Exact counts: two traced runs of the same code and seed must agree on them.
COUNTS = ("core_sde.rng_streams", "gates.coefficients_calls", "gates.expm_calls",
          "demon.clones", "potentials.gradient_calls", "sbit.clock_use_ratio",
          "cli.bytes_written", "core_sde.noise_block_mb")

# Noise draws are timed only inside these spans; elsewhere the generator is
# returned bare so per-step samplers do not pay for a proxy.
_NOISE_PARENTS = ("core_sde.simulate_ensemble", "core_sde.simulate_trajectory")


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self.stack = []
        self._undo = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        kwargs = kwargs or {}
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        if attrs is not None:
            rec[4] = attrs(args, kwargs, result)
        return result

    def inside(self, names):
        return any(self.spans[i][0] in names for i in self.stack)

    def _replace(self, owner, attr, new, orig, everywhere):
        targets = [owner]
        if everywhere:
            targets += [m for key, m in list(sys.modules.items())
                        if key.startswith("thermosim") and m is not owner
                        and getattr(m, attr, None) is orig]
        for target in targets:
            setattr(target, attr, new)
            self._undo.append((target, attr, orig))

    def patch(self, owner, attr, name, attrs=None, everywhere=True):
        """Shim ``owner.attr``; for a module function also every thermosim
        module that imported the same object by name."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def shim(*args, **kwargs):
            return tracer.call(name, orig, args, kwargs, attrs)

        self._replace(owner, attr, shim, orig, everywhere and not isinstance(owner, type))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()


class _TracedGenerator:
    """Forwards every call to a numpy Generator inside a ``core_sde.rng_draw`` span."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        return lambda *a, **k: self._tracer.call("core_sde.rng_draw", attr, a, k)


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return arguments


def _grid_steps(a):
    return round((a["tf"] - a["t0"]) / a["dt"])


def _latent_steps(a):
    """Steps latent_sde_rollout takes: each checkpoint gap is split into
    ceil(gap / dt) equal steps."""
    t, steps = a["t0"], 0
    for tk in a["checkpoint_times"]:
        tk = float(tk)
        if abs(tk - t) >= 1e-12:
            steps += max(1, math.ceil((tk - t) / a["dt"] - 1e-9))
        t = tk
    return steps


def install(tracer):
    """Shim every traced entry point.  Imports happen here, after set-up."""
    from thermosim import apps, core_sde, demon, gates, mlp, potentials, sbit, training

    def with_args(fn, make):
        arguments = _bound(fn)
        return lambda args, kwargs, result: make(arguments(args, kwargs), result)

    p = tracer.patch
    p(core_sde, "simulate_ensemble", "core_sde.simulate_ensemble",
      with_args(core_sde.simulate_ensemble, lambda a, r: {
          "traj_steps": a["n_traj"] * _grid_steps(a),
          "noise_block_bytes": min(a["chunk_size"], a["n_traj"]) * _grid_steps(a)
          * a["model"].dim * 8}))
    for fn, name in ((core_sde.simulate_trajectory, "core_sde.simulate_trajectory"),
                     (core_sde.propagate_moments, "core_sde.propagate_moments")):
        p(core_sde, fn.__name__, name, with_args(fn, lambda a, r: {"steps": _grid_steps(a)}))

    rng_orig = core_sde.trajectory_rng

    def trajectory_rng(*args, **kwargs):
        gen = tracer.call("core_sde.trajectory_rng", rng_orig, args, kwargs)
        return _TracedGenerator(gen, tracer) if tracer.inside(_NOISE_PARENTS) else gen

    tracer._replace(core_sde, "trajectory_rng", trajectory_rng, rng_orig, True)

    p(gates, "expm", "gates.expm", everywhere=False)
    p(gates.GateProgram, "coefficients", "gates.coefficients")

    p(apps, "latent_sde_rollout", "apps.latent_sde_rollout",
      with_args(apps.latent_sde_rollout, lambda a, r: {"steps": _latent_steps(a)}))
    p(apps, "diffusion_reverse", "apps.diffusion_reverse",
      with_args(apps.diffusion_reverse, lambda a, r: {
          "sample_steps": a["n_samples"] * round(a["spec"].T / a["dt"])}))
    for fn in (apps.sghmc_sample, apps.sgld_sample, apps.anneal):
        p(apps, fn.__name__, f"apps.{fn.__name__}",
          with_args(fn, lambda a, r: {"steps": a["n_steps"]}))
    p(apps, "weight_diffuser_rollout", "apps.weight_diffuser_rollout",
      with_args(apps.weight_diffuser_rollout, lambda a, r: {"steps": round(a["T"] / a["dt"])}))
    p(apps, "hmc_sample", "apps.hmc_sample",
      with_args(apps.hmc_sample, lambda a, r: {"leapfrogs": a["n_iter"] * a["n_leapfrog"],
                                               "accept": r[1]}))

    p(demon.ScoreNetworkDemon, "query_batch", "demon.query_batch",
      lambda args, kwargs, r: {"rows": len(args[2])})
    p(demon.TotalDerivativeDemon, "query", "demon.stateful_query")
    p(demon.TotalDerivativeDemon, "advance", "demon.stateful_advance")
    p(demon.Demon, "clone", "demon.clone")

    p(mlp.MLP, "forward", "mlp.forward", lambda args, kwargs, r: {"rows": len(args[1])})
    p(mlp.MLP, "backward", "mlp.backward", lambda args, kwargs, r: {"rows": len(args[2])})
    p(mlp.Adam, "step", "mlp.adam_step")

    p(training, "train_demon", "training.train_demon",
      lambda args, kwargs, r: {"steps": len(r[1])})
    objective_factory = training.kernel_dsm_objective

    @functools.wraps(objective_factory)
    def kernel_dsm_objective(*args, **kwargs):
        objective = objective_factory(*args, **kwargs)
        return lambda dev, rng: tracer.call("training.objective", objective, (dev, rng))

    tracer._replace(training, "kernel_dsm_objective", kernel_dsm_objective, objective_factory,
                    True)

    for cls in (potentials.Potential, potentials.QuadraticPotential,
                potentials.DoubleWellPotential, potentials.NegativeLogDensityPotential):
        for method in ("value", "gradient"):
            if method in cls.__dict__:
                p(cls, method, f"potentials.{method}")

    p(sbit, "sample_coupled_trajectory", "sbit.sample_coupled_trajectory",
      lambda args, kwargs, r: {"jumps": len(r.jumps)})
    p(sbit, "transient_distribution", "sbit.transient_distribution")
    p(sbit.RateSchedule, "first_event", "sbit.first_event")
    p(sbit.SBitTrajectory, "state_at", "sbit.state_at")


def layer_metrics(spans, bytes_written):
    """Per-unit costs and counts from one traced workload process.

    Returns only the metrics whose layer the workload exercised.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def count(name):
        return len(by_name[name])

    def total(name, self_time=False):
        return sum(dur[i] - (child[i] if self_time else 0.0) for i in by_name[name])

    def attr(name, key):
        return sum(spans[i][4][key] for i in by_name[name])

    def under(i, name):
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    out = {}

    def put(metric, value_fn, *needed):
        if all(count(name) for name in needed):
            out[metric] = value_fn()

    ens = "core_sde.simulate_ensemble"
    put("core_sde.ensemble_ns_per_traj_step",
        lambda: 1e9 * total(ens) / attr(ens, "traj_steps"), ens)
    put("core_sde.noise_ns_per_traj_step", lambda: 1e9 * sum(
        dur[i] for name in ("core_sde.trajectory_rng", "core_sde.rng_draw")
        for i in by_name[name] if under(spans[i][3], ens)) / attr(ens, "traj_steps"), ens)
    put("core_sde.ensemble_self_ns_per_traj_step",
        lambda: 1e9 * total(ens, True) / attr(ens, "traj_steps"), ens)
    put("core_sde.noise_block_mb",
        lambda: max(spans[i][4]["noise_block_bytes"] for i in by_name[ens]) / 2 ** 20, ens)
    for metric, name, scale, unit_key, self_time in (
            ("core_sde.trajectory_us_per_step", "core_sde.simulate_trajectory", 1e6, "steps",
             False),
            ("core_sde.oracle_self_us_per_step", "core_sde.propagate_moments", 1e6, "steps", True),
            ("apps.latent_us_per_step", "apps.latent_sde_rollout", 1e6, "steps", False),
            ("apps.reverse_self_ns_per_sample_step", "apps.diffusion_reverse", 1e9,
             "sample_steps", True),
            ("demon.query_batch_ns_per_sample", "demon.query_batch", 1e9, "rows", True),
            ("mlp.forward_ns_per_sample", "mlp.forward", 1e9, "rows", False),
            ("mlp.backward_ns_per_sample", "mlp.backward", 1e9, "rows", False),
            ("training.step_us", "training.train_demon", 1e6, "steps", False),
            ("apps.sghmc_self_us_per_step", "apps.sghmc_sample", 1e6, "steps", True),
            ("apps.sgld_self_us_per_step", "apps.sgld_sample", 1e6, "steps", True),
            ("apps.anneal_self_us_per_step", "apps.anneal", 1e6, "steps", True),
            ("apps.nsde_us_per_step", "apps.weight_diffuser_rollout", 1e6, "steps", False),
            ("apps.hmc_self_us_per_leapfrog", "apps.hmc_sample", 1e6, "leapfrogs", True)):
        put(metric, lambda name=name, scale=scale, key=unit_key, s=self_time:
            scale * total(name, s) / attr(name, key), name)
    put("core_sde.rng_streams", lambda: count("core_sde.trajectory_rng"), "core_sde.trajectory_rng")
    put("gates.coefficients_calls", lambda: count("gates.coefficients"), "gates.coefficients")
    put("gates.expm_calls", lambda: count("gates.expm"), "gates.coefficients")
    for metric, name in (("gates.coefficients_us_per_call", "gates.coefficients"),
                         ("mlp.adam_step_us", "mlp.adam_step"),
                         ("potentials.gradient_us_per_call", "potentials.gradient"),
                         ("potentials.value_us_per_call", "potentials.value"),
                         ("sbit.state_at_us_per_call", "sbit.state_at")):
        put(metric, lambda name=name: 1e6 * total(name) / count(name), name)
    put("demon.stateful_ns_per_traj_step", lambda: 1e9 * (
        total("demon.stateful_query") + total("demon.stateful_advance"))
        / count("demon.stateful_advance"), "demon.stateful_advance")
    put("demon.clones", lambda: count("demon.clone"), "demon.clone")
    put("training.objective_self_us_per_step",
        lambda: 1e6 * total("training.objective", True) / count("training.objective"),
        "training.objective")
    put("apps.hmc_accept_ratio", lambda: attr("apps.hmc_sample", "accept")
        / count("apps.hmc_sample"), "apps.hmc_sample")
    put("potentials.gradient_calls", lambda: count("potentials.gradient"), "potentials.gradient")
    coupled = "sbit.sample_coupled_trajectory"
    put("sbit.events_per_s", lambda: attr(coupled, "jumps") / total(coupled), coupled)
    put("sbit.clock_use_ratio", lambda: attr(coupled, "jumps") / count("sbit.first_event"),
        coupled, "sbit.first_event")
    put("sbit.transient_s", lambda: total("sbit.transient_distribution"),
        "sbit.transient_distribution")
    cli_spans = [i for i, s in enumerate(spans) if s[0].startswith("cli.")]
    if cli_spans:
        out["cli.self_s"] = sum(dur[i] - child[i] for i in cli_spans)
        out["cli.bytes_written"] = bytes_written
    return out
