"""The benchmark's traced run must keep reporting its layer metrics.

`perfbench/tracing.py` shims named methods and functions and drops a metric
whose shim is never called, so a refactor that moves or stops calling one of
them silently loses a per-layer metric.  These run small versions of the
workloads' jobs under the shims and check that none is lost.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import thermosim
from thermosim import apps, core_sde, gates, sbit, training

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demon_layer_metrics_survive_tracing():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        # Entry points are looked up on their modules here, after install.
        data = thermosim.Gaussian([1.0], [[0.5]])
        sched = training.VPSchedule(beta_min=2.0, T=1.0)
        env = core_sde.SDEModel(A0=[[-1.0]], b0=[0.0], C0=[[np.sqrt(2.0)]])
        objective = training.kernel_dsm_objective(lambda rng, n: data.sample(rng, n), sched,
                                                  16, env_model=env)
        score, _ = training.train_demon(thermosim.ScoreNetworkDemon(1, hidden=(8,), seed=0),
                                        objective, training.TrainConfig(steps=5, seed=0))
        spec = apps.DiffusionSpec("vp", 1, 1.0, schedule=sched)
        apps.diffusion_reverse(spec, score, 32, 0.25, seed=1)
        model = core_sde.SDEModel(A0=-np.eye(2), b0=np.zeros(2), C0=0.3 * np.eye(2))
        dev = thermosim.TotalDerivativeDemon(lambda t, v: np.zeros(2),
                                             lambda t, v: -0.5 * np.eye(2), np.zeros(2))
        core_sde.simulate_ensemble(model, demon=dev, tf=0.1, dt=0.02, n_traj=4, base_seed=2)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 0)
    wanted = sorted(name for name, home in tracing.HOME.items() if home == "demon")
    assert wanted
    missing = [name for name in wanted if name not in layers]
    assert not missing, f"traced demon jobs produced no {missing}"
    for name in wanted:
        assert math.isfinite(layers[name]) and layers[name] > 0, (name, layers[name])
    assert layers["demon.clones"] == 1  # one batch state per ensemble chunk


def test_ensemble_layer_metrics_survive_tracing():
    """A two-chunk ensemble builds its first chunk's generators through the
    shimmed `trajectory_rng` and re-keys them for the second, so the
    stream count is one chunk plus the trajectory's stream, and the traced
    draws give the untraced moments."""
    tracing = _load_tracing()
    model = core_sde.SDEModel(A0=-np.eye(2), b0=[0.3, -0.2], C0=0.5 * np.eye(2))
    kwargs = dict(initial_sampler=core_sde.gaussian_initial([1.0, 0.0], np.eye(2)), tf=0.2,
                  dt=0.01, n_traj=100, base_seed=11, chunk_size=64)
    plain = core_sde.simulate_ensemble(model, **kwargs)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = core_sde.simulate_ensemble(model, **kwargs)
        core_sde.simulate_trajectory(model, tf=0.2, dt=0.01, seed=11)
        core_sde.propagate_moments(model, tf=0.2, dt=0.01)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 0)
    wanted = sorted(name for name, home in tracing.HOME.items() if home == "ensemble")
    assert wanted
    missing = [name for name in wanted if name not in layers]
    assert not missing, f"traced ensemble jobs produced no {missing}"
    for name in wanted:
        assert math.isfinite(layers[name]) and layers[name] > 0, (name, layers[name])
    assert layers["core_sde.rng_streams"] == 64 + 1
    # The oracle's metric is at home in `programmed`; the call above makes it.
    oracle = layers.get("core_sde.oracle_self_us_per_step", math.nan)
    assert math.isfinite(oracle) and oracle > 0
    np.testing.assert_array_equal(traced.means, plain.means)
    np.testing.assert_array_equal(traced.covs, plain.covs)


def test_gate_and_transient_metrics_survive_tracing():
    """`gates.expm` is shimmed by name on its module, so the dense
    exponentials must still be looked up there; the transient oracle must
    stay the module's `transient_distribution`."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        model = core_sde.SDEModel(A0=-np.eye(2), b0=np.zeros(2), C0=np.eye(2))
        seg = gates.GateSegment(gates.Generator.dense("drift_super", 0.1 * np.eye(4)), 0.0, 1.0)
        program = gates.GateProgram(schedule_A=gates.Schedule([seg]))
        for t in (0.25, 0.5):
            program.coefficients(model, t)
        r = sbit.RateSchedule.constant(1.0)
        sbit.transient_distribution(sbit.SBitSystem.single_flip([r] * 3, [r] * 3),
                                    np.full(8, 1 / 8), 0.5)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 0)
    assert layers.get("gates.expm_calls", 0) > 0
    assert layers["gates.coefficients_calls"] == 2
    assert math.isfinite(layers.get("sbit.transient_s", math.nan))
    assert layers["sbit.transient_s"] > 0


def test_chains_layer_metrics_survive_tracing():
    """Tiny versions of every `chains` job except the CLI wrappers: each
    metric tracing.HOME gives `chains` (bar cli.*) is present and nonzero."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        target = apps.mixture_target([0.4, 0.6], [[-0.5, 0.3], [0.5, -0.3]],
                                     [np.diag([0.4, 0.5]), np.diag([0.3, 0.6])])
        apps.sghmc_sample(target, n_steps=50, dt=0.1, seed=1)
        apps.sgld_sample(target, 0.05, n_steps=50, seed=2)
        apps.hmc_sample(target, n_leapfrog=5, step=0.15, n_iter=20, seed=3)
        apps.anneal(apps.double_well_target(2), n_steps=50, dt=0.01, seed=4, lam=4.0)
        spec = apps.NSDESpec(2, 4, lambda t, H, w: np.tanh(H @ w.reshape(2, 2).T),
                             f_w=lambda t, w: -w, sigma=0.1)
        apps.weight_diffuser_rollout(spec, "prior", np.ones((3, 2)), 0.1, 0.01, seed=5)
        r = sbit.RateSchedule.constant(2.0)
        system = sbit.SBitSystem.single_flip([r] * 3, [r] * 3)
        traj = sbit.sample_coupled_trajectory(system, (0, 0, 0), 2.0, seed=6)
        traj.state_at(1.0)
        sbit.transient_distribution(system, np.full(8, 1 / 8), 0.5)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 0)
    wanted = sorted(name for name, home in tracing.HOME.items()
                    if home == "chains" and not name.startswith("cli."))
    assert wanted
    missing = [name for name in wanted if name not in layers]
    assert not missing, f"traced chains jobs produced no {missing}"
    for name in wanted:
        assert math.isfinite(layers[name]) and layers[name] > 0, (name, layers[name])
    # One gradient per leapfrog plus one at the start: 20 * 5 + 1 for HMC.
    assert layers["potentials.gradient_calls"] == 50 + 50 + 20 * 5 + 1 + 50
