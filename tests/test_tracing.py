"""The benchmark's traced run must keep reporting every `demon` layer metric.

`perfbench/tracing.py` shims named methods and functions and drops a metric
whose shim is never called, so a refactor that moves or stops calling one of
them silently loses a per-layer metric.  This runs small versions of the
`demon` workload's jobs under the shims and checks that none is lost.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import thermosim
from thermosim import apps, core_sde, training

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
