"""thermosim benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics: it starts one fresh worker process after another (one process per
run of the workload's jobs, never two at once) until ``--seconds`` have
passed, and reports medians.  ``--trace 1`` runs the workload once untraced
and twice traced, and every other workload once traced, then reports every
per-layer metric from the workload that exercises it.  The last line of
standard output is the result as one JSON object.  ``programmed`` runs here
like the others, but BENCHMARK.json leaves it out of the gated workloads
because its wall time is too unsteady; see NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  stdlib only; thermosim is imported by the workers

WORKLOADS = ("ensemble", "programmed", "demon", "chains")
ACCURACY_REPS = 6  # runs every --trace 0 run makes; accuracy_err is their mean
DEADLINE_S = 150  # start no further run once this much time has gone
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env(root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **THREADS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _launch(root, base, env, workload, seed, rep, trace):
    """Run one worker process to completion and return its result."""
    # One fixed working directory, so paths written into artifacts (such as
    # the manifests' output_dir) and thus cli.bytes_written never depend on
    # which workload's run launched the worker.
    workdir = root / ".perfbench_out" / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = base / f"{workload}-r{rep}-t{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(result), str(workdir), workload,
           str(seed), str(rep), repr(_now()), str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=root, timeout=DEADLINE_S,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"worker for {workload} rep {rep} exited {proc.returncode}")
    return json.loads(result.read_text())


def _failures(results):
    """(attempted jobs, failed jobs, unexpected failures) over worker results."""
    attempted = failed = 0
    unexpected = []
    for r in results:
        for job in r["jobs"]:
            attempted += 1
            bad = [c for c in r["checks"] if c["job"] == job["name"] and not c["ok"]]
            if job["exit"] != 0:
                bad.append({"id": f"{job['name']}.exit", "detail": job["error"] or job["exit"],
                            "known": False})
            if bad:
                failed += 1
            unexpected += [f"{r['workload']} rep {r['rep']}: {c['id']} {c.get('detail', '')}"
                           for c in bad if not c["known"]]
        if r["checks"] and r["checks"][0]["id"] == "check.crashed":
            unexpected.append(f"{r['workload']} rep {r['rep']}: {r['checks'][0]['detail']}")
    return attempted, failed, unexpected


def timed_run(root, base, env, workload, seed, seconds):
    runs = []
    start = _now()
    while True:
        rep_start = _now()
        runs.append(_launch(root, base, env, workload, seed, len(runs), 0))
        took, elapsed = _now() - rep_start, _now() - start
        # Start another run only if, taking as long as this one, it would end
        # nearer to --seconds than stopping now does.  This keeps the length
        # of a whole benchmark pass close to its planned budget.
        if len(runs) >= ACCURACY_REPS and elapsed + took / 2 > seconds:
            break
        if elapsed + took > DEADLINE_S:
            break
    attempted, failed, unexpected = _failures(runs)
    accuracy = [r["accuracy_err"] for r in runs[:ACCURACY_REPS]]
    metrics = {name: statistics.median(r[name] for r in runs)
               for name in ("wall_s", "setup_s", "peak_rss_mb")}
    if None in accuracy:
        unexpected.append("a run produced no accuracy figure")
    else:
        metrics["accuracy_err"] = statistics.fmean(accuracy)
    info = {"runs": len(runs), "wall_s_all": [r["wall_s"] for r in runs],
            "setup_s_all": [r["setup_s"] for r in runs],
            "accuracy_err_all": accuracy}
    return metrics, attempted, failed, unexpected, info


def traced_run(root, base, env, workload, seed):
    untraced = _launch(root, base, env, workload, seed, 0, 0)
    traced = [_launch(root, base, env, workload, seed, 0, 1) for _ in range(2)]
    by_workload = {workload: traced[0]}
    for other in WORKLOADS:
        if other != workload:
            by_workload[other] = _launch(root, base, env, other, seed, 0, 1)
    results = [untraced, *traced, *(r for w, r in by_workload.items() if w != workload)]
    attempted, failed, unexpected = _failures(results)
    for r in traced:
        if r["artifacts"] != untraced["artifacts"]:
            diff = sorted(k for k in set(r["artifacts"]) | set(untraced["artifacts"])
                          if r["artifacts"].get(k) != untraced["artifacts"].get(k))
            unexpected.append(f"traced artifacts differ from untraced: {diff}")
    counts = [{k: v for k, v in r["layers"].items() if k in tracing.COUNTS} for r in traced]
    if counts[0] != counts[1]:
        unexpected.append(f"counts differ between two traced runs: {counts}")
    metrics = {}
    for name, home in tracing.HOME.items():
        value = by_workload[home]["layers"].get(name)
        if value is None:
            unexpected.append(f"{home} did not produce {name}")
        else:
            metrics[name] = value
    metrics["trace.overhead_frac"] = (
        statistics.fmean(r["wall_s"] for r in traced) - untraced["wall_s"]) / untraced["wall_s"]
    info = {"counts": counts[0], "sha256_identical": not any(
        "artifacts differ" in u for u in unexpected)}
    return metrics, attempted, failed, unexpected, info


def provenance(root, workload, seed, env):
    probe = ("import json, numpy, scipy; cfg = numpy.show_config(mode='dicts');"
             "blas = cfg['Build Dependencies']['blas'];"
             "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             "'blas': blas.get('name'), 'blas_version': blas.get('version')}))")
    versions = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                         capture_output=True, text=True, timeout=60).stdout)
    sha = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        sha = git.stdout.strip() or None
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "blas_threads": THREADS, "git_sha": sha}


def run_workload(root, args, workload):
    base = root / ".perfbench_out" / workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    env = _env(root)
    # Untimed: the first import compiles the sources to bytecode.
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--warmup"], env=env, cwd=root,
                   check=True, timeout=DEADLINE_S)
    if args.trace:
        metrics, attempted, failed, unexpected, info = traced_run(
            root, base, env, workload, args.seed)
    else:
        metrics, attempted, failed, unexpected, info = timed_run(
            root, base, env, workload, args.seed, args.seconds)
    meta = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in meta["end_to_end"] + meta["per_layer"]}
    record = {"provenance": provenance(root, workload, args.seed, env), "info": info,
              "failed_frac": failed / attempted, "unexpected_failures": unexpected}
    print(json.dumps(record))
    (base / "record.json").write_text(json.dumps(record, indent=1))
    for name, value in metrics.items():
        print(f"{workload:>10}  {name:<40} {value:>14.6g} {units.get(name, '')}")
    for line in unexpected:
        print(f"FAILED {line}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "thermosim" / "__init__.py").is_file() \
            or not (root / "BENCHMARK.json").is_file():
        print("run from the root of a thermosim checkout: src/thermosim or "
              "BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {w: run_workload(root, args, w) for w in WORKLOADS}
        print(json.dumps({"workloads": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(run_workload(root, args, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
