"""One benchmark process: set up one workload, run its jobs once, check them.

    python3 perfbench/worker.py --warmup
    python3 perfbench/worker.py RESULT WORKDIR WORKLOAD SEED REP LAUNCH TRACE

``LAUNCH`` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so ``setup_s`` covers interpreter start, the imports
and writing the generated input files.  The result is written as JSON to
``RESULT``; with ``TRACE`` 1 the spans go next to it.
"""

import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _digest(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv):
    if argv == ["--warmup"]:
        import workloads  # noqa: F401  compiles and caches every module the jobs import
        return 0
    result_path, workdir, workload, seed, rep, launch, trace = argv
    import json
    import resource
    import traceback
    from pathlib import Path

    import tracing
    import workloads

    out = Path(workdir)
    out.mkdir(parents=True, exist_ok=True)
    plan = workloads.WORKLOADS[workload](int(seed), int(rep), out)
    setup_s = _now() - float(launch)

    tracer = tracing.Tracer() if trace == "1" else None
    if tracer:
        tracing.install(tracer)
    jobs = []
    for job in plan.jobs:
        start = time.perf_counter()
        error = None
        try:
            if job.argv is None:
                job.fn()
                code = 0
            elif tracer:
                code = tracer.call(f"cli.{job.argv[0]}", workloads.run_cli, (job.argv,))
            else:
                code = workloads.run_cli(job.argv)
        except Exception:  # a crashing job is a failed job; keep measuring the rest
            code, error = 1, traceback.format_exc()
        jobs.append({"name": job.name, "start": start, "end": time.perf_counter(),
                     "exit": code, "error": error, "cli": job.argv is not None})
    wall_s = jobs[-1]["end"] - jobs[0]["start"]
    if tracer:
        tracer.uninstall()

    try:
        checks = [dict(vars(c), known=(workload, c.id) in workloads.KNOWN_DEFECTS)
                  for c in plan.check()]
    except Exception:  # the checker itself failing must not hide as success
        checks = [{"job": "check", "id": "check.crashed", "ok": False, "err": None,
                   "detail": traceback.format_exc(), "known": False}]
    errs = [c["err"] for c in checks if c["err"] is not None]
    artifacts = {str(p.relative_to(out)): _digest(p)
                 for job in plan.jobs for p in sorted(job.out.rglob("*")) if p.is_file()}
    result = {
        "workload": workload, "rep": int(rep), "traced": tracer is not None,
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_err": max(errs) if errs else None,
        "jobs": jobs, "checks": checks, "artifacts": artifacts,
    }
    if tracer:
        cli_bytes = sum((out / name).stat().st_size for name in artifacts
                        if any(j["cli"] and name.startswith(j["name"] + "/") for j in jobs))
        result["layers"] = tracing.layer_metrics(tracer.spans, cli_bytes)
        with open(Path(result_path).with_suffix(".spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
