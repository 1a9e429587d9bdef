"""Record one BENCH file: every workload's end-to-end figures, a traced run and tier-1.

    python3 tools/record_bench.py BENCH_<n>.json

Run it from the repository root; it needs only the standard library.  It
runs, in this order:

1. ``perfbench/run.py --workload all --seed 1``, then reads every run's
   ``.perfbench_out/<workload>/<workload>-r*-t0.json`` for the run count and
   the median and quartiles of each end-to-end metric;
2. ``perfbench/run.py --workload chains --seed 1 --trace 1`` (it clears
   ``.perfbench_out/chains``, so it comes after step 1's files are read) for
   the per-layer metrics and exact counts;
3. the tier-1 suite, for its wall time and its 15 slowest tests.

It records only a committed tree: when ``git status --porcelain
--untracked-files=no`` lists a change, it names the changed paths and exits
2 before any run, since every run is filed under ``git rev-parse HEAD``.
The file is written even when a step fails; the script then exits 1.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEED = 1
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "accuracy_err")
SLOWEST = 15


def _last_json(stdout):
    """The JSON object on the last line of ``run.py``'s standard output."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _run_bench(root, *flags):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED), *flags]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    return proc.returncode, _last_json(proc.stdout)


def _spread(values):
    """Median and quartiles of the values that are not None."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def uncommitted(root):
    """Tracked paths whose working copy differs from HEAD, as git status lists them."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=root, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def end_to_end(root):
    code, result = _run_bench(root, "--workload", "all")
    workloads, provenance = {}, None
    for name, summary in (result or {}).get("workloads", {}).items():
        base = root / ".perfbench_out" / name
        runs = [json.loads(p.read_text()) for p in sorted(base.glob(f"{name}-r*-t0.json"))]
        record = json.loads((base / "record.json").read_text())
        provenance = {k: v for k, v in record["provenance"].items() if k != "workload"}
        workloads[name] = {
            "runs": len(runs), "correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "reported": {k: m["value"] for k, m in summary["metrics"].items()},
            **{metric: _spread([r[metric] for r in runs]) for metric in END_TO_END}}
    return code == 0 and bool(workloads), provenance, workloads


def traced(root):
    code, result = _run_bench(root, "--workload", "chains", "--trace", "1")
    if result is None:
        return False, None
    record = json.loads((root / ".perfbench_out" / "chains" / "record.json").read_text())
    return code == 0, {"workload": "chains", "correct": result["correct"],
                       "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                       "counts": record["info"]["counts"]}


def tier1(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--durations={SLOWEST}", "-p", "no:cacheprovider"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    slowest = []
    for line in lines:
        m = re.match(r"^([\d.]+)s (call|setup|teardown)\s+(.+)$", line.strip())
        if m:
            slowest.append({"s": float(m[1]), "phase": m[2], "test": m[3]})
    summary = next((line.strip("= ") for line in reversed(lines)
                    if re.search(r"\d+ (passed|failed)", line)), None)
    return proc.returncode == 0, {"wall_s": wall, "exit": proc.returncode, "summary": summary,
                                  "slowest": slowest[:SLOWEST]}


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/record_bench.py BENCH_<n>.json", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        print("run from the repository root: perfbench/run.py is missing", file=sys.stderr)
        return 2
    changed = uncommitted(root)
    if changed:
        print("commit first: the runs would be filed under HEAD, but these paths differ "
              "from it:\n" + "\n".join(changed), file=sys.stderr)
        return 2
    ok_all, provenance, workloads = end_to_end(root)
    ok_trace, trace = traced(root)
    ok_tests, tests = tier1(root)
    bench = {"provenance": provenance, "workloads": workloads,
             "trace": trace, "tier1": tests}
    Path(argv[0]).write_text(json.dumps(bench, indent=1) + "\n")
    return 0 if ok_all and ok_trace and ok_tests else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
