"""tools/record_bench.py records only a committed tree."""

import subprocess
import sys
from pathlib import Path

RECORDER = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"


def git(root, *args):
    subprocess.run(["git", "-c", "user.name=test", "-c", "user.email=test@example.com", *args],
                   cwd=root, check=True, capture_output=True)


def test_record_bench_refuses_a_tree_that_differs_from_head(tmp_path):
    """Every run is filed under HEAD's sha, so a changed tracked file stops
    the recorder before any run; an untracked file does not count."""
    run_py = tmp_path / "perfbench" / "run.py"
    run_py.parent.mkdir()
    run_py.write_text("raise SystemExit('a benchmark ran')\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "stub harness")
    run_py.write_text("raise SystemExit('a changed benchmark ran')\n")
    (tmp_path / "notes.txt").write_text("untracked")
    proc = subprocess.run([sys.executable, str(RECORDER), "BENCH_0.json"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert " M perfbench/run.py" in proc.stderr
    assert "notes.txt" not in proc.stderr and "benchmark ran" not in proc.stderr
    assert not (tmp_path / "BENCH_0.json").exists()
