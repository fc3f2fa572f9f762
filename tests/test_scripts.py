"""The scripts under scripts/ run to completion on small inputs."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_hardness_sweep_correspondences_hold():
    proc = run_script("hardness_sweep.py", "--samples", "3", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "all correspondences hold" in proc.stdout


def test_demo_authors_runs_end_to_end(tmp_path):
    proc = run_script("demo_authors.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "solutions (3):" in proc.stdout
    assert (tmp_path / "out" / "solution_001.txt").read_text(encoding="utf-8") == \
        "eqo\ta1\ta2\neqv\tt1\t2\tt2\t2\neqv\tt4\t2\tt5\t2\n"
