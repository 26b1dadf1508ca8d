"""The README's experiment scripts print the same bytes as before.

Each script runs as its own process on a fresh work directory; the
directory's path is replaced by a placeholder before hashing, so only the
numbers and the wording are compared.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "run_spatial_ablation.py": "2832b83882cf3a2c81753a49540fc24729f3f3bf2f975eae707203dd2fd08673",
    "run_landscape_demo.py": "14c12fb8daf0139e8508a0c29a753cbb676a3dc0c6e1a879c27cb82e12022d72",
}


@pytest.mark.parametrize("script", STDOUT_SHA256)
def test_script_stdout_unchanged(tmp_path, script):
    work = tmp_path / "work"
    env = {key: value for key, value in os.environ.items() if key != "GCS_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--work", str(work)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stdout = proc.stdout.replace(str(work), "<work>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[script], stdout
