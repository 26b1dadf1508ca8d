"""Paths, statistics, the digest oracle and the environment record.

Only the standard library is imported here, so the walkthrough can run
its timed passes from a process that has not loaded numpy: a child's
peak-RSS reading includes the high-water mark of the process that
spawned it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
from importlib import metadata
from pathlib import Path

from inputs import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GCS_SEED", None)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]): the smallest sample with at
    least q% of the samples at or below it.  Unlike interpolation it never
    lands in the gap between two request kinds of very different cost."""
    data = sorted(values)
    return float(data[max(0, math.ceil(q / 100.0 * len(data)) - 1)])


def median(values) -> float:
    return float(statistics.median(values))


# -- digest oracle -----------------------------------------------------------


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str | None:
    return sha256_bytes(path.read_bytes()) if path.is_file() else None


def tree_digest(path: Path) -> str | None:
    """Digest of every file under a directory, by relative path and content."""
    if not path.is_dir():
        return None
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(file.read_bytes()).digest())
    return h.hexdigest()


class DigestBook:
    """Expected digests by key; a key seen first is recorded, later ones checked.

    At the default seed the book starts from the committed digests, so the
    first pass is checked against the recorded outputs too.
    """

    def __init__(self, expected: dict | None = None):
        self.expected = dict(expected or {})
        self.mismatches: list[str] = []

    def check(self, key: str, digest: str | None) -> bool:
        if digest is None:
            self.mismatches.append(f"{key}: missing")
            return False
        want = self.expected.setdefault(key, digest)
        if want != digest:
            self.mismatches.append(f"{key}: {digest[:12]} != recorded {want[:12]}")
            return False
        return True


def recorded_digests(seed: int, quick: bool) -> dict:
    """The committed digests, which hold for the default seed at full size."""
    if quick or seed != DEFAULT_SEED or not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())


# -- environment -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_line_count() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "gcs").glob("*.py"))
    )


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "src_gcs_lines": src_line_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "executable": Path(sys.executable).name,
    }
