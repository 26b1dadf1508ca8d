"""Quick-mode self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

With tiny sizes it checks that every workload completes with and without
tracing, that every metric in BENCHMARK.json prints with its unit, that a
deliberately corrupted digest raises the error rate above 0, and that the
benchmark fails without printing a result where there is no gcs source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import ROOT, SRC, WORK, DigestBook, fresh_dir, pin_threads
from run import WORKLOADS, run_workload


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def expect(condition: bool, message: str, detail: str = "") -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}\n{detail}")
    print(f"ok: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:  # small-batch too: it is not gated but stays runnable
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_cli("--workload", workload, "--seed", "5", "--seconds", "1",
                           "--trace", str(trace), "--quick")
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0", proc.stderr[-2000:])
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                   f"{workload} trace={trace} is correct")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} prints every {section} metric with its unit")

    pin_threads()
    sys.path.insert(0, str(SRC))
    for workload, key in (("walkthrough", "walkthrough/model.json"), ("bulk", "bulk/bulk-global/0")):
        line, _ = run_workload(workload, 0, 1.0, False, True, book=DigestBook({key: "0" * 64}))
        rate = 1.0 - line["metrics"]["success_rate"]["value"]
        expect(not line["correct"] and rate > 0, f"a corrupted {key} digest gives error rate {rate:.3f}")

    bare = fresh_dir(WORK / "selftest-bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "bulk", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/gcs the benchmark exits nonzero and prints no result")


if __name__ == "__main__":
    main()
