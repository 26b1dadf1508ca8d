"""gcs benchmark: the README walkthrough, small-batch requests and bulk batches.

    python3 perfbench/run.py --workload walkthrough|small-batch|bulk \\
        [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from the repository root.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
line before it records the environment and sample counts; both are also
written under .perfbench_out/.  `--record-digests` rewrites
perfbench/digests.json from the default seed (only when outputs are meant
to change).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import (
    OUT, SRC, DigestBook, environment, fresh_dir, median, percentile, pin_threads,
    recorded_digests,
)
from inputs import DEFAULT_SEED, derive

# BENCHMARK.json gates walkthrough and bulk; small-batch swings too much with
# the host to gate (perfbench/README.md, "Workloads") but stays runnable.
WORKLOADS = ("walkthrough", "small-batch", "bulk")

# name -> unit; error_rate is reported as success_rate = 1 - failed/attempted
# because a metric that reads 0 has no relative spread.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "tokens_per_s": "tok/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def end_to_end(run: dict) -> dict:
    """Metrics of an untraced run.

    A pass issues one request of each kind (a command, a `batch_sample`
    call or a batch), and the run is whole passes.  Each kind's median
    latency stands for the kind, so one slow request cannot move a metric:
    `pipeline_s` is the sum of the kind medians (the median pass), and the
    request percentiles are nearest-rank percentiles over the kind medians,
    every kind weighing the same as it does in a pass.  Bulk has two kinds,
    so its p50 is the guided batch and its p90 the unguided one.
    """
    medians = {kind: median(times) for kind, times in run["latencies"].items()}
    values = {
        "setup_s": median(run["setup_times"]),
        "pipeline_s": sum(medians.values()),
        "request_p50_ms": 1000.0 * percentile(medians.values(), 50),
        "request_p90_ms": 1000.0 * percentile(medians.values(), 90),
        "tokens_per_s": run["tokens_per_pass"] / sum(medians[k] for k in run["sampling"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "success_rate": 1.0 - run["failed"] / run["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def samples(run: dict) -> dict:
    """Sample counts, and the percentiles over every single request for reference."""
    pooled = [t for times in run["latencies"].values() for t in times]
    return {
        "setup_reps": len(run["setup_times"]),
        "passes": min(len(times) for times in run["latencies"].values()),
        "requests": len(pooled),
        "pooled_p50_ms": 1000.0 * percentile(pooled, 50),
        "pooled_p90_ms": 1000.0 * percentile(pooled, 90),
        "median_s": {kind: median(times) for kind, times in run["latencies"].items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
                 book: DigestBook | None = None) -> tuple[dict, dict]:
    """Returns (result line, record); `book` overrides the expected digests."""
    inputs = derive(seed, quick)
    if book is None:
        book = DigestBook(recorded_digests(seed, quick))
    record = {"workload": workload, "seed": seed, "trace": int(trace), "quick": quick,
              "env": environment()}
    if trace:
        from layers import traced_run

        metrics, tally = traced_run(workload, inputs, book)
        attempted, failed = tally.attempted, tally.failed
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())}
    else:
        if workload == "walkthrough":
            import walkthrough

            run = walkthrough.run(inputs, seconds, book)
        else:
            import inproc

            run = inproc.run(workload, inputs, seconds, book)
        attempted, failed = run["attempted"], run["failed"]
        metrics = end_to_end(run)
        record["samples"] = samples(run)
    record["mismatches"] = book.mismatches
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, record


def record_digests() -> None:
    """Recompute digests.json at the default seed, after the scalar oracle agrees."""
    import inproc
    import walkthrough
    from common import DIGESTS, WORK, child_env, tree_digest
    from spans import NullTracer

    inputs = derive(DEFAULT_SEED, False)
    book = DigestBook()
    base = WORK / "record"
    walkthrough.setup(inputs, base)
    stages = walkthrough.run_pass(inputs, base)
    failed = walkthrough.check_pass(book, base, stages)
    failed += ["oracle"] * walkthrough.oracle_failures(inputs, base / "work")
    # At the default seed the generated config must reproduce the README's preset.
    subprocess.run([sys.executable, "-m", "gcs.cli", "gen-world", "--preset", "landscape-2x4",
                    "--out", "preset"], cwd=base, env=child_env(), check=True,
                   capture_output=True)
    if tree_digest(base / "preset") != book.expected["walkthrough/bench"]:
        failed.append("preset")
    for workload in ("small-batch", "bulk"):
        setup = inproc.build(workload, inputs, fresh_dir(base / workload), NullTracer())
        loop = inproc.Loop(workload, inputs, setup, book, NullTracer())
        for cycle in range(inproc.cycles_to_cover(workload)):
            loop.cycle(cycle, timed=False)
        loop.oracle()
        failed += [workload] * loop.failed
    shutil.rmtree(base, ignore_errors=True)
    if failed:
        raise SystemExit(f"not recording digests; failed: {failed}")
    DIGESTS.write_text(json.dumps(book.expected, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(book.expected)} digests to {DIGESTS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gcs benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default="walkthrough")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gcs" / "__init__.py").is_file():
        print(f"error: no gcs package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    if args.probe:
        import inproc

        inproc.probe_main(Path(args.probe), args.workload)
        return 0
    if args.record_digests:
        record_digests()
        return 0
    line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.quick)
    record["result"] = line
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
