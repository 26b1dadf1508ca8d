"""The README walkthrough: seven `gcs` commands, each its own process.

The guided `sample` line passes `--height 32 --width 32`, which the README
omits (without them the command exits with "need either --semantics or
both --height and --width").  `gen-world` reads a config file rather than
`--preset landscape-2x4` so that the workload seed can move the world seed;
at the default seed the config is the preset exactly and every artifact
matches the preset run byte for byte.

This module imports only the standard library at load time; see common.py.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, WORK, child_env, file_digest, fresh_dir, tree_digest
from inputs import HEIGHT, QUICK, WIDTH, Inputs

STAGES = (
    "gen_world",
    "train_prior",
    "dataset_stats",
    "style_stats",
    "sample_guided",
    "sample_plain",
    "evaluate",
)

# Artifacts each stage writes, relative to the pass directory: (key, path, is_tree).
ARTIFACTS = {
    "gen_world": (("bench", "work/bench", True),),
    "train_prior": (("model.json", "work/model.json", False),),
    "dataset_stats": (("dataset.json", "work/dataset.json", False),),
    "style_stats": (("style.json", "work/style.json", False),),
    "sample_guided": (("guided", "work/guided", True),),
    "sample_plain": (("plain", "work/plain", True),),
    "evaluate": (
        ("report.json", "work/report.json", False),
        ("report.csv", "work/report.csv", False),
    ),
}

STAGE_TIMEOUT_S = 120
ORACLE_GRIDS = 2  # leading samples of each set re-drawn with the scalar sampler


def stage_argv(stage: str, inputs: Inputs, base: Path) -> list[str]:
    """Arguments of one README command, with paths relative to `base`."""
    n = str(inputs.sizes.walkthrough_n)
    seed = str(inputs.sample_seed)
    shape = ["--height", str(HEIGHT), "--width", str(WIDTH)]
    if stage == "gen_world":
        return ["gen-world", "--config", "world.json", "--out", "work/bench"]
    if stage == "train_prior":
        return ["train-prior", "--corpus", "work/bench/corpus", "--out", "work/model.json"]
    if stage == "dataset_stats":
        return [
            "dataset-stats", "--corpus", "work/bench/corpus",
            "--out", "work/dataset.json", "--seed", str(inputs.stats_seed),
        ]
    if stage == "style_stats":
        exemplars = sorted(
            p.relative_to(base).as_posix()
            for p in (base / "work/bench/exemplars/style0").glob("*.tgrd")
        )
        return ["style-stats", *exemplars, "--average", "--out", "work/style.json"]
    if stage == "sample_guided":
        return [
            "sample", "--model", "work/model.json", "--style-stats", "work/style.json",
            "--dataset-stats", "work/dataset.json", "--out", "work/guided",
            "--n", n, "--seed", seed, *shape,
        ]
    if stage == "sample_plain":
        return [
            "sample", "--model", "work/model.json", "--no-guidance", *shape,
            "--out", "work/plain", "--n", n, "--seed", seed,
        ]
    return [
        "evaluate", "--guided", "work/guided", "--unguided", "work/plain",
        "--style-stats", "work/style.json", "--out", "work/report.json",
    ]


def write_world_config(inputs: Inputs, base: Path) -> float:
    """Set-up: a child process writes the world config; returns its wall time."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "inputs.py"), str(base / "world.json"),
        "--world-seed", str(inputs.world_seed),
    ]
    if inputs.sizes == QUICK:
        argv.append("--quick")
    start = time.perf_counter()
    _run_child(argv, env=child_env())
    return time.perf_counter() - start


def _run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion, capturing its output.

    Captured pipes make the timeout wait end when the child closes them; a
    bare timeout wait polls and rounds the measured time up to 50 ms steps.
    """
    return subprocess.run(argv, capture_output=True, text=True, check=True,
                          timeout=STAGE_TIMEOUT_S, **kwargs)


def setup(inputs: Inputs, base: Path) -> list[float]:
    fresh_dir(base)
    times = []
    for _ in range(inputs.sizes.setup_reps):
        (base / "world.json").unlink(missing_ok=True)
        times.append(write_world_config(inputs, base))
    return times


def run_pass(inputs: Inputs, base: Path) -> dict:
    """Run the seven commands once in `base/work`; returns per-stage records."""
    fresh_dir(base / "work")
    env = child_env()
    stages = {}
    for stage in STAGES:
        argv = [sys.executable, "-m", "gcs.cli", *stage_argv(stage, inputs, base)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=base, env=env, capture_output=True, text=True,
                timeout=STAGE_TIMEOUT_S,
            )
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = -1, f"timed out after {STAGE_TIMEOUT_S} s"
        stages[stage] = {"seconds": time.perf_counter() - start, "code": code, "stderr": err}
    return stages


def check_pass(book, base: Path, stages: dict) -> list[str]:
    """Stages that exited nonzero or whose artifacts do not match the book."""
    failed = []
    for stage in STAGES:
        ok = stages[stage]["code"] == 0
        if not ok:
            print(f"{stage} exited {stages[stage]['code']}: {stages[stage]['stderr'].strip()}",
                  file=sys.stderr)
        for key, rel, is_tree in ARTIFACTS[stage]:
            digest = (tree_digest if is_tree else file_digest)(base / rel)
            ok = book.check(f"walkthrough/{key}", digest) and ok
        if not ok:
            failed.append(stage)
    return failed


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run(inputs: Inputs, seconds: float, book) -> dict:
    """Set up, then run whole passes for about `seconds`; keeps pass 0 for the oracle."""
    base = WORK / f"walkthrough-{os.getpid()}"
    setup_times = setup(inputs, base)
    passes = []
    failed = 0
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        stages = run_pass(inputs, base)
        failed += len(check_pass(book, base, stages))
        passes.append(stages)
        if len(passes) == 1:
            os.replace(base / "work", base / "pass0")
        iteration = time.perf_counter() - begin
        if time.perf_counter() - started + iteration > seconds:
            break
    peak = children_peak_rss_mb()
    failed += oracle_failures(inputs, base / "pass0")
    shutil.rmtree(base, ignore_errors=True)
    return {
        "setup_times": setup_times,
        "latencies": {s: [p[s]["seconds"] for p in passes] for s in STAGES},
        "sampling": ["sample_guided", "sample_plain"],
        "tokens_per_pass": 2 * inputs.sizes.walkthrough_n * HEIGHT * WIDTH,
        "peak_rss_mb": peak,
        "attempted": len(passes) * len(STAGES) + 2,  # + the two oracle checks
        "failed": failed,
    }


def oracle_failures(inputs: Inputs, work: Path) -> int:
    """Re-draw the leading samples of pass 0 (in `work`) with the scalar `sample_grid`."""
    from gcs.formats import read_stats, read_token_grid
    from gcs.guidance import global_likelihood_table
    from gcs.prior import load_model

    from oracle import matches_scalar

    try:
        model = load_model(work / "model.json")
        table = global_likelihood_table(
            read_stats(work / "style.json"), read_stats(work / "dataset.json"), 1.0
        )
    except (OSError, ValueError) as exc:
        print(f"walkthrough oracle: cannot load pass artifacts: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for name, guidance in (("guided", table), ("plain", None)):
        count = min(ORACLE_GRIDS, inputs.sizes.walkthrough_n)
        try:
            grids = [read_token_grid(work / name / f"sample_{i:03d}.tgrd") for i in range(count)]
        except (OSError, ValueError) as exc:
            print(f"walkthrough oracle: {exc}", file=sys.stderr)
            failures += 1
            continue
        if not matches_scalar(model, grids, inputs.sample_seed, None, guidance, 1.0, None):
            print(f"walkthrough oracle: {name} samples differ from sample_grid", file=sys.stderr)
            failures += 1
    return failures


def import_seconds(reps: int) -> list[float]:
    """Wall time of an interpreter that only imports the CLI module."""
    env = child_env()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _run_child([sys.executable, "-c", "import gcs.cli"], env=env)
        times.append(time.perf_counter() - start)
    return times


def replay(inputs: Inputs, base: Path, tracer) -> dict:
    """Run the seven commands in-process through `gcs.cli.main`.

    The handlers make the same public calls as in a child process; with an
    instrumented tracer each call into another module becomes a span, so
    each stage splits into layer times.  Returns exit codes by stage.
    """
    import gcs.cli

    fresh_dir(base / "work")
    codes = {}
    cwd = Path.cwd()
    os.chdir(base)
    try:
        for stage in STAGES:
            argv = stage_argv(stage, inputs, base)
            with contextlib.redirect_stdout(io.StringIO()), tracer.span(f"cli.{stage}"):
                codes[stage] = gcs.cli.main(argv)
    finally:
        os.chdir(cwd)
    return codes


