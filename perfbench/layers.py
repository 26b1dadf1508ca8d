"""The traced run: per-layer numbers from spans, plus the tracing overhead.

Every traced run covers every layer, whichever workload it is for:

1. the seven commands as child processes (`cli.*`) and the import alone;
2. the small-batch set-up, which also serves bulk, under instrumentation;
3. the sweep traced: the walkthrough replayed in-process through
   `gcs.cli.main`, two small-batch cycles and one bulk pass.  The
   workload's own unit also runs untraced, once before the sweep and once
   after it; the traced unit's CPU time over the mean untraced CPU time is
   the tracing overhead.  On a shared 2-vCPU machine one unit's CPU time
   swings by 10-30%, so the overhead is a rough figure;
4. untraced micro-probes for rates no workload isolates (scalar sampler,
   draws, guidance selection, table builds, the regional report).

Per-layer numbers therefore include tracing overhead, which is reported.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import numpy as np

import gcs.guidance as guid
import gcs.metrics as gmetrics
import gcs.rng as rng
from gcs.distributions import collapse_regional
from gcs.formats import read_token_grid
from gcs.sampler import SamplingConfig, sample_grid

import inproc
import walkthrough
from common import OUT, WORK, fresh_dir, median, src_line_count
from inputs import HEIGHT, WIDTH, Inputs
from spans import LAYERS, NullTracer, Tracer

PROBE_REPS = 3
SMALL_CYCLES = 2


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _replay(inputs: Inputs, base: Path, tr, book, tally: Tally) -> None:
    codes = walkthrough.replay(inputs, base, tr)
    stages = {s: {"seconds": 0.0, "code": codes[s], "stderr": ""} for s in walkthrough.STAGES}
    failed = walkthrough.check_pass(book, base, stages)
    for stage in walkthrough.STAGES:
        tally.add(stage not in failed)


def _unit(workload, inputs, setup, book, tr, replay_dir, tally: Tally):
    """One unit of a workload's work; returns (request loop or None, CPU seconds).

    CPU time, not wall time, because the walkthrough replay's disk writes
    make its wall time swing by more than the tracing costs.
    """
    start = time.process_time()
    loop = None
    if workload == "walkthrough":
        _replay(inputs, replay_dir, tr, book, tally)
    else:
        loop = inproc.Loop(workload, inputs, setup, book, tr)
        for index in range(SMALL_CYCLES if workload == "small-batch" else 1):
            loop.cycle(index)
    return loop, time.process_time() - start


def _rate(count: float, seconds) -> float:
    return count / median(seconds)


def traced_run(workload: str, inputs: Inputs, book) -> tuple[dict, Tally]:
    tr = Tracer()
    tally = Tally()
    base = WORK / f"trace-{os.getpid()}"
    m: dict[str, tuple[float, str]] = {}

    # 1. The CLI as the user runs it.
    cli_dir = base / "cli"
    walkthrough.setup(inputs, cli_dir)
    m["cli.import_s"] = (median(walkthrough.import_seconds(PROBE_REPS)), "s")
    stages = walkthrough.run_pass(inputs, cli_dir)
    failed = walkthrough.check_pass(book, cli_dir, stages)
    for stage in walkthrough.STAGES:
        tally.add(stage not in failed)
        m[f"cli.{stage}_s"] = (stages[stage]["seconds"], "s")

    # 2. Set-up under instrumentation; one untraced cycle warms the priors' caches.
    with tr.instrument(), tr.span("bench.setup"):
        setup = inproc.build("small-batch", inputs, fresh_dir(base / "world"), tr)
    warm = inproc.Loop("small-batch", inputs, setup, book, NullTracer())
    warm.cycle(0, timed=False)

    # 3. Every unit traced, the workload's own also untraced before and after.
    replay_dir = fresh_dir(base / "replay")
    shutil.copy(cli_dir / "world.json", replay_dir / "world.json")
    loops = [warm]

    def untraced_unit() -> float:
        loop, seconds = _unit(workload, inputs, setup, book, NullTracer(), replay_dir, tally)
        loops.append(loop)
        return seconds

    first = untraced_unit()
    swept, traced = {}, {}
    with tr.instrument():
        for name in ("walkthrough", "small-batch", "bulk"):
            with tr.span(f"bench.{name}"):
                swept[name], traced[name] = _unit(name, inputs, setup, book, tr, replay_dir, tally)
    untraced = (first + untraced_unit()) / 2.0  # either side of the sweep, so drift cancels
    small, bulk = swept["small-batch"], swept["bulk"]
    small.oracle()
    bulk.oracle()
    for loop in (*loops, small, bulk):
        if loop is not None:
            tally.attempted += loop.attempted
            tally.failed += loop.failed
    m["trace.overhead_pct"] = (100.0 * (traced[workload] / untraced - 1.0), "%")
    m["trace.spans"] = (float(len(tr)), "count")

    _replay_metrics(m, tr, setup, replay_dir)
    _setup_metrics(m, tr, setup)
    for loop in (small, bulk):
        _sampler_metrics(m, loop, inputs)
    _probe_metrics(m, setup, inputs, replay_dir)
    for layer, seconds in sorted(tr.self_seconds().items()):
        if layer in LAYERS:
            m[f"{layer}.self_s"] = (seconds, "s")
    m["env.nproc"] = (float(os.cpu_count() or 1), "count")
    m["env.src_gcs_lines"] = (float(src_line_count()), "count")

    tr.save(OUT / f"trace-{workload}-seed{inputs.seed}.npz")
    shutil.rmtree(base, ignore_errors=True)
    return m, tally


def _replay_metrics(m, tr: Tracer, setup, replay_dir) -> None:
    root = "bench.walkthrough"

    def spans(name):
        return tr.durations(name, within=root)

    make = spans("world.make_benchmark")
    m["world.make_benchmark_s"] = (float(make.sum()), "s")
    # train-prior's corpus load is the first load_grid_directory of the replay.
    m["world.load_corpus_s"] = (float(spans("world.load_grid_directory")[0]), "s")
    reads = np.concatenate([spans("formats.read_token_grid"), spans("formats.read_semantic_grid")])
    writes = np.concatenate([spans("formats.write_token_grid"), spans("formats.write_semantic_grid")])
    m["formats.grids_read_per_s"] = (len(reads) / float(reads.sum()), "1/s")
    m["formats.grids_written_per_s"] = (len(writes) / float(writes.sum()), "1/s")
    written = sum(p.stat().st_size for p in (replay_dir / "work").rglob("*") if p.is_file())
    m["formats.bytes_written"] = (float(written), "bytes")
    train = spans("prior.train_markov_prior")
    m["prior.train_tokens_per_s"] = (setup.corpus_tokens / float(train[0]), "1/s")
    m["prior.save_s"] = (float(spans("prior.save_model")[0]), "s")
    m["prior.load_s"] = (median(spans("prior.load_model")), "s")
    m["metrics.report_s.global"] = (float(spans("metrics.guidance_report")[0]), "s")


def _setup_metrics(m, tr: Tracer, setup) -> None:
    for key, model in setup.models.items():
        m[f"prior.states.{key}"] = (float(len(model.counts)), "count")
    for mode, fn in (
        ("global", "monte_carlo_dataset_distribution"),
        ("regional", "monte_carlo_regional_distribution"),
        ("spatial", "monte_carlo_spatial_distribution"),
    ):
        m[f"distributions.mc_{mode}_s"] = (
            float(tr.durations(f"distributions.{fn}", within="bench.setup")[0]), "s")


def _sampler_metrics(m, loop, inputs: Inputs) -> None:
    for name, times in loop.by_kind.items():
        n = inproc.batch_size(loop.workload, name, inputs)
        seconds = median(times)
        groups = loop.groups[name]
        m[f"sampler.tokens_per_s.{name}"] = (n * HEIGHT * WIDTH / seconds, "1/s")
        m[f"sampler.groups.{name}"] = (float(groups), "count")
        m[f"sampler.us_per_group.{name}"] = (1e6 * seconds / groups, "us")


def _timed(fn, reps: int = PROBE_REPS) -> list[float]:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _probe_metrics(m, setup, inputs: Inputs, replay_dir) -> None:
    model = setup.models["default"]
    table = setup.tables["global"]
    seed = inputs.request_seed("bulk-global")

    def scalar():
        sample_grid(model, HEIGHT, WIDTH, None, SamplingConfig(seed=seed, guidance=table))

    m["sampler.scalar_tokens_per_s"] = (_rate(HEIGHT * WIDTH, _timed(scalar)), "1/s")

    keys = rng.mix64_array(rng.split_seed_array(seed, np.arange(2000, dtype=np.uint64)))

    def draws():
        for counter in range(HEIGHT * WIDTH):
            rng.unit_draws_for_keys(keys, counter)

    m["rng.draws_per_s"] = (_rate(keys.size * HEIGHT * WIDTH, _timed(draws)), "1/s")

    positions = [(r, c) for r in range(HEIGHT) for c in range(WIDTH)]
    for mode, t in setup.tables.items():
        def select(t=t):
            for position in positions:
                guid.select_likelihood(t, position, setup.semantics, (HEIGHT, WIDTH))

        m[f"guidance.select_per_s.{mode}"] = (_rate(len(positions), _timed(select)), "1/s")
        style, dataset = setup.stats[mode]
        builds = _timed(lambda: inproc.build_table(mode, style, dataset), reps=21)
        m[f"guidance.table_build_s.{mode}"] = (median(builds), "s")

    work = replay_dir / "work"
    guided = [read_token_grid(p) for p in sorted((work / "guided").glob("*.tgrd"))]
    plain = [read_token_grid(p) for p in sorted((work / "plain").glob("*.tgrd"))]
    style_regional = setup.stats["regional"][0]
    target = gmetrics.StyleReference(
        "style0", collapse_regional(style_regional), regional=style_regional)

    def report():
        gmetrics.guidance_report(guided, plain, target, regions=setup.semantics)

    m["metrics.report_s.regional"] = (median(_timed(report)), "s")
