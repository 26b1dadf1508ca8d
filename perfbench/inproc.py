"""The in-process workloads: `small-batch` requests and `bulk` batches.

Both are closed loops with one client: each request is issued after the
previous one returned.  Set-up builds everything a request needs (world,
corpus load, priors, statistics, guidance tables) and is timed on its own.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import ROOT, WORK, child_env, fresh_dir
from inputs import DRAWS, HEIGHT, SEED_POOL, WIDTH, Inputs, world_config_dict

import gcs.distributions as dist
import gcs.formats as fmt
import gcs.guidance as guid
import gcs.prior as prior
import gcs.world as world
from gcs.sampler import SamplingConfig, batch_sample

from oracle import context_groups, grids_digest, matches_scalar
from spans import NullTracer

ALPHA = 0.5  # the CLI's smoothing default
CELLS = (2, 2)
ORACLE_GRIDS = 2
PROBE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Kind:
    model: str  # key of TEMPLATES
    guidance: str | None = None  # "global", "regional" or "spatial"
    temperature: float = 1.0
    top_k: int | None = None
    semantics: bool = False


TEMPLATES = {  # model key -> (context template, conditional)
    "default": ("left,above", False),
    "conditional": ("left,above", True),
    "4slot": ("left,above,above-left,above-right", False),
}

SMALL_KINDS = {
    "unguided": Kind("default"),
    "global": Kind("default", "global"),
    "regional-cond": Kind("conditional", "regional", semantics=True),
    "spatial": Kind("default", "spatial"),
    "global-t0.8-k8": Kind("default", "global", temperature=0.8, top_k=8),
    "4slot-global": Kind("4slot", "global"),
}
BULK_KINDS = {
    "bulk-global": Kind("default", "global"),
    "bulk-unguided": Kind("default"),
}


def kinds_for(workload: str) -> dict:
    return SMALL_KINDS if workload == "small-batch" else BULK_KINDS


def batch_size(workload: str, kind: str, inputs: Inputs) -> int:
    sizes = inputs.sizes
    if workload == "small-batch":
        return sizes.small_n
    return sizes.bulk_guided_n if kind == "bulk-global" else sizes.bulk_unguided_n


@dataclass
class Setup:
    models: dict
    stats: dict  # mode -> (style stats, dataset stats)
    tables: dict  # mode -> LikelihoodTable
    semantics: object
    corpus_tokens: int


def build_table(mode: str, style, dataset):
    """The guidance table `gcs sample` builds from a style and a dataset file."""
    if mode == "global":
        return guid.global_likelihood_table(style, dataset, 1.0)
    if mode == "regional":
        collapse = dist.collapse_regional
        return guid.regional_likelihoods(style, dataset, collapse(style), collapse(dataset), 1.0)
    collapse = dist.collapse_spatial
    return guid.spatial_likelihoods(style, dataset, collapse(style), collapse(dataset), 1.0)


def build(workload: str, inputs: Inputs, directory: Path, tr) -> Setup:
    """World, corpus, priors, statistics and tables for one workload."""
    kinds = kinds_for(workload).values()
    config = world.BenchmarkConfig.from_dict(world_config_dict(inputs.world_seed, inputs.sizes))
    tr.call(world.make_benchmark, config, directory)
    corpus = tr.call(world.load_corpus, directory)
    models = {}
    for key in sorted({k.model for k in kinds}):
        template, conditional = TEMPLATES[key]
        models[key] = tr.call(
            prior.train_markov_prior, corpus,
            context=prior.parse_context_template(template), conditional=conditional,
        )
    exemplars = tr.call(world.load_exemplars, directory, "style0")
    grids = [grid for grid, _ in corpus]
    seed = inputs.stats_seed
    stats = {}
    for mode in sorted({k.guidance for k in kinds if k.guidance}):
        if mode == "global":
            style = dist.average_distributions(
                [dist.histogram_from_grid(g, ALPHA) for g, _ in exemplars])
            dataset = tr.call(dist.monte_carlo_dataset_distribution, grids, DRAWS, ALPHA, seed)
        elif mode == "regional":
            style = dist.average_regional(
                [dist.histogram_by_region(g, s, ALPHA) for g, s in exemplars])
            dataset = tr.call(dist.monte_carlo_regional_distribution, corpus, DRAWS, ALPHA, seed)
        else:
            style = dist.average_spatial(
                [dist.histogram_by_cell([g], *CELLS, ALPHA) for g, _ in exemplars])
            dataset = tr.call(
                dist.monte_carlo_spatial_distribution, grids, *CELLS, DRAWS, ALPHA, seed)
        stats[mode] = (style, dataset)
    tables = {mode: build_table(mode, *pair) for mode, pair in stats.items()}
    return Setup(models, stats, tables, exemplars[0][1], len(grids) * HEIGHT * WIDTH)


def timed_setups(workload: str, inputs: Inputs, base: Path) -> tuple[Setup, list[float]]:
    """Set up `setup_reps` times from scratch; keeps the last."""
    times = []
    for _ in range(inputs.sizes.setup_reps):
        directory = fresh_dir(base / "world")
        start = time.perf_counter()
        setup = build(workload, inputs, directory, NullTracer())
        times.append(time.perf_counter() - start)
    return setup, times


def request(setup: Setup, kind: Kind, seed: int, n: int, tr):
    config = SamplingConfig(
        seed=seed, temperature=kind.temperature, top_k=kind.top_k,
        guidance=setup.tables.get(kind.guidance),
    )
    semantics = setup.semantics if kind.semantics else None
    return tr.call(batch_sample, setup.models[kind.model], HEIGHT, WIDTH, n, semantics, config)


def plan(workload: str, inputs: Inputs, cycle: int) -> list[tuple[str, str, int, int]]:
    """Requests of one cycle in their seeded order: (book key, kind, seed, n)."""
    slot = cycle % SEED_POOL if workload == "small-batch" else 0
    return [
        (f"{workload}/{name}/{slot}", name, inputs.request_seed(name, slot),
         batch_size(workload, name, inputs))
        for name in inputs.order(kinds_for(workload), cycle)
    ]


def cycles_to_cover(workload: str) -> int:
    """Cycles after which every request of the workload has been seen."""
    return SEED_POOL if workload == "small-batch" else 1


class Loop:
    """Runs request cycles and tallies latencies, checks and work."""

    def __init__(self, workload: str, inputs: Inputs, setup: Setup, book, tr):
        self.workload, self.inputs, self.setup, self.book, self.tr = workload, inputs, setup, book, tr
        self.by_kind: dict[str, list[float]] = {}
        self.first: dict[str, tuple] = {}  # kind -> (seed, leading grids) of its first request
        self.groups: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def cycle(self, index: int, timed: bool = True) -> None:
        kinds = kinds_for(self.workload)
        for key, name, seed, n in plan(self.workload, self.inputs, index):
            self.attempted += 1
            start = time.perf_counter()
            try:
                grids = request(self.setup, kinds[name], seed, n, self.tr)
            except Exception as exc:  # a failed request is counted, not fatal
                print(f"{key}: {type(exc).__name__}: {exc}", file=sys.stderr)
                self.failed += 1
                continue
            elapsed = time.perf_counter() - start
            if not self.book.check(key, grids_digest(grids)):
                self.failed += 1
            if name not in self.first:
                self.first[name] = (seed, grids[:ORACLE_GRIDS])
                model = self.setup.models[kinds[name].model]
                self.groups[name] = context_groups(grids, model.context, model.codebook_size)
            if timed:
                self.by_kind.setdefault(name, []).append(elapsed)

    def run_for(self, seconds: float) -> None:
        """Whole cycles while the next one is expected to end within `seconds`."""
        started = time.perf_counter()
        index = 0
        while True:
            begin = time.perf_counter()
            self.cycle(index)
            index += 1
            took = time.perf_counter() - begin
            if time.perf_counter() - started + took > seconds:
                return

    def oracle(self) -> None:
        """The leading grids of each kind must match the scalar `sample_grid`."""
        kinds = kinds_for(self.workload)
        for name, (seed, grids) in self.first.items():
            kind = kinds[name]
            self.attempted += 1
            ok = matches_scalar(
                self.setup.models[kind.model], grids, seed,
                self.setup.semantics if kind.semantics else None,
                self.setup.tables.get(kind.guidance), kind.temperature, kind.top_k,
            )
            if not ok:
                print(f"{self.workload}/{name}: differs from sample_grid", file=sys.stderr)
                self.failed += 1


# -- memory probe ------------------------------------------------------------


def save_probe_inputs(workload: str, inputs: Inputs, setup: Setup, directory: Path) -> None:
    """Write what one request cycle needs, in the program's own file formats."""
    fresh_dir(directory)
    for key, model in setup.models.items():
        prior.save_model(directory / f"model-{key}.json", model)
    for mode, (style, dataset) in setup.stats.items():
        fmt.write_stats(directory / f"style-{mode}.json", style)
        fmt.write_stats(directory / f"dataset-{mode}.json", dataset)
    fmt.write_semantic_grid(directory / "semantics.sgrd", setup.semantics)
    (directory / "plan.json").write_text(json.dumps(plan(workload, inputs, 0)))


def peak_rss_probe(workload: str, directory: Path) -> dict:
    """Peak RSS of a fresh process that loads the inputs and runs one cycle.

    The timed loop shares its process with set-up, whose high-water mark
    would hide the sampling's own; the probe process never builds a world.
    A probe that fails reports no digests, so each of its requests fails.
    """
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--probe", str(directory),
            "--workload", workload]
    try:
        proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"memory probe failed: {exc}", file=sys.stderr)
        return {"peak_rss_mb": 0.0, "digests": {}}


def probe_main(directory: Path, workload: str) -> None:
    """Child side of `peak_rss_probe`; prints peak RSS and request digests."""
    models = {key: prior.load_model(path) for key in TEMPLATES
              if (path := directory / f"model-{key}.json").exists()}
    tables = {}
    for mode in ("global", "regional", "spatial"):
        style_path = directory / f"style-{mode}.json"
        if style_path.exists():
            tables[mode] = build_table(
                mode, fmt.read_stats(style_path), fmt.read_stats(directory / f"dataset-{mode}.json"))
    setup = Setup(models, {}, tables, fmt.read_semantic_grid(directory / "semantics.sgrd"), 0)
    kinds = kinds_for(workload)
    digests = {}
    for key, name, seed, n in json.loads((directory / "plan.json").read_text()):
        digests[key] = grids_digest(request(setup, kinds[name], seed, n, NullTracer()))
    print(json.dumps({"peak_rss_mb": vm_hwm_mb(), "digests": digests}))


def vm_hwm_mb() -> float:
    """This process's resident high-water mark, from /proc when available."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the untraced run ----------------------------------------------------------


def run(workload: str, inputs: Inputs, seconds: float, book) -> dict:
    base = WORK / f"{workload}-{os.getpid()}"
    setup, setup_times = timed_setups(workload, inputs, base)
    loop = Loop(workload, inputs, setup, book, NullTracer())
    if workload == "small-batch":
        loop.cycle(0, timed=False)  # warm the priors' per-context caches
    loop.run_for(seconds)
    loop.oracle()
    save_probe_inputs(workload, inputs, setup, base / "probe")
    probe = peak_rss_probe(workload, base / "probe")
    for key, _, _, _ in plan(workload, inputs, 0):
        loop.attempted += 1
        if not book.check(key, probe["digests"].get(key)):
            loop.failed += 1
    shutil.rmtree(base, ignore_errors=True)
    kinds = kinds_for(workload)
    return {
        "setup_times": setup_times,
        "latencies": loop.by_kind,
        "sampling": list(kinds),
        "tokens_per_pass": sum(batch_size(workload, k, inputs) for k in kinds) * HEIGHT * WIDTH,
        "peak_rss_mb": probe["peak_rss_mb"],
        "attempted": loop.attempted,
        "failed": loop.failed,
    }
