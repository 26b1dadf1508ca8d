"""The benchmark under perfbench/ still finds every gcs name it reads.

perfbench reaches gcs through module aliases (``import gcs.guidance as
guid``), through ``from gcs.x import name`` lines, some of them inside
functions, and by patching functions in place while it traces.  Deleting
such a name breaks only a benchmark run; these tests check the names
without running the benchmark.
"""

import argparse
import ast
import importlib
import itertools
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("spans", "inproc", "layers", "walkthrough", "oracle", "run")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules, imported from its directory and dropped after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in MODULES}
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def test_modules_import_and_instrument(perfbench):
    with perfbench["spans"].Tracer().instrument():
        pass


def test_benchmark_command_lines_still_parse(perfbench, tmp_path):
    # The benchmark runs the README commands with argv of its own; each must
    # still reach its stage's handler, with the smoothing its digests used.
    import gcs.cli as cli

    walkthrough = perfbench["walkthrough"]
    inputs = importlib.import_module("inputs").derive(0, quick=True)
    exemplar = tmp_path / "work/bench/exemplars/style0/ex_00.tgrd"
    exemplar.parent.mkdir(parents=True)
    exemplar.touch()
    handlers = {
        "gen_world": cli.cmd_gen_world, "train_prior": cli.cmd_train_prior,
        "dataset_stats": cli.cmd_dataset_stats, "style_stats": cli.cmd_style_stats,
        "sample_guided": cli.cmd_sample, "sample_plain": cli.cmd_sample, "evaluate": cli.cmd_evaluate,
    }
    parser = cli.build_parser()
    for stage in walkthrough.STAGES:
        args = parser.parse_args(walkthrough.stage_argv(stage, inputs, tmp_path))
        assert args.func is handlers[stage]
        if stage in ("train_prior", "dataset_stats", "style_stats"):
            assert args.alpha == 0.5
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0


def gcs_reads(tree):
    """(module, name) for every gcs name a perfbench file imports or reads
    as an attribute of a gcs module alias."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gcs.") and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gcs"):
            for alias in node.names:
                yield node.module, alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            yield aliases[node.value.id], node.attr


def test_reads_cover_aliases_and_from_imports():
    source = (
        "import gcs.guidance as guid\n"
        "def f():\n"
        "    from gcs.rng import split_seed\n"
        "    return guid.scope_index, split_seed\n"
    )
    assert set(gcs_reads(ast.parse(source))) == {
        ("gcs.guidance", "scope_index"), ("gcs.rng", "split_seed")
    }


def test_every_gcs_name_perfbench_reads_exists(perfbench):
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= {(path.name, *read) for read in gcs_reads(ast.parse(path.read_text()))}
    missing = [
        f"{where}: {module}.{name}"
        for where, module, name in sorted(reads)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_traced_model_load_is_one_span(perfbench, tmp_path):
    # The tracer leaves gcs.core unwrapped, and the strict JSON helpers a
    # load calls per field live there: a traced load is its own span plus at
    # most the smoothing it calls, not one span per field read.
    import gcs.cli
    from gcs.core import TokenGrid
    from gcs.prior import save_model, train_markov_prior

    grids = [TokenGrid(4, 4, 3, [(seed + i * i) % 3 for i in range(16)]) for seed in range(5)]
    path = tmp_path / "model.json"
    save_model(path, train_markov_prior(grids))
    tracer = perfbench["spans"].Tracer()
    with tracer.instrument():
        gcs.cli.load_model(path)
    assert tracer.names[tracer.name_id[0]] == "prior.load_model"
    assert len(tracer.start) <= 2


# Functions whose spans perfbench reads by `<layer>.<function>` name.  An
# alias under another `__name__` still passes the name check above but
# records its spans under the other name.
SPANNED = {
    "distributions": (
        "monte_carlo_dataset_distribution",
        "monte_carlo_regional_distribution",
        "monte_carlo_spatial_distribution",
    ),
    "metrics": ("guidance_report",),
    "world": ("load_grid_directory", "make_benchmark"),
    "prior": ("train_markov_prior", "save_model", "load_model"),
    "formats": ("read_token_grid", "read_semantic_grid", "write_token_grid", "write_semantic_grid"),
}


@pytest.mark.parametrize("layer", sorted(SPANNED))
def test_spanned_functions_keep_their_span_names(perfbench, layer):
    module = importlib.import_module(f"gcs.{layer}")
    for name in SPANNED[layer]:
        assert perfbench["spans"].span_name(getattr(module, name)) == f"{layer}.{name}"


def test_benchmark_set_up_runs_on_every_stats_kind(perfbench, tmp_path):
    # The name checks above cannot see a changed statistics type; this runs
    # the calls the benchmark makes on the statistics it builds.
    from gcs.distributions import collapse_regional
    from gcs.formats import read_stats, write_stats
    from gcs.guidance import select_likelihood
    from gcs.metrics import StyleReference, guidance_report

    inproc = perfbench["inproc"]
    bench_inputs = importlib.import_module("inputs")
    inputs = bench_inputs.derive(0, quick=True)
    shape = (bench_inputs.HEIGHT, bench_inputs.WIDTH)
    world = tmp_path / "world"
    world.mkdir()
    setup = inproc.build("small-batch", inputs, world, perfbench["spans"].NullTracer())
    assert sorted(setup.stats) == ["global", "regional", "spatial"]
    for mode, pair in setup.stats.items():
        for side, stats in zip(("style", "dataset"), pair):
            write_stats(tmp_path / f"{side}-{mode}.json", stats)
        read = [read_stats(tmp_path / f"{side}-{mode}.json") for side in ("style", "dataset")]
        assert [stats.kind for stats in read] == [mode, mode]
        assert inproc.build_table(mode, *read) == setup.tables[mode]
        # The selection probe of the traced run (perfbench/layers.py) reads
        # every position's guidance weights from each table.
        table = setup.tables[mode]
        for position in itertools.product(*map(range, shape)):
            weights = select_likelihood(table, position, setup.semantics, shape)
            assert weights.shape == (pair[0].codebook_size,)
    style = setup.stats["regional"][0]
    target = StyleReference("style0", collapse_regional(style), regional=style)
    kinds = inproc.SMALL_KINDS
    guided, plain = (
        inproc.request(setup, kinds[name], 1, 4, perfbench["spans"].NullTracer())
        for name in ("regional-cond", "unguided")
    )
    report = guidance_report(guided, plain, target, regions=setup.semantics)
    assert set(report.kl_reduction_per_label) == {0, 1}


def replay_span_names():
    """The span names `layers._replay_metrics` reads through its `spans` helper."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    body = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_replay_metrics")
    return sorted({
        node.args[0].value for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "spans"
    })


def test_traced_replay_records_every_span_the_benchmark_reads(perfbench, tmp_path):
    # A traced run takes per-layer numbers from the spans of the walkthrough
    # replayed in-process; a command that stops making one of those calls
    # would end every traced run with a LookupError.
    bench_inputs = importlib.import_module("inputs")
    inputs = bench_inputs.derive(0, quick=True)
    (tmp_path / "world.json").write_text(json.dumps(bench_inputs.world_config_dict(inputs.world_seed, inputs.sizes)))
    tracer = perfbench["spans"].Tracer()
    with tracer.instrument(), tracer.span("bench.walkthrough"):
        codes = perfbench["walkthrough"].replay(inputs, tmp_path, tracer)
    assert set(codes.values()) == {0}
    names = replay_span_names()
    assert "world.load_grid_directory" in names and "formats.read_semantic_grid" in names
    for name in names:
        assert len(tracer.durations(name, within="bench.walkthrough")), name
