"""Command-line pipeline: world -> prior -> stats -> samples -> report.

Every stage reads and writes files, so each intermediate artifact (corpus,
model, statistics, samples, report) can be inspected and rerun in
isolation.  Commands are deterministic: identical arguments and input
files produce byte-identical outputs.

Exit codes: 0 success, 2 validation or usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .core import GridRun, ValidationError, _typed, pack_grids
from .distributions import (
    DEFAULT_ALPHA, average_scoped, check_draws, collapse_scoped, histograms, monte_carlo_distribution
)
from .formats import (
    dump_json,
    load_json,
    read_semantic_grid,
    read_stats,
    read_token_grid,
    write_stats,
    write_token_grid,
)
from .guidance import scoped_likelihoods
from .metrics import StyleReference, guidance_report, write_report, write_report_csv
from .prior import load_model, parse_context_template, save_model, train_markov_prior
from .rng import split_seed
from .sampler import SamplingConfig, batch_sample
from .world import (
    BenchmarkConfig,
    default_landscape_config,
    grid_entries,
    iter_entries,
    load_grid_directory,
    make_benchmark,
    spatial_contrast_config,
)

# 700 draws stabilizes dataset stats at desk scale; runs draw 4 samples.
DEFAULT_DRAWS = 700
DEFAULT_SAMPLES = 4

PRESETS = {
    "landscape-2x4": default_landscape_config,
    "spatial-swap-2": spatial_contrast_config,
}


def resolve_seed(flag_value: int | None) -> int:
    """Precedence: --seed flag, then GCS_SEED environment, then 0."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get("GCS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"GCS_SEED must be an integer, got {env!r}")
    return 0


def parse_tiling(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    if not match:
        raise ValidationError(f"expected ROWSxCOLS (e.g. 4x4), got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _build_guidance(style_path, dataset_path, exponent, mode_override):
    style = read_stats(style_path)
    dataset = read_stats(dataset_path)
    if mode_override is not None and mode_override != style.kind:
        raise ValidationError(
            f"--mode {mode_override} does not match the {style.kind} stats files"
        )
    table = scoped_likelihoods(
        style, dataset, collapse_scoped(style), collapse_scoped(dataset), exponent
    )
    return table, style.kind


def _load_samples(directory) -> tuple[list[GridRun], list | None]:
    """A sample directory's grids, packed, and their seeds when every entry records one."""
    entries = grid_entries(directory, "samples")
    if entries == []:
        raise ValidationError(f"{directory}: no samples found")
    grids = pack_grids(iter_entries(Path(directory), entries, with_semantics=False), len(entries))
    seeds = [entry.get("seed") for entry in entries]
    if any(seed is None for seed in seeds):
        return grids, None
    try:
        return grids, [_typed(seed, int) for seed in seeds]
    except ValueError as exc:
        raise ValidationError(f"{Path(directory) / 'manifest.json'}: sample seed {exc}") from exc


def cmd_gen_world(args) -> int:
    if args.preset:
        config = PRESETS[args.preset]()
    else:
        payload = load_json(args.config)
        if not isinstance(payload, dict):
            raise ValidationError(f"{args.config}: expected a JSON object")
        config = BenchmarkConfig.from_dict(payload)
    manifest = make_benchmark(config, args.out)
    n_exemplars = sum(len(v) for v in manifest["exemplars"].values())
    print(
        f"wrote {len(manifest['scenes'])} scenes and {n_exemplars} exemplars "
        f"({len(manifest['style_names'])} styles) to {args.out}"
    )
    return 0


def cmd_train_prior(args) -> int:
    corpus = load_grid_directory(args.corpus, with_semantics=args.conditional)
    context = parse_context_template(args.context)
    model = train_markov_prior(
        corpus,
        context=context,
        conditional=args.conditional,
        smoothing_alpha=args.alpha,
    )
    save_model(args.out, model)
    print(
        f"trained prior on {sum(len(run.grids) for run in corpus)} grids "
        f"({len(model.counts)} context states) -> {args.out}"
    )
    return 0


def cmd_dataset_stats(args) -> int:
    # Every grid and semantic map is read and validated; only --by-region
    # keeps the maps.
    check_draws(args.k)
    corpus = load_grid_directory(args.corpus, with_semantics=True, keep_semantics=args.by_region)
    grids = sum(len(run.grids) for run in corpus)
    if args.k > grids:
        print(
            f"note: K={args.k} exceeds the corpus size {grids}; "
            "drawing with replacement as always",
            file=sys.stderr,
        )
    seed = resolve_seed(args.seed)
    if args.by_region and any(run.labels is None for run in corpus):
        raise ValidationError("--by-region needs a semantic map for every corpus grid")
    stats = monte_carlo_distribution(corpus, args.k, args.alpha, seed, cells=args.by_cell)
    mode = stats.kind if args.by_cell is None else "spatial {}x{}".format(*args.by_cell)
    write_stats(args.out, stats)
    print(f"wrote {mode} dataset statistics (K={args.k}, seed={seed}) to {args.out}")
    return 0


def cmd_style_stats(args) -> int:
    paths = [Path(p) for p in args.inputs]
    if len(paths) > 1 and not args.average:
        raise ValidationError(
            f"{len(paths)} style inputs given; pass --average to combine them"
        )
    grids, maps = [], []
    for path in paths:
        grids.append(read_token_grid(path))
        if args.by_region:
            sem_path = path.with_suffix(".sgrd")
            if not sem_path.exists():
                raise ValidationError(
                    f"--by-region requires a semantic map next to each input "
                    f"(expected {sem_path})"
                )
            maps.append(read_semantic_grid(sem_path))
    per_input = histograms(grids, args.alpha, maps if args.by_region else None, args.by_cell)
    stats = per_input[0] if len(per_input) == 1 else average_scoped(per_input)
    write_stats(args.out, stats)
    print(f"wrote style statistics from {len(paths)} exemplar(s) to {args.out}")
    return 0


def cmd_sample(args) -> int:
    if args.no_guidance and (args.style_stats or args.dataset_stats):
        raise ValidationError(
            "--no-guidance conflicts with --style-stats/--dataset-stats"
        )
    if not args.no_guidance and not (args.style_stats and args.dataset_stats):
        raise ValidationError(
            "guided sampling needs both --style-stats and --dataset-stats "
            "(or pass --no-guidance)"
        )
    model = load_model(args.model)
    semantics = None
    if args.semantics:
        semantics = read_semantic_grid(args.semantics)
        height, width = semantics.height, semantics.width
        if (args.height is not None and args.height != height) or (
            args.width is not None and args.width != width
        ):
            raise ValidationError(
                f"--height/--width disagree with the {height}x{width} semantic map"
            )
    else:
        if args.height is None or args.width is None:
            raise ValidationError(
                "need either --semantics or both --height and --width"
            )
        height, width = args.height, args.width

    table = None
    mode = None
    if not args.no_guidance:
        table, mode = _build_guidance(
            args.style_stats, args.dataset_stats, args.lambda_, args.mode
        )
    seed = resolve_seed(args.seed)
    config = SamplingConfig(
        seed=seed,
        temperature=args.temperature,
        top_k=args.top_k,
        guidance=table,
    )
    grids = batch_sample(model, height, width, args.n, semantics, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, grid in enumerate(grids):
        rel = f"sample_{i:03d}.tgrd"
        write_token_grid(out / rel, grid)
        entries.append({"tokens": rel, "seed": split_seed(seed, i)})
    dump_json(
        out / "manifest.json",
        {
            "model": str(args.model),
            "count": args.n,
            "seed": seed,
            "temperature": args.temperature,
            "top_k": args.top_k,
            "lambda": args.lambda_ if table is not None else None,
            "mode": mode,
            "semantics": str(args.semantics) if args.semantics else None,
            "height": height,
            "width": width,
            "samples": entries,
        },
    )
    label = mode if mode else "unguided"
    print(f"wrote {len(grids)} {label} samples (seed={seed}) to {out}")
    return 0


def cmd_evaluate(args) -> int:
    guided, guided_seeds = _load_samples(args.guided)
    unguided, unguided_seeds = _load_samples(args.unguided)
    stats = read_stats(args.style_stats)
    target = StyleReference.from_stats(Path(args.style_stats).stem, stats)
    regions = read_semantic_grid(args.semantics) if args.semantics else None
    report = guidance_report(
        guided,
        unguided,
        target,
        regions=regions,
        guided_seeds=guided_seeds,
        unguided_seeds=unguided_seeds,
    )
    write_report(args.out, report)
    csv_path = Path(args.out).with_suffix(".csv")
    write_report_csv(csv_path, report)
    print(f"relative KL reduction vs {target.name!r}: {report.kl_reduction:.4f}")
    print(f"wrote {args.out} and {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcs",
        description="Style-guided sampling over discrete codebook token grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="generate a synthetic benchmark")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="benchmark config JSON path")
    source.add_argument("--preset", choices=sorted(PRESETS), help="built-in benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("train-prior", help="train the count-based prior")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument(
        "--context",
        default="left,above",
        help="comma-separated offsets: left, above, above-left, above-right",
    )
    p.add_argument(
        "--conditional",
        action="store_true",
        help="condition next-token counts on the semantic label",
    )
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="additive smoothing")
    p.set_defaults(func=cmd_train_prior)

    # Guidance divides style by dataset statistics: both take these options.
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--out", required=True, help="statistics JSON output path")
    stats.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="additive smoothing")
    variant = stats.add_mutually_exclusive_group()
    variant.add_argument("--by-region", action="store_true", help="per-label statistics from each grid's .sgrd label map")
    variant.add_argument("--by-cell", type=parse_tiling, metavar="RxC", help="per-cell statistics")

    p = sub.add_parser("dataset-stats", parents=[stats], help="Monte-Carlo corpus distribution")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--k", type=int, default=DEFAULT_DRAWS, help="Monte-Carlo draws")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_dataset_stats)

    p = sub.add_parser("style-stats", parents=[stats], help="style reference distribution")
    p.add_argument("inputs", nargs="+", metavar="TGRD", help="style exemplar grids")
    p.add_argument(
        "--average",
        action="store_true",
        help="combine several exemplars by uniform averaging",
    )
    p.set_defaults(func=cmd_style_stats)

    p = sub.add_parser("sample", help="draw grids from a trained prior")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--style-stats", help="style statistics JSON")
    p.add_argument("--dataset-stats", help="dataset statistics JSON")
    p.add_argument(
        "--no-guidance", action="store_true", help="sample the raw prior baseline"
    )
    p.add_argument("--semantics", help="semantic map (.sgrd) to condition on")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--n", type=int, default=DEFAULT_SAMPLES, help="sample count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument(
        "--lambda",
        dest="lambda_",
        type=float,
        default=1.0,
        help="guidance exponent (0 disables guidance influence)",
    )
    p.add_argument(
        "--mode",
        choices=("global", "regional", "spatial"),
        default=None,
        help="assert the guidance mode implied by the stats files",
    )
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="compare guided and unguided samples")
    p.add_argument("--guided", required=True, help="guided sample directory")
    p.add_argument("--unguided", required=True, help="unguided sample directory")
    p.add_argument("--style-stats", required=True, help="target style statistics JSON")
    p.add_argument("--out", required=True, help="report JSON output path")
    p.add_argument("--semantics", help="semantic map for per-label breakdowns")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
