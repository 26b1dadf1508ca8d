"""Global vs per-cell guidance on styles that share a global histogram.

The spatial-swap benchmark's two styles use identical token frequencies
but opposite vertical placement, so global guidance has nothing to work
with; per-cell (2x1) guidance separates them.  Prints per-seed divergence
reductions for both guidance modes.

Usage:
    python3 scripts/run_spatial_ablation.py --work /tmp/spatial
"""

import argparse
import statistics
from pathlib import Path

from gcs.distributions import (
    average_scoped,
    collapse_scoped,
    histogram_by_cell,
    histogram_from_grid,
    monte_carlo_dataset_distribution,
    monte_carlo_spatial_distribution,
)
from gcs.guidance import global_likelihood_table, scoped_likelihoods
from gcs.metrics import relative_reduction, spatial_divergence
from gcs.prior import train_markov_prior
from gcs.sampler import SamplingConfig, batch_sample
from gcs.world import (
    load_corpus,
    load_exemplars,
    make_benchmark,
    spatial_contrast_config,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, default=Path("spatial-ablation"))
    parser.add_argument("--target", default="low-high")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--samples", type=int, default=20, help="samples per set")
    parser.add_argument("--draws", type=int, default=700, help="Monte-Carlo draws")
    parser.add_argument("--seed", type=int, default=3000, help="base seed")
    args = parser.parse_args()

    config = spatial_contrast_config()
    bench = args.work / "bench"
    if not (bench / "manifest.json").exists():
        print(f"building benchmark {config.name} in {bench} ...")
        make_benchmark(config, bench)
    corpus = load_corpus(bench)
    grids = [grid for grid, _ in corpus]
    model = train_markov_prior(corpus)

    exemplars = [grid for grid, _ in load_exemplars(bench, args.target)]
    style_global = average_scoped(
        [histogram_from_grid(grid, 0.5) for grid in exemplars]
    )
    style_spatial = histogram_by_cell(exemplars, 2, 1, 0.5)
    dataset_global = monte_carlo_dataset_distribution(grids, args.draws, 0.5, 0)
    dataset_spatial = monte_carlo_spatial_distribution(grids, 2, 1, args.draws, 0.5, 0)
    global_table = global_likelihood_table(style_global, dataset_global)
    spatial_table = scoped_likelihoods(
        style_spatial, dataset_spatial,
        collapse_scoped(style_spatial), collapse_scoped(dataset_spatial),
    )

    print(f"{'rep':>3}  {'baseline D':>10}  {'global red.':>11}  {'spatial red.':>12}")
    global_reds, spatial_reds = [], []
    for rep in range(args.reps):
        seed = args.seed + rep
        sets = {
            name: batch_sample(
                model, config.height, config.width, args.samples, None,
                SamplingConfig(seed=seed, guidance=table),
            )
            for name, table in (
                ("unguided", None), ("global", global_table), ("spatial", spatial_table)
            )
        }
        base = spatial_divergence(sets["unguided"], style_spatial)
        g_red = relative_reduction(spatial_divergence(sets["global"], style_spatial), base)
        s_red = relative_reduction(spatial_divergence(sets["spatial"], style_spatial), base)
        global_reds.append(g_red)
        spatial_reds.append(s_red)
        print(f"{rep:>3}  {base:>10.4f}  {g_red:>11.3f}  {s_red:>12.3f}")

    print(f"\nmedian per-cell divergence reduction: "
          f"global {statistics.median(global_reds):.3f}, "
          f"spatial {statistics.median(spatial_reds):.3f}")


if __name__ == "__main__":
    main()
