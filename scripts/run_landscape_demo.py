"""Guided vs unguided sampling on the four-style landscape benchmark.

Builds the benchmark, trains the mixture prior, then samples toward one
target style with global guidance.  Prints per-repetition pooled-KL
reductions plus style-match rates, and writes a JSON/CSV report pair.

Usage:
    python3 scripts/run_landscape_demo.py --work /tmp/landscape --target style0
"""

import argparse
import statistics
from pathlib import Path

from gcs.distributions import (
    average_scoped,
    histogram_from_grid,
    monte_carlo_dataset_distribution,
)
from gcs.guidance import global_likelihood_table
from gcs.metrics import (
    StyleReference,
    guidance_report,
    style_match_rate,
    write_report,
    write_report_csv,
)
from gcs.prior import train_markov_prior
from gcs.sampler import SamplingConfig, batch_sample
from gcs.world import (
    default_landscape_config,
    load_corpus,
    load_exemplars,
    make_benchmark,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, default=Path("landscape-demo"))
    parser.add_argument("--target", default="style0")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--samples", type=int, default=50, help="samples per set")
    parser.add_argument("--draws", type=int, default=700, help="Monte-Carlo draws")
    parser.add_argument("--lambda", dest="lambda_", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1000, help="base seed, one stream per rep")
    args = parser.parse_args()

    config = default_landscape_config()
    bench = args.work / "bench"
    if not (bench / "manifest.json").exists():
        print(f"building benchmark {config.name} in {bench} ...")
        make_benchmark(config, bench)
    corpus = load_corpus(bench)
    grids = [grid for grid, _ in corpus]
    print(f"training prior on {len(grids)} grids ...")
    model = train_markov_prior(corpus)
    dataset = monte_carlo_dataset_distribution(grids, args.draws, 0.5, 0)

    refs = {}
    for style in config.styles:
        exemplars = [grid for grid, _ in load_exemplars(bench, style.name)]
        refs[style.name] = average_scoped(
            [histogram_from_grid(grid, 0.5) for grid in exemplars]
        )
    if args.target not in refs:
        parser.error(f"target must be one of {sorted(refs)}")
    table = global_likelihood_table(refs[args.target], dataset, args.lambda_)
    target = StyleReference(args.target, refs[args.target])

    print(f"{'rep':>3}  {'guided KL':>9}  {'unguided KL':>11}  {'reduction':>9}")
    reductions = []
    guided_all, unguided_all = [], []
    last_report = None
    for rep in range(args.reps):
        seed = args.seed + rep
        guided = batch_sample(
            model, config.height, config.width, args.samples, None,
            SamplingConfig(seed=seed, guidance=table),
        )
        unguided = batch_sample(
            model, config.height, config.width, args.samples, None,
            SamplingConfig(seed=seed),
        )
        report = guidance_report(guided, unguided, target)
        reductions.append(report.kl_reduction)
        guided_all.extend(guided)
        unguided_all.extend(unguided)
        last_report = report
        print(
            f"{rep:>3}  {report.guided.pooled_kl:>9.4f}  "
            f"{report.unguided.pooled_kl:>11.4f}  {report.kl_reduction:>9.3f}"
        )

    references = [StyleReference(name, dist) for name, dist in refs.items()]
    guided_rate = style_match_rate(guided_all, references).rate_for(args.target)
    unguided_rate = style_match_rate(unguided_all, references).rate_for(args.target)
    print(f"\nmedian pooled-KL reduction: {statistics.median(reductions):.3f}")
    print(f"match rate for {args.target}: guided {guided_rate:.3f}, "
          f"unguided {unguided_rate:.3f}")

    out = args.work / "report.json"
    write_report(out, last_report)
    write_report_csv(out.with_suffix(".csv"), last_report)
    print(f"last repetition's report written to {out} and {out.with_suffix('.csv')}")


if __name__ == "__main__":
    main()
