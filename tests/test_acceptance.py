"""End-to-end release gates.

Each test decides one numbered criterion, prints a single
``criterion N (...): PASS|FAIL`` verdict line, and then asserts.  The
verdicts are echoed in the terminal summary (see conftest) so they stay
visible under output capture.  Thresholds are part of the package's
contract; loosening them is not an acceptable fix for a red gate.
"""

import dataclasses
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gcs.core import SemanticGrid
from gcs.distributions import (
    ScopedDistributions,
    average_distributions,
    average_scoped,
    collapse_scoped,
    histogram_by_cell,
    histogram_by_region,
    histogram_from_grid,
    monte_carlo_dataset_distribution,
    monte_carlo_regional_distribution,
    monte_carlo_spatial_distribution,
)
from gcs.guidance import global_likelihood_table, scoped_likelihoods
from gcs.metrics import (
    StyleReference,
    guidance_report,
    relative_reduction,
    spatial_divergence,
    style_match_rate,
    total_variation,
)
from gcs.prior import parse_context_template, train_markov_prior
from gcs.sampler import SamplingConfig, batch_sample, exact_sequence_distribution, sample_grid
from gcs.world import (
    default_landscape_config,
    load_corpus,
    load_exemplars,
    make_benchmark,
    spatial_contrast_config,
)

from conftest import global_stats, random_grid, record_criterion

DRAWS = 700


def verdict(number, name, ok, detail):
    record_criterion(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


@pytest.fixture(scope="module")
def landscape(tmp_path_factory):
    """The four-style benchmark with a mixture-trained prior and stats."""
    out = tmp_path_factory.mktemp("landscape")
    config = default_landscape_config()
    make_benchmark(config, out)
    corpus = load_corpus(out)
    grids = [grid for grid, _ in corpus]
    model = train_markov_prior(corpus)
    dataset = monte_carlo_dataset_distribution(grids, DRAWS, 0.5, 0)
    refs = {}
    for style in config.styles:
        exemplars = [grid for grid, _ in load_exemplars(out, style.name)]
        refs[style.name] = average_distributions(
            [histogram_from_grid(grid, 0.5) for grid in exemplars]
        )
    return SimpleNamespace(
        dir=out, config=config, corpus=corpus, grids=grids,
        model=model, dataset=dataset, refs=refs,
    )


@pytest.fixture(scope="module")
def landscape_runs(landscape):
    """20 repetitions of 50 guided + 50 unguided samples toward style0."""
    table = global_likelihood_table(landscape.refs["style0"], landscape.dataset)
    guided_sets, unguided_sets = [], []
    start = time.perf_counter()
    for rep in range(20):
        seed = 1000 + rep
        guided_sets.append(
            batch_sample(
                landscape.model, 32, 32, 50, None,
                SamplingConfig(seed=seed, guidance=table),
            )
        )
        unguided_sets.append(
            batch_sample(landscape.model, 32, 32, 50, None, SamplingConfig(seed=seed))
        )
    return SimpleNamespace(
        guided=guided_sets,
        unguided=unguided_sets,
        elapsed=time.perf_counter() - start,
    )


def random_stats(rng, size):
    """Global statistics of a random full-support distribution."""
    weights = rng.uniform(0.1, 1.0, size)
    return global_stats(weights / weights.sum())


def test_criterion_1_identity_guidance_is_bit_exact():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        size = int(rng.integers(3, 6))
        model = train_markov_prior([random_grid(rng, 3, 3, size)])
        height = int(rng.integers(1, 4))
        width = int(rng.integers(1, 4))
        seed = int(rng.integers(0, 2**32))
        temperature = float(rng.choice([0.7, 1.0, 1.5]))
        top_k = int(rng.integers(2, size + 1)) if rng.random() < 0.5 else None
        style = random_stats(rng, size)
        if rng.random() < 0.5:
            table = global_likelihood_table(style, style, float(rng.uniform(0.0, 3.0)))
        else:
            dataset = random_stats(rng, size)
            table = global_likelihood_table(style, dataset, 0.0)
        base = SamplingConfig(seed=seed, temperature=temperature, top_k=top_k)
        plain = sample_grid(model, height, width, None, base)
        guided = sample_grid(
            model, height, width, None,
            SamplingConfig(seed=seed, temperature=temperature, top_k=top_k, guidance=table),
        )
        mismatches += plain != guided
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    verdict(1, "identity guidance bit-exact", ok,
            f"mismatches {mismatches}/100, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_sampler_matches_exact_chain():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    draws = 200_000
    runs = 0
    for p in range(5):
        size = 3
        model = train_markov_prior([random_grid(rng, 4, 4, size)])
        style = random_stats(rng, size)
        dataset = random_stats(rng, size)
        tables = [None, global_likelihood_table(style, dataset, 1.0),
                  global_likelihood_table(style, dataset, 2.0)]
        configs = [SamplingConfig(guidance=table) for table in tables] + [
            SamplingConfig(guidance=tables[1], temperature=0.6),
            SamplingConfig(guidance=tables[2], top_k=2),
        ]
        for v, config in enumerate(configs):
            exact = exact_sequence_distribution(model, 2, 2, None, config)
            seed = 5000 + 10 * p + v
            grids = batch_sample(
                model, 2, 2, draws, None, dataclasses.replace(config, seed=seed)
            )
            codes = grids.tokens.reshape(draws, -1)
            codes = codes @ np.array([size**3, size**2, size, 1])
            counts = np.bincount(codes, minlength=size**4)
            emp = counts / draws
            exact_vec = np.zeros(size**4)
            for outcome, prob in exact.items():
                idx = 0
                for token in outcome:
                    idx = idx * size + token
                exact_vec[idx] = prob
            worst = max(worst, 0.5 * float(np.abs(emp - exact_vec).sum()))
            runs += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 60.0
    verdict(2, "sampler matches exact chain", ok,
            f"max TV {worst:.5f} over {runs} runs (guided, tempered, top-k), {elapsed:.1f}s")
    assert worst <= 0.02
    assert elapsed < 60.0


def test_criterion_3_guided_samples_approach_target(landscape, landscape_runs):
    target = StyleReference("style0", landscape.refs["style0"])
    reductions, wins = [], 0
    for guided, unguided in zip(landscape_runs.guided, landscape_runs.unguided):
        report = guidance_report(guided, unguided, target)
        reductions.append(report.kl_reduction)
        wins += report.guided.pooled_kl < report.unguided.pooled_kl
    median = statistics.median(reductions)
    elapsed = landscape_runs.elapsed
    ok = wins >= 19 and median >= 0.5 and elapsed < 300.0
    verdict(3, "guided pooled KL drops", ok,
            f"median reduction {median:.3f}, wins {wins}/20, sampling {elapsed:.0f}s")
    assert wins >= 19
    assert median >= 0.5
    assert elapsed < 300.0


def test_criterion_4_style_match_rates(landscape, landscape_runs):
    refs = [StyleReference(name, dist) for name, dist in landscape.refs.items()]
    guided_all = [grid for batch in landscape_runs.guided for grid in batch]
    unguided_all = [grid for batch in landscape_runs.unguided for grid in batch]
    guided_rate = style_match_rate(guided_all, refs).rate_for("style0")
    unguided_rate = style_match_rate(unguided_all, refs).rate_for("style0")
    ok = guided_rate >= 0.9 and 0.10 <= unguided_rate <= 0.40
    verdict(4, "style-match rate", ok,
            f"guided {guided_rate:.3f}, unguided {unguided_rate:.3f}")
    assert guided_rate >= 0.9
    assert 0.10 <= unguided_rate <= 0.40


def test_criterion_5_regional_guidance_is_per_label(landscape):
    # Row-local context plus row-constant labels keep the two regions'
    # chains independent, so single-label guidance cannot leak across.
    model = train_markov_prior(
        landscape.corpus, context=parse_context_template("left"), conditional=True
    )
    dataset_reg = monte_carlo_regional_distribution(landscape.corpus, DRAWS, 0.5, 0)
    style_a = average_scoped(
        [histogram_by_region(g, s, 0.5) for g, s in load_exemplars(landscape.dir, "style0")]
    )
    style_b = average_scoped(
        [histogram_by_region(g, s, 0.5) for g, s in load_exemplars(landscape.dir, "style2")]
    )
    mixed = ScopedDistributions(
        [style_a.probs[0], style_b.probs[1]], [style_a.masses[0], style_b.masses[1]]
    )
    label0_only = ScopedDistributions(
        [style_a.probs[0], dataset_reg.probs[1]], [style_a.masses[0], dataset_reg.masses[1]]
    )
    both_table = scoped_likelihoods(
        mixed, dataset_reg, collapse_scoped(mixed), collapse_scoped(dataset_reg)
    )
    label0_table = scoped_likelihoods(
        label0_only, dataset_reg,
        collapse_scoped(label0_only), collapse_scoped(dataset_reg),
    )
    semantics = SemanticGrid(32, 32, 2, np.repeat([0, 1], 16)[:, None].repeat(32, axis=1))
    target = StyleReference("mixed", collapse_scoped(mixed), regional=mixed)

    reductions = {0: [], 1: []}
    interference = []
    for rep in range(20):
        seed = 2000 + rep
        unguided = batch_sample(
            model, 32, 32, 16, semantics, SamplingConfig(seed=seed)
        )
        both = batch_sample(
            model, 32, 32, 16, semantics, SamplingConfig(seed=seed, guidance=both_table)
        )
        partial = batch_sample(
            model, 32, 32, 16, semantics, SamplingConfig(seed=seed, guidance=label0_table)
        )
        report = guidance_report(both, unguided, target, regions=semantics)
        for label in (0, 1):
            reductions[label].append(report.kl_reduction_per_label[label])

        def label1_pooled(grids):
            counts = np.zeros(32)
            for grid in grids:
                counts += np.bincount(grid.tokens[16:].ravel(), minlength=32)
            return global_stats(counts / counts.sum())

        interference.append(
            total_variation(label1_pooled(partial), label1_pooled(unguided))
        )
    medians = {label: statistics.median(vals) for label, vals in reductions.items()}
    leak = max(interference)
    ok = medians[0] >= 0.5 and medians[1] >= 0.5 and leak <= 0.1
    verdict(5, "regional guidance per label", ok,
            f"median reductions {medians[0]:.3f}/{medians[1]:.3f}, max cross-label TV {leak:.4f}")
    assert medians[0] >= 0.5
    assert medians[1] >= 0.5
    assert leak <= 0.1


def test_criterion_6_monte_carlo_estimator_converges():
    rng = np.random.default_rng(5)
    grids = [random_grid(rng, 8, 8, 8) for _ in range(4)]
    exact = np.mean(
        [np.bincount(g.tokens.ravel(), minlength=8) / 64.0 for g in grids], axis=0
    )
    start = time.perf_counter()

    def tv_at(k, seed):
        est = monte_carlo_dataset_distribution(grids, k, 0.0, seed)
        return 0.5 * float(np.abs(est.probs - exact).sum())

    medians = {
        k: statistics.median(tv_at(k, seed) for seed in range(200))
        for k in (10, 100, 1000)
    }
    mean_probs = np.mean(
        [monte_carlo_dataset_distribution(grids, 10, 0.0, seed).probs
         for seed in range(1000)],
        axis=0,
    )
    bias = 0.5 * float(np.abs(mean_probs - exact).sum())
    elapsed = time.perf_counter() - start
    ok = (
        medians[10] > medians[100] > medians[1000]
        and medians[1000] <= 0.02
        and bias <= 0.01
        and elapsed < 30.0
    )
    verdict(6, "Monte-Carlo estimator converges", ok,
            f"median TV {medians[10]:.4f}/{medians[100]:.4f}/{medians[1000]:.4f} "
            f"at K=10/100/1000, K=10 bias {bias:.4f}, {elapsed:.1f}s")
    assert medians[10] > medians[100] > medians[1000]
    assert medians[1000] <= 0.02
    assert bias <= 0.01
    assert elapsed < 30.0


def test_criterion_7_spatial_partition_ablation(tmp_path):
    config = spatial_contrast_config()
    make_benchmark(config, tmp_path)
    corpus = load_corpus(tmp_path)
    grids = [grid for grid, _ in corpus]
    model = train_markov_prior(corpus)
    exemplars = [grid for grid, _ in load_exemplars(tmp_path, "low-high")]
    style_global = average_distributions(
        [histogram_from_grid(grid, 0.5) for grid in exemplars]
    )
    style_spatial = histogram_by_cell(exemplars, 2, 1, 0.5)
    dataset_global = monte_carlo_dataset_distribution(grids, DRAWS, 0.5, 0)
    dataset_spatial = monte_carlo_spatial_distribution(grids, 2, 1, DRAWS, 0.5, 0)
    global_table = global_likelihood_table(style_global, dataset_global)
    spatial_table = scoped_likelihoods(
        style_spatial, dataset_spatial,
        collapse_scoped(style_spatial), collapse_scoped(dataset_spatial),
    )

    global_reds, spatial_reds, strict_wins = [], [], 0
    for rep in range(20):
        seed = 3000 + rep
        unguided = batch_sample(model, 16, 16, 20, None, SamplingConfig(seed=seed))
        via_global = batch_sample(
            model, 16, 16, 20, None, SamplingConfig(seed=seed, guidance=global_table)
        )
        via_spatial = batch_sample(
            model, 16, 16, 20, None, SamplingConfig(seed=seed, guidance=spatial_table)
        )
        base = spatial_divergence(unguided, style_spatial)
        g_red = relative_reduction(spatial_divergence(via_global, style_spatial), base)
        s_red = relative_reduction(spatial_divergence(via_spatial, style_spatial), base)
        global_reds.append(g_red)
        spatial_reds.append(s_red)
        strict_wins += s_red > g_red
    g_median = statistics.median(global_reds)
    s_median = statistics.median(spatial_reds)
    ok = g_median <= 0.10 and s_median >= 0.40 and strict_wins >= 19
    verdict(7, "spatial beats global on layout styles", ok,
            f"median reduction global {g_median:.3f} vs spatial {s_median:.3f}, "
            f"wins {strict_wins}/20")
    assert g_median <= 0.10
    assert s_median >= 0.40
    assert strict_wins >= 19


def test_criterion_8_invariant_suite_within_budget():
    root = Path(__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 120.0
    verdict(8, "invariant suite in budget", ok,
            f"exit {proc.returncode}, {elapsed:.0f}s")
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed < 120.0
