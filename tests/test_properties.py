"""Property-based invariant suite.

Each test quantifies one module-level invariant over >= 1000 random cases;
pointwise examples live in the per-module test files.  Strategies stay
small (codebooks <= 8, grids <= 6x6) and cheap to draw, because drawing
cases, not running gcs, is where this file spends its time:

- vectors are fixed-size tuples of scalar draws;
- a grid's (height, width, codebook size) is one `sampled_from` choice,
  and each grid row is one integer decoded into its cells
  (`draw_digit_grid`);
- strategy factories are memoised, so Hypothesis validates each strategy
  object once instead of on every case, and shared pieces are `draw_*`
  helpers rather than composites nested inside composites;
- "some count is nonzero" and "j != i" hold by construction or by a
  draw-level filter, not by discarding whole cases with `assume`.

The file runs in about 75 s on a 2-vCPU machine, inside the 120 s that
acceptance criterion 8 allows.  derandomize keeps the case stream stable
across runs.
"""

import dataclasses
import functools
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gcs.core import SemanticGrid, TokenGrid, ValidationError
from gcs.distributions import (
    histogram_by_cell,
    histogram_by_region,
    histogram_from_grid,
    monte_carlo_dataset_distribution,
    smoothed_rows,
)
from gcs.formats import (
    scoped_from_dict,
    scoped_to_dict,
    semantic_grid_from_bytes,
    semantic_grid_to_bytes,
    token_grid_from_bytes,
    token_grid_to_bytes,
)
from gcs.guidance import LikelihoodTable, global_likelihood_table, rebalance_rows
from gcs.metrics import (
    StyleReference,
    kl_divergence,
    style_match_rate,
    total_variation,
)
from gcs.prior import parse_context_template, train_markov_prior
from gcs import sampler
from gcs.rng import split_seed
from gcs.sampler import SamplingConfig, batch_sample, exact_sequence_distribution, sample_grid
from conftest import global_stats, guidance_row, likelihood_weights
from test_world import realize_layout

prop = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=(HealthCheck.filter_too_much, HealthCheck.too_slow),
)

sizes = st.integers(min_value=2, max_value=8)
weights = st.floats(0.01, 100.0)


@functools.cache
def tuples_of(elements, size):
    return st.tuples(*[elements] * size)


def draw_weights(draw, size):
    return np.array(draw(tuples_of(weights, size)))


@functools.cache
def nonzero_counts(size):
    return tuples_of(st.integers(0, 12), size).filter(any)


def normalized(weights, mass=0.0):
    """Global statistics of ``weights`` scaled to sum to one, as unsmoothed
    counts are."""
    return global_stats(smoothed_rows(np.array(weights, dtype=np.float64)[None], 0.0)[0], mass)


def draw_count_prior(draw, size):
    """A distribution built from integer counts; may carry exact zeros."""
    counts = np.array(draw(nonzero_counts(size)))
    return normalized(counts, float(counts.sum()))


def draw_digit_grid(draw, height, width, base):
    """A (height, width) int64 array with every cell in [0, base).

    Each row is drawn as one integer in [0, base**width) and decoded into
    its base-`base` digits: the same set of grids as drawing every cell,
    at one draw per row.
    """
    rows = draw(tuples_of(st.integers(0, base**width - 1), height))
    places = base ** np.arange(width, dtype=np.int64)
    return np.array(rows, dtype=np.int64)[:, None] // places % base


@functools.cache
@st.composite
def weight_vectors(draw, size=None):
    if size is None:
        size = draw(sizes)
    return draw_weights(draw, size)


@functools.cache
@st.composite
def count_priors(draw, size=None):
    if size is None:
        size = draw(sizes)
    return draw_count_prior(draw, size)


@functools.cache
@st.composite
def full_support_dists(draw, size=None):
    if size is None:
        size = draw(sizes)
    return normalized(draw_weights(draw, size))


@functools.cache
def grid_shapes(max_side, max_codebook):
    """(height, width, codebook size) triples, drawn as one choice."""
    sides = range(1, max_side + 1)
    return st.sampled_from(
        list(itertools.product(sides, sides, range(2, max_codebook + 1)))
    )


@functools.cache
@st.composite
def token_grids(draw, max_side=6, max_codebook=8):
    height, width, size = draw(grid_shapes(max_side, max_codebook))
    tokens = draw_digit_grid(draw, height, width, size)
    return TokenGrid(height, width, size, tokens)


@functools.cache
@st.composite
def grid_with_semantics(draw, max_side=6):
    grid = draw(token_grids(max_side=max_side))
    label_count = draw(st.integers(1, 4))
    labels = draw_digit_grid(draw, grid.height, grid.width, label_count)
    return grid, SemanticGrid(grid.height, grid.width, label_count, labels)


@functools.cache
@st.composite
def prior_and_weights(draw):
    size = draw(sizes)
    return draw_count_prior(draw, size), draw_weights(draw, size)


@functools.cache
def permutations(size):
    return st.permutations(range(size)).map(np.array)


def permute_dist(dist, perm):
    out = np.empty(dist.codebook_size)
    out[perm] = dist.probs[0]
    return global_stats(out, dist.masses[0])


def permute_grid(grid, perm):
    return TokenGrid(grid.height, grid.width, grid.codebook_size, perm[grid.tokens])


class TestNormalization:
    @prop
    @given(weight_vectors(), st.floats(1e-3, 1e3))
    def test_scale_invariance(self, weights, scale):
        base = normalized(weights)
        scaled = normalized(scale * weights)
        assert np.allclose(scaled.probs, base.probs, atol=1e-12, rtol=0.0)

    @prop
    @given(count_priors())
    def test_output_is_a_distribution_preserving_zeros(self, dist):
        probs = dist.probs[0]
        assert abs(float(probs.sum()) - 1.0) <= 1e-9
        assert np.all(probs >= 0.0)
        counts = probs * dist.masses[0]
        assert np.array_equal(probs == 0.0, np.rint(counts) == 0)


class TestGridValidation:
    @prop
    @given(st.data())
    def test_accepts_iff_tokens_in_range(self, data):
        height, width, size = data.draw(grid_shapes(4, 6))
        tokens = draw_digit_grid(data.draw, height, width, size + 2)
        if tokens.max() < size:
            assert np.array_equal(TokenGrid(height, width, size, tokens).tokens, tokens)
        else:
            with pytest.raises(ValidationError):
                TokenGrid(height, width, size, tokens)


class TestRoundTrips:
    @prop
    @given(token_grids())
    def test_token_grid_bytes(self, grid):
        assert token_grid_from_bytes(token_grid_to_bytes(grid)) == grid

    @prop
    @given(grid_with_semantics())
    def test_semantic_grid_bytes(self, pair):
        _, semantics = pair
        assert semantic_grid_from_bytes(semantic_grid_to_bytes(semantics)) == semantics

    @prop
    @given(count_priors())
    def test_distribution_json_is_bit_exact(self, dist):
        payload = json.loads(json.dumps(scoped_to_dict(dist)))
        back = scoped_from_dict(payload, "global")
        assert back.probs.tobytes() == dist.probs.tobytes()
        assert back.masses[0] == dist.masses[0]


class TestAggregationConsistency:
    @prop
    @given(grid_with_semantics())
    def test_regional_counts_sum_to_global(self, pair):
        grid, semantics = pair
        total = histogram_from_grid(grid, 0.0)
        regional = histogram_by_region(grid, semantics, 0.0)
        pooled = np.zeros(grid.codebook_size)
        for probs, mass in zip(regional.probs, regional.masses):
            pooled += probs * mass
        assert np.array_equal(
            np.rint(pooled), np.rint(total.probs[0] * total.masses[0])
        )

    @prop
    @given(st.data())
    def test_cell_refinement_matches_global(self, data):
        grid = data.draw(token_grids())
        rows = data.draw(st.integers(1, grid.height))
        cols = data.draw(st.integers(1, grid.width))
        spatial = histogram_by_cell([grid], rows, cols, 0.0)
        merged = np.zeros(grid.codebook_size)
        mass = 0.0
        for probs, cell_mass in zip(spatial.probs, spatial.masses):
            merged += probs * cell_mass
            mass += cell_mass
        merged /= mass
        assert np.allclose(
            merged, histogram_from_grid(grid, 0.0).probs[0], atol=1e-12, rtol=0.0
        )


class TestSmoothing:
    @prop
    @given(token_grids())
    def test_vanishing_alpha_recovers_frequencies(self, grid):
        raw = histogram_from_grid(grid, 0.0)
        nearly = histogram_from_grid(grid, 1e-12)
        assert np.allclose(nearly.probs, raw.probs, atol=1e-9, rtol=0.0)

    @prop
    @given(token_grids(), st.floats(1e-6, 10.0))
    def test_positive_alpha_gives_full_support(self, grid, alpha):
        assert np.all(histogram_from_grid(grid, alpha).probs > 0.0)


class TestPermutationEquivariance:
    @prop
    @given(st.data())
    def test_histograms(self, data):
        grid = data.draw(token_grids())
        perm = data.draw(permutations(grid.codebook_size))
        original = histogram_from_grid(grid, 0.0)
        relabeled = histogram_from_grid(permute_grid(grid, perm), 0.0)
        assert np.array_equal(relabeled.probs[0][perm], original.probs[0])

    @prop
    @given(st.data())
    def test_rebalanced_posterior(self, data):
        prior, weights = data.draw(prior_and_weights())
        perm = data.draw(permutations(prior.codebook_size))
        base = rebalance_rows(prior.probs, guidance_row(weights))
        permuted_weights = np.empty_like(weights)
        permuted_weights[perm] = weights
        moved = rebalance_rows(permute_dist(prior, perm).probs, guidance_row(permuted_weights))
        assert np.allclose(moved[0, perm], base[0], atol=1e-12, rtol=0.0)

    @prop
    @given(st.data())
    def test_style_assignment(self, data):
        size = data.draw(st.integers(2, 6))
        count = data.draw(st.integers(2, 3))
        dists = data.draw(tuples_of(full_support_dists(size), count))
        refs = [StyleReference(f"s{i}", dist) for i, dist in enumerate(dists)]
        samples = data.draw(tuples_of(token_grids(max_side=4, max_codebook=2), 2))
        samples = [
            TokenGrid(g.height, g.width, size, np.minimum(g.tokens, size - 1))
            for g in samples
        ]
        for grid in samples:
            hist = histogram_from_grid(grid, 0.0)
            scores = sorted(kl_divergence(hist, dist) for dist in dists)
            assume(scores[1] - scores[0] > 1e-9)
        perm = data.draw(permutations(size))
        base = style_match_rate(samples, refs)
        moved = style_match_rate(
            [permute_grid(g, perm) for g in samples],
            [StyleReference(r.name, permute_dist(d, perm)) for r, d in zip(refs, dists)],
        )
        assert moved.assigned == base.assigned


class TestRebalancingInvariants:
    @prop
    @given(prior_and_weights(), st.floats(1e-3, 1e3))
    def test_scale_invariance(self, pair, scale):
        prior, weights = pair
        base = rebalance_rows(prior.probs, guidance_row(weights))
        scaled = rebalance_rows(prior.probs, guidance_row(scale * weights))
        assert np.allclose(scaled, base, atol=1e-12, rtol=0.0)

    @prop
    @given(st.data())
    def test_matched_stats_are_identity(self, data):
        dist = data.draw(full_support_dists())
        exponent = data.draw(st.floats(0.0, 4.0))
        prior = data.draw(count_priors(dist.codebook_size))
        weights = likelihood_weights(dist.probs[0], dist.probs[0], exponent)
        assert np.all(weights == 1.0)
        assert rebalance_rows(prior.probs, weights) is prior.probs

    @prop
    @given(st.data())
    def test_zero_exponent_is_identity(self, data):
        size = data.draw(sizes)
        style = data.draw(full_support_dists(size))
        dataset = data.draw(full_support_dists(size))
        assert np.all(likelihood_weights(style.probs[0], dataset.probs[0], 0.0) == 1.0)

    @prop
    @given(prior_and_weights())
    def test_support_preservation(self, pair):
        prior, weights = pair
        post = rebalance_rows(prior.probs, guidance_row(weights))
        assert np.array_equal(post == 0.0, prior.probs == 0.0)

    @prop
    @given(st.data())
    def test_monotone_influence(self, data):
        prior, weights = data.draw(prior_and_weights())
        size = prior.codebook_size
        index = data.draw(st.integers(0, size - 1))
        factor = data.draw(st.floats(1.1, 10.0))
        boosted = weights.copy()
        boosted[index] *= factor
        before = rebalance_rows(prior.probs, guidance_row(weights))[0, index]
        after = rebalance_rows(prior.probs, guidance_row(boosted))[0, index]
        assert after >= before
        if 1e-6 < prior.probs[0, index] < 1.0 - 1e-6:
            assert after > before

    @prop
    @given(st.data())
    def test_exponent_matches_direct_formula(self, data):
        size = data.draw(sizes)
        style = data.draw(full_support_dists(size))
        dataset = data.draw(full_support_dists(size))
        prior = data.draw(full_support_dists(size))
        exponent = data.draw(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 4.0))
        )
        post = rebalance_rows(prior.probs, likelihood_weights(style.probs[0], dataset.probs[0], exponent))
        direct = prior.probs * (style.probs / dataset.probs) ** exponent
        direct /= direct.sum()
        assert np.allclose(post, direct, atol=1e-12, rtol=0.0)


class TestMetricProperties:
    @prop
    @given(st.data())
    def test_kl_nonnegative_zero_iff_equal(self, data):
        size = data.draw(sizes)
        p = data.draw(full_support_dists(size))
        q = data.draw(full_support_dists(size))
        assert kl_divergence(p, p) == 0.0
        value = kl_divergence(p, q)
        assert value >= 0.0
        if total_variation(p, q) > 1e-6:
            assert value > 0.0

    @prop
    @given(st.data())
    def test_tv_is_a_metric(self, data):
        size = data.draw(sizes)
        p = data.draw(full_support_dists(size))
        q = data.draw(full_support_dists(size))
        r = data.draw(full_support_dists(size))
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == total_variation(q, p)
        assert 0.0 <= total_variation(p, q) <= 1.0
        assert (
            total_variation(p, r)
            <= total_variation(p, q) + total_variation(q, r) + 1e-12
        )


KNOB_TEMPLATES = st.sampled_from(
    [parse_context_template(spec) for spec in ("left,above", "above-right", "above-left")]
)
KNOB_TILINGS = st.sampled_from([None, (1, 1), (2, 2), (3, 1)])  # None: one row per label
KNOB_TEMPERATURES = st.sampled_from([1.0, 0.5, 2.0])


@functools.cache
def top_ks(size):
    """No truncation, or a top-k below K that leaves zero entries."""
    return st.sampled_from([None, *range(1, size)])


class TestDeterminismAndSplitting:
    @prop
    @given(
        st.integers(0, 2**63 - 1),
        st.integers(0, 2**20),
        st.integers(1, 2**20),
    )
    def test_split_seeds_are_distinct(self, seed, i, offset):
        j = (i + offset) % (2**20 + 1)
        assert split_seed(seed, i) != split_seed(seed, j)

    @prop
    @given(st.data())
    def test_monte_carlo_estimate_is_seed_deterministic(self, data):
        grids = data.draw(tuples_of(token_grids(max_side=3, max_codebook=4), 2))
        grids = [
            TokenGrid(g.height, g.width, 4, np.minimum(g.tokens, 3)) for g in grids
        ]
        seed = data.draw(st.integers(0, 2**32))
        first = monte_carlo_dataset_distribution(grids, 16, 0.5, seed)
        second = monte_carlo_dataset_distribution(grids, 16, 0.5, seed)
        assert first.probs.tobytes() == second.probs.tobytes()

    @prop
    @given(st.data())
    def test_sampling_is_deterministic(self, data):
        grid = data.draw(token_grids(max_side=3, max_codebook=4))
        model = train_markov_prior([grid])
        config = SamplingConfig(seed=data.draw(st.integers(0, 2**32)))
        if data.draw(st.booleans()):
            style = data.draw(full_support_dists(grid.codebook_size))
            dataset = data.draw(full_support_dists(grid.codebook_size))
            config = dataclasses.replace(
                config, guidance=global_likelihood_table(
                    style, dataset, 2.0
                )
            )
        first = sample_grid(model, 3, 3, None, config)
        second = sample_grid(model, 3, 3, None, config)
        assert first == second

    @prop
    @given(st.data())
    def test_batch_equals_split_sequential(self, data):
        grid = data.draw(token_grids(max_side=3, max_codebook=4))
        model = train_markov_prior([grid])
        seed = data.draw(st.integers(0, 2**32))
        config = SamplingConfig(seed=seed)
        batch = batch_sample(model, 2, 3, 2, None, config)
        for i, sampled in enumerate(batch):
            solo = sample_grid(
                model, 2, 3, None, dataclasses.replace(config, seed=split_seed(seed, i))
            )
            assert sampled == solo

    @prop
    @given(st.data())
    def test_batch_equals_split_sequential_across_knobs(self, data):
        # Wavefront skews 1, 2 and 0; a conditional prior; per-label and
        # tiled tables; temperature; top-k truncation.
        size = data.draw(st.integers(2, 4))
        context = data.draw(KNOB_TEMPLATES)
        tokens = draw_digit_grid(data.draw, 3, 3, size)
        semantics = SemanticGrid(3, 3, 2, draw_digit_grid(data.draw, 3, 3, 2))
        grid = TokenGrid(3, 3, size, tokens)
        conditional = data.draw(st.booleans())
        model = train_markov_prior(
            [(grid, semantics)] if conditional else [grid], context=context, conditional=conditional
        )
        cells = data.draw(KNOB_TILINGS)
        scopes = 2 if cells is None else cells[0] * cells[1]
        guidance = LikelihoodTable(draw_weights(data.draw, scopes * size).reshape(scopes, size), cells)
        config = SamplingConfig(
            seed=data.draw(st.integers(0, 2**32)),
            temperature=data.draw(KNOB_TEMPERATURES),
            top_k=data.draw(top_ks(size)),
            guidance=guidance,
        )
        # Each case runs on the lazy row table and on the complete code-major
        # table, forced past the size rule that 3x3 batches of 3 fail.
        batches = []
        for complete in (False, True):
            with mock.patch.object(sampler, "_complete_pays", return_value=complete):
                batches.append(batch_sample(model, 3, 3, 3, semantics, config))
        for i, (lazy, full) in enumerate(zip(*batches)):
            solo = sample_grid(
                model, 3, 3, semantics, dataclasses.replace(config, seed=split_seed(config.seed, i))
            )
            assert lazy == solo and full == solo

    @prop
    @given(st.data())
    def test_identity_guidance_reproduces_plain_chain(self, data):
        grid = data.draw(token_grids(max_side=3, max_codebook=4))
        model = train_markov_prior([grid])
        seed = data.draw(st.integers(0, 2**32))
        dist = data.draw(full_support_dists(grid.codebook_size))
        plain = sample_grid(model, 3, 2, None, SamplingConfig(seed=seed))
        guided = sample_grid(
            model,
            3,
            2,
            None,
            SamplingConfig(seed=seed, guidance=global_likelihood_table(
                dist, dist
            )),
        )
        assert plain == guided

    @prop
    @given(st.data())
    def test_layout_realization_is_seed_deterministic(self, data):
        from gcs.world import LayoutSpec

        kind = data.draw(st.sampled_from(["constant", "bands", "horizon"]))
        if kind == "bands":
            spec = LayoutSpec(kind, bands=2)
        elif kind == "constant":
            spec = LayoutSpec(kind, label=1)
        else:
            spec = LayoutSpec(kind)
        seed = data.draw(st.integers(0, 2**32))
        first = realize_layout(spec, 4, 4, 2, seed)
        second = realize_layout(spec, 4, 4, 2, seed)
        assert first == second


class TestPriorChain:
    @prop
    @given(st.data())
    def test_exact_distribution_sums_to_one(self, data):
        grid = data.draw(token_grids(max_side=3, max_codebook=3))
        model = train_markov_prior([grid])
        height = data.draw(st.integers(1, 2))
        width = data.draw(st.integers(1, 2))
        guidance = None
        if data.draw(st.booleans()):
            style = data.draw(full_support_dists(grid.codebook_size))
            dataset = data.draw(full_support_dists(grid.codebook_size))
            guidance = global_likelihood_table(
                style, dataset
            )
        exact = exact_sequence_distribution(
            model, height, width, None, SamplingConfig(guidance=guidance)
        )
        assert len(exact) == grid.codebook_size ** (height * width)
        assert abs(sum(exact.values()) - 1.0) <= 1e-9

    @prop
    @given(st.data())
    def test_context_locality(self, data):
        grid = data.draw(token_grids(max_side=4, max_codebook=3))
        model = train_markov_prior([grid])
        height, width = 3, 4
        filled = data.draw(st.integers(2, height * width - 1))
        prefix = data.draw(tuples_of(st.integers(0, grid.codebook_size - 1), filled))
        row, col = divmod(filled, width)
        reachable = {(row, col - 1), (row - 1, col)}
        outside = [
            j for j in range(filled) if divmod(j, width) not in reachable
        ]
        assume(outside)
        j = data.draw(st.sampled_from(outside))
        mutated = list(prefix)
        mutated[j] = (mutated[j] + 1) % grid.codebook_size
        base = model.next_distribution(prefix, height, width, (row, col))
        other = model.next_distribution(mutated, height, width, (row, col))
        assert np.array_equal(base.probs, other.probs)
