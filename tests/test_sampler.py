import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from gcs.core import CategoricalDistribution, SemanticGrid, TokenGrid, ValidationError
from gcs.distributions import histogram_by_cell, histogram_by_region, histogram_from_grid
from gcs.guidance import (
    LikelihoodTable,
    LikelihoodVector,
    global_likelihood_table,
    scoped_likelihoods,
)
from gcs.prior import MarkovGridPrior, parse_context_template, train_markov_prior
from gcs.rng import split_seed, unit_draw, seed_key
from gcs import sampler
from gcs.sampler import (
    SamplingConfig,
    batch_sample,
    index_from_unit,
    inverse_cdf_rows,
    posterior_rows,
    sample_grid,
    step_posterior,
)

from conftest import random_grid, random_semantics


def dist(probs):
    return CategoricalDistribution(len(probs), probs)


class TestSamplingConfig:
    def test_defaults(self):
        cfg = SamplingConfig()
        assert cfg.seed == 0 and cfg.temperature == 1.0 and cfg.top_k is None

    def test_bad_temperature(self):
        with pytest.raises(ValidationError):
            SamplingConfig(temperature=0.0)
        with pytest.raises(ValidationError):
            SamplingConfig(temperature=float("inf"))

    def test_bad_top_k(self):
        with pytest.raises(ValidationError):
            SamplingConfig(top_k=0)


class TestIndexFromUnit:
    def run(self, probs, u):
        p = np.asarray(probs, dtype=np.float64)
        return index_from_unit(p, np.cumsum(p), u)

    def test_edges_resolve_to_lower_index(self):
        assert self.run([0.25, 0.25, 0.5], 0.25) == 0
        assert self.run([0.25, 0.25, 0.5], 0.2500001) == 1
        assert self.run([0.25, 0.25, 0.5], 0.0) == 0
        assert self.run([0.25, 0.25, 0.5], 0.5) == 1

    def test_zero_head_skipped(self):
        assert self.run([0.0, 0.5, 0.5], 0.0) == 1

    def test_zero_middle_skipped(self):
        # u = 0.5 sits on the shared edge of the zero bin; skip past it.
        assert self.run([0.5, 0.0, 0.5], 0.5) == 0
        assert self.run([0.5, 0.0, 0.5], 0.5000001) == 2

    def test_float_shortfall_clamps_to_last_positive(self):
        probs = np.array([0.3, 0.3, 0.4, 0.0])
        short = np.array([0.3, 0.6, 0.99, 0.99])  # simulated rounding deficit
        assert index_from_unit(probs, short, 0.995) == 2

    def test_covers_all_positive_outcomes(self):
        probs = np.array([0.2, 0.0, 0.8])
        seen = {self.run(probs, u) for u in np.linspace(0, 0.999999, 101)}
        assert seen == {0, 2}


class TestInverseCdfRows:
    def test_matches_index_from_unit(self):
        # Draws on bin edges resolve to the lower index; draws on shared
        # cumulative values and past the float total of a row with trailing
        # zeros need the scalar fixup.
        probs = np.array(
            [[0.0, 0.5, 0.0, 0.5, 0.0], [0.1, 0.2, 0.3, 0.4, 0.0], [0.2] * 5]
        )
        cumulative = np.cumsum(probs, axis=1)
        cumulative[1, 3:] = 1.0 - 2**-52  # float shortfall at the top
        rows, us = [], []
        for row in range(3):
            for u in [0.0, 0.1, 0.5000001, 0.6, 0.99, 1.0 - 2**-53, *cumulative[row]]:
                rows.append(row)
                us.append(u)
        rows, us = np.array(rows), np.array(us)
        picked = inverse_cdf_rows(probs, cumulative, rows, us)
        expected = [
            index_from_unit(probs[r], cumulative[r], u) for r, u in zip(rows, us)
        ]
        assert picked.tolist() == expected
        assert all(probs[r, j] > 0 for r, j in zip(rows, picked))

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 31, 32, 33, 1000])
    def test_random_tables_match_index_from_unit(self, size):
        rng = np.random.default_rng(size)
        weights = rng.random((6, size))
        if size > 1:
            # Zero entries give repeated cumulative values, trailing ones
            # included; every row keeps at least one positive entry.
            weights[rng.random((6, size)) < 0.4] = 0.0
            weights[1, size // 2 :] = 0.0
            weights[np.arange(6), rng.integers(0, size // 2 + 1, 6)] = 1.0
            # A positive entry too small to move the sum repeats a
            # cumulative value without the zero-entry fixup behind it.
            weights[3, :2] = 1.0, 1e-30
        probs = weights / weights.sum(axis=1, keepdims=True)
        cumulative = np.cumsum(probs, axis=1)
        top = np.flatnonzero(probs[2])[-1]
        cumulative[2, top:] = 1.0 - 2**-52  # float shortfall at the top
        rows, us = [], []
        for row in range(6):
            edges = [0.0, 1.0 - 2**-53, *cumulative[row], *rng.random(50)]
            rows += [row] * len(edges)
            us += edges
        rows, us = np.array(rows), np.array(us)
        order = rng.permutation(len(us))
        rows, us = rows[order], us[order]
        inputs = (probs, cumulative, rows, us)
        saved = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False  # world.generate_scene passes read-only rows

        picked = inverse_cdf_rows(*inputs)

        expected = [index_from_unit(probs[r], cumulative[r], u) for r, u in zip(rows, us)]
        assert picked.tolist() == expected
        assert (probs[rows, picked] > 0.0).all()
        for before, after in zip(saved, inputs):
            assert np.array_equal(before, after)


def tempered(d, temperature):
    return step_posterior(d, SamplingConfig(temperature=temperature))


def truncated(d, top_k):
    return step_posterior(d, SamplingConfig(top_k=top_k))


class TestTemperature:
    def test_unity_returns_same_object(self):
        d = dist([0.8, 0.2])
        assert tempered(d, 1.0) is d

    def test_flattening(self):
        out = tempered(dist([0.8, 0.2]), 2.0)
        assert np.allclose(out.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_sharpening(self):
        out = tempered(dist([0.8, 0.2]), 0.5)
        assert np.allclose(out.probs, [16 / 17, 1 / 17], atol=1e-12)


class TestTopK:
    def test_keeps_most_probable(self):
        out = truncated(dist([0.7, 0.2, 0.1]), 1)
        assert list(out.probs) == [1.0, 0.0, 0.0]

    def test_tie_at_cut_prefers_lower_index(self):
        out = truncated(dist([0.4, 0.3, 0.3]), 2)
        assert np.allclose(out.probs, [4 / 7, 3 / 7, 0.0], atol=1e-12)

    def test_no_op_cases_return_same_object(self):
        d = dist([0.5, 0.3, 0.2])
        assert truncated(d, None) is d
        assert truncated(d, 3) is d
        sparse = dist([0.5, 0.5, 0.0])
        assert truncated(sparse, 2) is sparse

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            truncated(dist([0.5, 0.5]), 3)


def reference_posterior(probs, weights, temperature, top_k):
    """One row through guide, temperature and top-k, written plainly in 1-D."""
    if weights is not None and not np.all(weights == 1.0):
        scaled = probs * weights
        probs = scaled / float(scaled.sum())
    if temperature != 1.0:
        powered = probs ** (1.0 / temperature)
        probs = powered / powered.sum()
    if top_k is not None and top_k < probs.size:
        order = np.lexsort((np.arange(probs.size), -probs))
        if probs[order[top_k:]].any():
            kept = np.zeros(probs.size)
            kept[order[:top_k]] = probs[order[:top_k]]
            probs = kept / kept.sum()
    return probs


class TestPosteriorRows:
    def rows(self, rng, size):
        """Smoothed-count rows: ties, exact zeros (alpha 0) and one-hot rows."""
        counts = rng.integers(0, 4, (40, size)) * rng.integers(0, 2, (40, size))
        counts[:, 0] += 1  # every row has mass
        counts[1] = 1  # all tied
        counts[2] = 0
        counts[2, -1] = 5  # one-hot
        rows = []
        for alpha in (0.0, 0.05, 0.5):
            rows.append((counts + alpha) / (counts.sum(axis=1) + alpha * size)[:, None])
        return np.concatenate(rows)

    @pytest.mark.parametrize("size", [2, 3, 8, 33, 300])
    def test_matrix_equals_rows_and_reference(self, rng, size):
        probs = self.rows(rng, size)
        vectors = [
            None,
            LikelihoodVector(size, np.ones(size)),
            LikelihoodVector(size, rng.uniform(0.01, 2.0, size)),
        ]
        for vector in vectors:
            for temperature in (1.0, 0.8, 1.7, 0.5):
                for top_k in sorted({None, 1, 2, min(8, size), size}, key=str):
                    config = SamplingConfig(temperature=temperature, top_k=top_k)
                    matrix = posterior_rows(probs, vector, config)
                    weights = None if vector is None else vector.weights
                    for row, out in zip(probs, matrix):
                        one = posterior_rows(row[None], vector, config)[0]
                        ref = reference_posterior(row, weights, temperature, top_k)
                        assert one.tobytes() == out.tobytes() == ref.tobytes()
                    assert np.cumsum(matrix, axis=1).tobytes() == b"".join(
                        np.cumsum(out).tobytes() for out in matrix
                    )

    def test_no_op_rows_keep_their_bits(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        config = SamplingConfig(top_k=2)
        first = probs[:1]
        assert posterior_rows(first, None, config) is first
        out = posterior_rows(probs, LikelihoodVector(3, np.ones(3)), config)
        assert out[0].tobytes() == probs[0].tobytes()  # drops no mass
        assert np.allclose(out[1], [0.0, 0.375, 0.625], atol=1e-15)
        plain = SamplingConfig(top_k=3)
        assert posterior_rows(probs, LikelihoodVector(3, np.ones(3)), plain) is probs

    def test_errors_name_the_stage(self):
        probs = np.array([[0.5, 0.5], [1e-200, 0.0]])  # its mass underflows below
        with pytest.raises(ValidationError, match="zero total mass"):
            posterior_rows(probs, LikelihoodVector(2, np.array([1e-200, 1.0])), SamplingConfig())
        with pytest.raises(ValidationError, match="codebook size mismatch"):
            posterior_rows(probs, LikelihoodVector(3, np.ones(3)), SamplingConfig())
        with pytest.raises(ValidationError, match="unnormalizable"):
            posterior_rows(np.full((1, 2), 0.5), None, SamplingConfig(temperature=1e-4))
        with pytest.raises(ValidationError, match="exceeds codebook size"):
            posterior_rows(probs, None, SamplingConfig(top_k=3))


class TestStepPosterior:
    def test_guided_step(self):
        table = LikelihoodTable(1.0, (LikelihoodVector(2, np.array([1.0, 3.0])),), (1, 1))
        out = step_posterior(dist([0.5, 0.5]), SamplingConfig(guidance=table), (0, 0), None, (1, 1))
        assert np.allclose(out.probs, [0.25, 0.75], atol=1e-12)

    def test_plain_config_returns_prior_object(self):
        d = dist([0.6, 0.4])
        assert step_posterior(d, SamplingConfig()) is d

    def test_guidance_needs_position(self):
        table = LikelihoodTable(1.0, (LikelihoodVector(2, np.array([1.0, 3.0])),), (1, 1))
        with pytest.raises(ValidationError):
            step_posterior(dist([0.5, 0.5]), SamplingConfig(guidance=table))

    def test_pipeline_order(self):
        # Guidance first, then temperature, then truncation.
        table = LikelihoodTable(1.0, (LikelihoodVector(3, np.array([1.0, 2.0, 4.0])),), (1, 1))
        cfg = SamplingConfig(guidance=table, temperature=2.0, top_k=2)
        out = step_posterior(dist([0.5, 0.3, 0.2]), cfg, (0, 0), None, (1, 1))
        guided = np.array([0.5, 0.6, 0.8]) / 1.9
        tempered = np.sqrt(guided) / np.sqrt(guided).sum()
        kept = np.where(tempered >= np.sort(tempered)[1], tempered, 0.0)
        assert np.allclose(out.probs, kept / kept.sum(), atol=1e-12)


class FixedModel:
    """Minimal non-Markov prior: the same distribution at every step."""

    def __init__(self, probs):
        self.codebook_size = len(probs)
        self.conditional = False
        self._dist = dist(probs)

    def next_distribution(self, prefix, height, width, position, semantics=None):
        return self._dist


class TestSampleGrid:
    def test_deterministic(self, rng):
        model = train_markov_prior([random_grid(rng, 4, 4, 5) for _ in range(4)])
        a = sample_grid(model, 6, 6, config=SamplingConfig(seed=9))
        b = sample_grid(model, 6, 6, config=SamplingConfig(seed=9))
        c = sample_grid(model, 6, 6, config=SamplingConfig(seed=10))
        assert a == b
        assert a != c

    def test_one_draw_per_position(self):
        # Replaying the seed's unit stream through the model's CDFs must
        # reproduce the sample exactly.
        model = FixedModel([0.2, 0.3, 0.5])
        cfg = SamplingConfig(seed=4)
        grid = sample_grid(model, 3, 5, config=cfg)
        key = seed_key(4)
        probs = np.array([0.2, 0.3, 0.5])
        cum = np.cumsum(probs)
        expected = [
            index_from_unit(probs, cum, unit_draw(key, i)) for i in range(15)
        ]
        assert list(grid.flat) == expected

    def test_deterministic_corpus_reproduced(self):
        # With hard zeros the sampler can only retrace the training grid.
        pattern = TokenGrid(3, 3, 4, [[0, 1, 2], [1, 2, 3], [2, 3, 0]])
        model = train_markov_prior([pattern], smoothing_alpha=0.0)
        for seed in (0, 1, 7):
            assert sample_grid(model, 3, 3, config=SamplingConfig(seed=seed)) == pattern

    def test_conditional_requires_semantics(self, rng):
        pairs = [(random_grid(rng, 3, 3, 4), random_semantics(rng, 3, 3, 2))]
        model = train_markov_prior(pairs, conditional=True)
        with pytest.raises(ValidationError):
            sample_grid(model, 3, 3)

    def test_semantics_shape_checked(self, rng):
        model = train_markov_prior([random_grid(rng, 3, 3, 4)])
        sem = SemanticGrid(2, 2, 2, [[0, 0], [1, 1]])
        with pytest.raises(ValidationError):
            sample_grid(model, 3, 3, semantics=sem)

    def test_top_k_checked_against_model(self, rng):
        model = train_markov_prior([random_grid(rng, 3, 3, 4)])
        with pytest.raises(ValidationError):
            sample_grid(model, 3, 3, config=SamplingConfig(top_k=9))


def build_guided_configs(rng):
    """A representative spread of sampling configurations."""
    corpus = [random_grid(rng, 6, 6, 5) for _ in range(6)]
    style = histogram_from_grid(corpus[0])
    data = histogram_from_grid(corpus[1])
    sems = [random_semantics(rng, 6, 6, 2) for _ in corpus]
    reg_style = histogram_by_region(corpus[0], sems[0])
    reg_data = histogram_by_region(corpus[1], sems[1])
    spat_style = histogram_by_cell(corpus[:2], 2, 2)
    spat_data = histogram_by_cell(corpus[2:], 2, 2)
    return [
        (train_markov_prior(corpus), None, SamplingConfig(seed=5)),
        (
            train_markov_prior(corpus),
            None,
            SamplingConfig(seed=5, guidance=global_likelihood_table(style, data, 2.0)),
        ),
        (
            train_markov_prior(
                list(zip(corpus, sems)), conditional=True
            ),
            sems[0],
            SamplingConfig(
                seed=6,
                guidance=scoped_likelihoods(reg_style, reg_data, style, data),
            ),
        ),
        (
            train_markov_prior(corpus),
            None,
            SamplingConfig(
                seed=7,
                guidance=scoped_likelihoods(spat_style, spat_data, style, data),
                temperature=0.8,
            ),
        ),
        (train_markov_prior(corpus), None, SamplingConfig(seed=8, top_k=3)),
        (train_markov_prior(corpus), None, SamplingConfig(seed=9, temperature=1.7)),
    ]


def assert_matches_sequential(model, height, width, count, semantics, config):
    batch = batch_sample(model, height, width, count, semantics=semantics, config=config)
    for i, grid in enumerate(batch):
        assert grid == sample_grid(
            model, height, width, semantics,
            dataclasses.replace(config, seed=split_seed(config.seed, i)),
        ), f"sample {i}"


class TestWavefront:
    """`batch_sample` draws a whole anti-diagonal wavefront per step; each
    sample must still equal its own raster-order `sample_grid`."""

    TEMPLATES = {
        "left,above": ((0, -1), (-1, 0)),
        "four-slot": parse_context_template("left,above,above-left,above-right"),
        "far-above-right": ((0, -1), (-1, 3)),
        "above-left-only": ((-1, -1),),
    }

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 17)], ids=str)
    @pytest.mark.parametrize("template", list(TEMPLATES))
    def test_templates_and_shapes(self, rng, template, shape):
        corpus = [random_grid(rng, 5, 9, 4) for _ in range(4)]
        model = train_markov_prior(corpus, context=self.TEMPLATES[template])
        d = histogram_from_grid(corpus[0], 0.5)
        guidance = global_likelihood_table(d, histogram_from_grid(corpus[1], 0.5))
        assert_matches_sequential(model, *shape, 7, None, SamplingConfig(seed=21, guidance=guidance))

    @pytest.mark.parametrize(
        "template, steps", [("left,above", 63), ("four-slot", 94), ("above-left-only", 32)]
    )
    def test_one_step_per_wavefront(self, rng, monkeypatch, template, steps):
        model = train_markov_prior(
            [random_grid(rng, 4, 4, 3) for _ in range(2)], context=self.TEMPLATES[template]
        )
        calls = []

        def counted(probs, cumulative, rows, us):
            calls.append(us.size)
            return inverse_cdf_rows(probs, cumulative, rows, us)

        monkeypatch.setattr(sampler, "inverse_cdf_rows", counted)
        batch_sample(model, 32, 32, 3, config=SamplingConfig(seed=1))
        assert len(calls) == steps and sum(calls) == 32 * 32 * 3

    def test_regional_labels_vary_along_each_wavefront(self, rng):
        corpus = [random_grid(rng, 6, 7, 5) for _ in range(5)]
        rows = np.arange(6)[:, None].repeat(7, axis=1)
        # Label r % 3: positions of one wavefront lie on different rows.
        sem = SemanticGrid(6, 7, 3, rows % 3)
        sems = [random_semantics(rng, 6, 7, 3) for _ in corpus]
        model = train_markov_prior(list(zip(corpus, sems)), conditional=True)
        table = scoped_likelihoods(
            histogram_by_region(corpus[0], sems[0]),
            histogram_by_region(corpus[1], sems[1]),
            histogram_from_grid(corpus[0]),
            histogram_from_grid(corpus[1]),
        )
        assert_matches_sequential(model, 6, 7, 9, sem, SamplingConfig(seed=8, guidance=table))

    def test_spatial_cells_cut_across_wavefronts(self, rng):
        corpus = [random_grid(rng, 8, 10, 5) for _ in range(6)]
        model = train_markov_prior(corpus, context=self.TEMPLATES["four-slot"])
        table = scoped_likelihoods(
            histogram_by_cell(corpus[:2], 3, 4),
            histogram_by_cell(corpus[2:], 3, 4),
            histogram_from_grid(corpus[0]),
            histogram_from_grid(corpus[2]),
        )
        assert_matches_sequential(model, 8, 10, 9, None, SamplingConfig(seed=6, guidance=table))

    def test_temperature_and_top_k(self, rng):
        corpus = [random_grid(rng, 6, 6, 5) for _ in range(4)]
        model = train_markov_prior(corpus)
        d = histogram_from_grid(corpus[0])
        cfg = SamplingConfig(
            seed=4,
            temperature=0.8,
            top_k=2,
            guidance=global_likelihood_table(d, histogram_from_grid(corpus[1])),
        )
        assert_matches_sequential(model, 6, 6, 12, None, cfg)

    def test_unseen_context_message_unchanged(self):
        # Every row starts 0, 1 and then meets the unseen context (1,); the
        # wavefront holding column 2 has one such position per row.
        model = train_markov_prior(
            [TokenGrid(1, 2, 4, [0, 1])], context=((0, -1),), smoothing_alpha=0.0
        )
        message = (
            "context (1,) (label None) was never observed and smoothing_alpha is 0; "
            "the distribution is undefined"
        )
        with pytest.raises(ValidationError) as scalar:
            sample_grid(model, 3, 4, config=SamplingConfig(seed=split_seed(2, 0)))
        with pytest.raises(ValidationError) as batch:
            batch_sample(model, 3, 4, 6, config=SamplingConfig(seed=2))
        assert str(scalar.value) == message
        assert str(batch.value) == message

    def test_label_outside_regional_table(self, rng):
        # A two-label table on a map that uses label 2.
        corpus = [random_grid(rng, 3, 3, 4) for _ in range(2)]
        sems = [random_semantics(rng, 3, 3, 2) for _ in corpus]
        model = train_markov_prior(corpus)
        table = scoped_likelihoods(
            histogram_by_region(corpus[0], sems[0]),
            histogram_by_region(corpus[1], sems[1]),
            histogram_from_grid(corpus[0]),
            histogram_from_grid(corpus[1]),
        )
        sem = SemanticGrid(3, 3, 3, [0, 1, 0, 1, 2, 1, 0, 1, 0])
        cfg = SamplingConfig(seed=1, guidance=table)
        with pytest.raises(ValidationError, match="label 2 outside the table's 2 labels"):
            batch_sample(model, 3, 3, 4, sem, cfg)
        with pytest.raises(ValidationError, match="label 2 outside the table's 2 labels"):
            sample_grid(model, 3, 3, sem, cfg)


class TestBatchSample:
    def test_matches_sequential_sampling(self, rng):
        # The vectorized path must be bit-identical to per-sample runs.
        for model, sem, cfg in build_guided_configs(rng):
            fast = batch_sample(model, 6, 6, 12, semantics=sem, config=cfg)
            slow = [
                sample_grid(
                    model, 6, 6, sem, dataclasses.replace(cfg, seed=split_seed(cfg.seed, i))
                )
                for i in range(12)
            ]
            assert fast == slow

    def test_first_sample_uses_first_split(self, rng):
        model = train_markov_prior([random_grid(rng, 4, 4, 4) for _ in range(3)])
        cfg = SamplingConfig(seed=31)
        batch = batch_sample(model, 4, 4, 1, config=cfg)
        direct = sample_grid(
            model, 4, 4, config=dataclasses.replace(cfg, seed=split_seed(31, 0))
        )
        assert batch[0] == direct

    def test_identity_guidance_is_bitwise_noop(self, rng):
        model = train_markov_prior([random_grid(rng, 5, 5, 4) for _ in range(4)])
        d = histogram_from_grid(random_grid(rng, 5, 5, 4))
        identity = global_likelihood_table(d, d, exponent=3.0)
        plain = batch_sample(model, 5, 5, 8, config=SamplingConfig(seed=2))
        guided = batch_sample(
            model, 5, 5, 8, config=SamplingConfig(seed=2, guidance=identity)
        )
        assert plain == guided

    def test_labels_past_the_model_match_sequential(self, rng):
        # A semantic map with labels the model never saw: every context
        # under labels 2 and 3 is unseen and must not alias labels 0 and 1.
        corpus = [(random_grid(rng, 5, 5, 6), random_semantics(rng, 5, 5, 2)) for _ in range(4)]
        model = train_markov_prior(corpus, conditional=True)
        sem = random_semantics(rng, 5, 5, 4)
        assert {2, 3} <= set(sem.labels.flat)
        cfg = SamplingConfig(seed=12)
        batch = batch_sample(model, 5, 5, 30, semantics=sem, config=cfg)
        for i, grid in enumerate(batch):
            assert grid == sample_grid(
                model, 5, 5, sem, dataclasses.replace(cfg, seed=split_seed(12, i))
            )

    def test_non_markov_model_falls_back(self):
        model = FixedModel([0.1, 0.4, 0.5])
        batch = batch_sample(model, 2, 3, 4, config=SamplingConfig(seed=1))
        for i, grid in enumerate(batch):
            assert grid == sample_grid(
                model, 2, 3, config=SamplingConfig(seed=split_seed(1, i))
            )

    def test_wide_context_codes_do_not_alias(self):
        # (70000 + 1) ** 4 passes 2**64, so packed into one int64 code the
        # context (776, 56752, 20310, 53778) wraps onto the all-zero context
        # at position (1, 1); such a model must not be grouped by that code.
        size = 70000
        a = TokenGrid(2, 3, size, [[20310, 56752, 53778], [776, 1, 2]])
        b = TokenGrid(2, 3, size, [[0, 0, 0], [0, 3, 4]])
        template = parse_context_template("left,above,above-left,above-right")
        model = train_markov_prior([a, b], context=template, smoothing_alpha=1e-9)
        cfg = SamplingConfig(seed=4)
        batch = batch_sample(model, 2, 3, 8, config=cfg)
        assert {int(g.tokens[1, 0]) for g in batch} == {776, 0}
        for i, grid in enumerate(batch):
            assert grid == sample_grid(
                model, 2, 3, config=dataclasses.replace(cfg, seed=split_seed(4, i))
            )

    def test_matches_sequential_without_smoothing(self, rng):
        # Unsmoothed rows are mostly zeros; the row ending [0..7, 0] makes
        # every left context a trained one, so no step meets an unseen state.
        corpus = [random_grid(rng, 4, 4, 8) for _ in range(3)]
        corpus.append(TokenGrid(1, 9, 8, [0, 1, 2, 3, 4, 5, 6, 7, 0]))
        model = train_markov_prior(corpus, context=((0, -1),), smoothing_alpha=0.0)
        assert all(model.state_of((t,), None) < len(model.counts) for t in range(8))
        assert np.count_nonzero(model.counts == 0) > 30
        for top_k in (None, 2):
            cfg = SamplingConfig(seed=3, top_k=top_k)
            batch = batch_sample(model, 3, 5, 40, config=cfg)
            for i, grid in enumerate(batch):
                assert grid == sample_grid(
                    model, 3, 5, config=dataclasses.replace(cfg, seed=split_seed(3, i))
                )

    def test_unseen_context_without_smoothing_raises(self):
        # Context (1,) at the third cell was never observed.
        model = train_markov_prior(
            [TokenGrid(1, 2, 4, [0, 1])], context=((0, -1),), smoothing_alpha=0.0
        )
        with pytest.raises(ValidationError, match="never observed"):
            sample_grid(model, 1, 3)
        with pytest.raises(ValidationError, match="never observed"):
            batch_sample(model, 1, 3, 5)

    def test_large_batch_through_sorted_index_matches_sequential(self, rng):
        # (600 + 1) ** 2 template codes exceed the dense budget, so states
        # are looked up by sorted int64 codes; many samples share each row.
        corpus = [random_grid(rng, 3, 3, 600) for _ in range(40)]
        model = train_markov_prior(corpus, smoothing_alpha=0.05)
        d = histogram_from_grid(corpus[0], 0.5)
        cfg = SamplingConfig(
            seed=11, guidance=global_likelihood_table(d, histogram_from_grid(corpus[1], 0.5))
        )
        batch = batch_sample(model, 3, 3, 1500, config=cfg)
        assert len({g.tokens.tobytes() for g in batch}) > 1000
        for i, grid in enumerate(batch):
            assert grid == sample_grid(
                model, 3, 3, config=dataclasses.replace(cfg, seed=split_seed(11, i))
            )

    def test_unseen_contexts_keep_memory_bounded(self, rng):
        # Nearly every context of a K=4000 batch is unseen; they share one
        # prior row per label and one posterior row per scope.
        model = train_markov_prior([random_grid(rng, 3, 3, 4000) for _ in range(2)])
        tracemalloc.start()
        try:
            batch_sample(model, 3, 3, 300, config=SamplingConfig(seed=1))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_fine_tiling_keeps_index_memory_bounded(self, rng):
        # One scope per cell of a 16x16 grid, over 256 ** 2 template codes:
        # a code-space array per scope would take 128 MiB.
        corpus = [random_grid(rng, 16, 16, 255) for _ in range(4)]
        model = train_markov_prior(corpus[:2])
        table = scoped_likelihoods(
            histogram_by_cell(corpus[2:3], 16, 16),
            histogram_by_cell(corpus[3:], 16, 16),
            histogram_from_grid(corpus[2], 0.5),
            histogram_from_grid(corpus[3], 0.5),
        )
        cfg = SamplingConfig(seed=2, guidance=table)
        tracemalloc.start()
        try:
            batch = batch_sample(model, 16, 16, 20, config=cfg)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for i in (0, 19):
            assert batch[i] == sample_grid(
                model, 16, 16, config=dataclasses.replace(cfg, seed=split_seed(2, i))
            )

    def test_step_buffers_stay_within_the_output(self, rng):
        # A guided 32x32 batch of 2000 holds its position-major tokens and
        # the grids handed back; per-step buffers are (wavefront, n), so
        # nothing of (n * wavefront, K) or a further full copy fits.
        corpus = [random_grid(rng, 32, 32, 32) for _ in range(3)]
        model = train_markov_prior(corpus)
        d = histogram_from_grid(corpus[0], 0.5)
        guidance = global_likelihood_table(d, histogram_from_grid(corpus[1], 0.5))
        tracemalloc.start()
        try:
            batch = batch_sample(model, 32, 32, 2000, config=SamplingConfig(seed=3, guidance=guidance))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(batch) == 2000
        assert peak <= 2.5 * 2000 * 32 * 32 * 8

    def test_count_validated(self, rng):
        model = train_markov_prior([random_grid(rng, 3, 3, 4)])
        with pytest.raises(ValidationError):
            batch_sample(model, 3, 3, 0)

    def test_samples_are_pairwise_independent(self):
        # Chi-square independence over paired first tokens: batch samples
        # must behave like independent streams.
        model = FixedModel([0.5, 0.3, 0.2])
        batch = batch_sample(model, 1, 2, 20000, config=SamplingConfig(seed=13))
        firsts = np.array([g.tokens[0, 0] for g in batch])
        pairs = firsts.reshape(-1, 2)
        table = np.zeros((3, 3))
        for a, b in pairs:
            table[a, b] += 1
        assert table.min() >= 5
        _stat, p_value, _dof, _exp = chi2_contingency(table)
        assert p_value > 0.01