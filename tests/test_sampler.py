import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from gcs.core import SemanticGrid, TokenGrid, ValidationError
from gcs.distributions import histogram_by_cell, histogram_by_region, histogram_from_grid
from gcs.guidance import global_likelihood_table, scoped_likelihoods
from gcs.prior import BOUNDARY, DENSE_STATE_CODES, MarkovGridPrior, parse_context_template, train_markov_prior
from gcs.rng import index_from_unit, inverse_cdf_rows, split_seed, unit_draw, seed_key
from gcs import sampler
from gcs.sampler import (
    BATCH_CELL_LIMIT,
    SamplingConfig,
    batch_sample,
    exact_sequence_distribution,
    posterior_rows,
    sample_grid,
)

from conftest import guidance_row, random_grid, random_semantics

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
            a.flags.writeable = False  # world.generate_scenes passes read-only rows

        picked = inverse_cdf_rows(*inputs)

        expected = [index_from_unit(probs[r], cumulative[r], u) for r, u in zip(rows, us)]
        assert picked.tolist() == expected
        assert (probs[rows, picked] > 0.0).all()
        for before, after in zip(saved, inputs):
            assert np.array_equal(before, after)


class TestBucketTable:
    """A complete table looks most draws up in its rows' bucket tables and
    sends the rest through `inverse_cdf_rows`; a lazy table searches every
    draw.  Both give the pick of the binary search and of `index_from_unit`,
    bit for bit."""

    @staticmethod
    def tables_of(probs):
        """A lazy and a complete table over the same rows: the smoothed rows
        of a stand-in prior, which identity guidance leaves untouched."""
        size = probs.shape[1]
        model = types.SimpleNamespace(
            counts=probs[:-1], smoothed=probs, codebook_size=size, _code_index=(None, np.arange(len(probs)))
        )
        lazy = sampler._RowTable(model, np.ones((1, size)), SamplingConfig())
        lazy._append([probs])
        full = sampler._RowTable(model, np.ones((1, size)), SamplingConfig())
        full.complete()
        for name in ("probs", "cumulative"):
            assert getattr(full, name).tobytes() == getattr(lazy, name)[: lazy.size].tobytes()
        expected = sampler._bucket_tables(full.cumulative, 2**full.log_buckets)
        assert full.by_code.dtype == expected.dtype and (full.by_code == expected).all()
        return lazy, full

    @staticmethod
    def picks(lazy, full, rows, raw):
        """The complete table's picks of raw draws from `rows`, which the lazy table's equal."""
        picked = full.pick(rows << full.log_buckets, raw)
        assert lazy.pick(rows, raw).tolist() == picked.tolist()
        return picked

    @staticmethod
    def adversarial_rows(rng, size):
        weights = rng.random((9, size)) + 0.01
        weights[0, : (size + 1) // 2] = 0.0  # zeros at the head
        weights[1, 1:-1] = 0.0  # zeros in the middle
        weights[2, size // 2 + 1 :] = 0.0  # zeros at the tail
        weights[3, rng.random(size) < 0.4] = 0.0
        weights[3, rng.integers(size)] = 1.0
        weights[4, :2] = 1.0, 1e-30  # a positive entry that repeats a cumulative value
        weights[5] = 1.0  # cumulative values k / K, on bucket edges when K is a power of two
        probs = weights / weights.sum(axis=1, keepdims=True)
        probs[6] *= 0.6  # the cumulative ends below 1 by more than a bucket
        probs[7] *= 1.0 - 1e-12
        probs[8] *= 1.3  # the cumulative ends above 1
        return probs

    @staticmethod
    def draws_of(cumulative, buckets):
        """Raw 64-bit draws whose 53-bit draws lie on and one below every
        bucket edge and cumulative value, with their low 11 bits all clear
        and all set."""
        edges = np.arange(buckets, dtype=np.uint64) * np.uint64(2**53 // buckets)
        at = np.minimum(cumulative * 2.0**53, 2**53 - 1).astype(np.uint64)
        bits = np.concatenate((edges, at, [2**53 - 1])).astype(np.uint64)
        bits = np.concatenate((bits, np.maximum(bits, 1) - np.uint64(1))) << np.uint64(11)
        return np.concatenate((bits, bits | np.uint64(2**11 - 1)))

    @staticmethod
    def reference_tables(cumulative, buckets):
        """Entry b: the count t of cumulative values below b / M, or -1 where
        the bucket holds a value or t = K (a shortfall past the last one)."""
        below = np.stack(
            [np.searchsorted(row, np.arange(buckets + 1) / buckets, side="left") for row in cumulative]
        )
        held = below[:, 1:] > below[:, :-1]
        return np.where(held | (below[:, :-1] == cumulative.shape[1]), -1, below[:, :-1])

    def test_pinned_tables(self):
        # K = 2: M = 16 buckets; 0.25 lies in bucket 4 and 1.0 in bucket 16, past the table.
        assert self.tables_of(one_row([0.25, 0.75]))[1].by_code.tolist() == [[0] * 4 + [-1] + [1] * 11]
        # K = 3: M = 32; the zero entry repeats 0.5 (bucket 16), so no bucket picks token 1.
        _, table = self.tables_of(one_row([0.5, 0.0, 0.5]))
        assert table.by_code.tolist() == [[0] * 16 + [-1] + [2] * 15]
        # A shortfall past the last bucket edge: 0.5 and 0.6 lie in buckets 8 and 9,
        # and draws from 0.6 on take the fallback.
        lazy, table = self.tables_of(one_row([0.5, 0.1]))
        assert table.by_code.tolist() == [[0] * 8 + [-1] * 8]
        assert self.picks(lazy, table, np.array([0]), np.array([2**64 - 1], dtype=np.uint64)).tolist() == [1]
        # K = 40,000 (M = 2^19) needs int32 entries: token 35,000 is picked from the table.
        probs = np.zeros((1, 40000))
        probs[0, [0, 35000, 39999]] = 0.5, 0.25, 0.25
        lazy, table = self.tables_of(probs)
        quarter = 2**17
        assert table.by_code.dtype == np.int32
        assert table.by_code.tolist() == [
            [0] * 2 * quarter + [-1] + [35000] * (quarter - 1) + [-1] + [39999] * (quarter - 1)
        ]
        draw = np.array([int(0.6 * 2**53) << 11], dtype=np.uint64)
        assert self.picks(lazy, table, np.array([0]), draw).tolist() == [35000]

    @pytest.mark.parametrize(
        "size, coarse", [(2, 4), (3, 8), (4, 8), (5, 16), (32, 64), (100, 256), (4000, 8192)]
    )
    def test_picks_match_binary_search(self, size, coarse):
        # `coarse` is the least power of two >= 2K; the complete table's M is 4x finer.
        buckets = 4 * coarse
        rng = np.random.default_rng(size)
        lazy, table = self.tables_of(self.adversarial_rows(rng, size))
        # Entries take the smallest signed type holding -K: int8 up to K = 128.
        assert table.by_code.dtype == np.min_scalar_type(-size) and table.by_code.shape[1] == buckets
        probs, cumulative = table.probs, table.cumulative
        for m in (coarse, buckets):
            reference = self.reference_tables(cumulative, m).tolist()
            assert sampler._bucket_tables(cumulative, m).tolist() == reference
        draws = [self.draws_of(row, buckets) for row in cumulative]
        rows = np.repeat(np.arange(len(draws)), [d.size for d in draws])
        raw = np.concatenate(draws)
        us = (raw >> np.uint64(11)) * 2.0**-53
        # The bucket of the raw draw's top bits is the float draw's, with no rounding.
        assert (np.floor(us * buckets) == raw // np.uint64(2**64 // buckets)).all()

        picked = self.picks(lazy, table, rows, raw)

        assert picked.tolist() == inverse_cdf_rows(probs, cumulative, rows, us).tolist()
        sample = slice(None) if size < 4000 else slice(None, None, 16)
        expected = [
            index_from_unit(probs[r], cumulative[r], u) for r, u in zip(rows[sample], us[sample])
        ]
        assert picked[sample].tolist() == expected
        assert (table.by_code >= 0).any()


def one_row(probs):
    return np.array([probs], dtype=np.float64)


def tempered(probs, temperature):
    return posterior_rows(probs, np.ones(probs.shape[1]), SamplingConfig(temperature=temperature))


def truncated(probs, top_k):
    return posterior_rows(probs, np.ones(probs.shape[1]), SamplingConfig(top_k=top_k))


class TestTemperature:
    def test_unity_returns_same_object(self):
        probs = one_row([0.8, 0.2])
        assert tempered(probs, 1.0) is probs

    def test_flattening(self):
        out = tempered(one_row([0.8, 0.2]), 2.0)
        assert np.allclose(out[0], [2 / 3, 1 / 3], atol=1e-12)

    def test_sharpening(self):
        out = tempered(one_row([0.8, 0.2]), 0.5)
        assert np.allclose(out[0], [16 / 17, 1 / 17], atol=1e-12)


class TestTopK:
    def test_keeps_most_probable(self):
        out = truncated(one_row([0.7, 0.2, 0.1]), 1)
        assert list(out[0]) == [1.0, 0.0, 0.0]

    def test_tie_at_cut_prefers_lower_index(self):
        out = truncated(one_row([0.4, 0.3, 0.3]), 2)
        assert np.allclose(out[0], [4 / 7, 3 / 7, 0.0], atol=1e-12)

    def test_no_op_cases_return_same_object(self):
        probs = one_row([0.5, 0.3, 0.2])
        assert truncated(probs, None) is probs
        assert truncated(probs, 3) is probs
        sparse = one_row([0.5, 0.5, 0.0])
        assert truncated(sparse, 2) is sparse

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            truncated(one_row([0.5, 0.5]), 3)


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
            np.ones(size),
            guidance_row(np.ones(size)),
            guidance_row(rng.uniform(0.01, 2.0, size)),
        ]
        for vector in vectors:
            for temperature in (1.0, 0.8, 1.7, 0.5):
                for top_k in sorted({None, 1, 2, min(8, size), size}, key=str):
                    config = SamplingConfig(temperature=temperature, top_k=top_k)
                    matrix = posterior_rows(probs, vector, config)
                    for row, out in zip(probs, matrix):
                        one = posterior_rows(row[None], vector, config)[0]
                        ref = reference_posterior(row, vector, temperature, top_k)
                        assert one.tobytes() == out.tobytes() == ref.tobytes()
                    assert np.cumsum(matrix, axis=1).tobytes() == b"".join(
                        np.cumsum(out).tobytes() for out in matrix
                    )

    def test_no_op_rows_keep_their_bits(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        config = SamplingConfig(top_k=2)
        first = probs[:1]
        assert posterior_rows(first, np.ones(3), config) is first
        out = posterior_rows(probs, guidance_row(np.ones(3)), config)
        assert out[0].tobytes() == probs[0].tobytes()  # drops no mass
        assert np.allclose(out[1], [0.0, 0.375, 0.625], atol=1e-15)
        plain = SamplingConfig(top_k=3)
        assert posterior_rows(probs, guidance_row(np.ones(3)), plain) is probs

    def test_errors_name_the_stage(self):
        probs = np.array([[0.5, 0.5], [1e-200, 0.0]])  # its mass underflows below
        with pytest.raises(ValidationError, match="zero total mass"):
            posterior_rows(probs, guidance_row(np.array([1e-200, 1.0])), SamplingConfig())
        with pytest.raises(ValidationError, match="codebook size mismatch"):
            posterior_rows(probs, guidance_row(np.ones(3)), SamplingConfig())
        with pytest.raises(ValidationError, match="unnormalizable"):
            posterior_rows(np.full((1, 2), 0.5), np.ones(2), SamplingConfig(temperature=1e-4))
        with pytest.raises(ValidationError, match="exceeds codebook size"):
            posterior_rows(probs, np.ones(2), SamplingConfig(top_k=3))


class TestStepPosterior:
    def test_guided_step(self):
        vector = guidance_row(np.array([1.0, 3.0]))
        out = posterior_rows(one_row([0.5, 0.5]), vector, SamplingConfig())
        assert np.allclose(out[0], [0.25, 0.75], atol=1e-12)

    def test_plain_config_returns_prior_object(self):
        probs = one_row([0.6, 0.4])
        assert posterior_rows(probs, np.ones(2), SamplingConfig()) is probs

    def test_pipeline_order(self):
        # Guidance first, then temperature, then truncation.
        vector = guidance_row(np.array([1.0, 2.0, 4.0]))
        cfg = SamplingConfig(temperature=2.0, top_k=2)
        out = posterior_rows(one_row([0.5, 0.3, 0.2]), vector, cfg)
        guided = np.array([0.5, 0.6, 0.8]) / 1.9
        tempered = np.sqrt(guided) / np.sqrt(guided).sum()
        kept = np.where(tempered >= np.sort(tempered)[1], tempered, 0.0)
        assert np.allclose(out[0], kept / kept.sum(), atol=1e-12)


def fixed_row_model(counts):
    """An unsmoothed left/above prior whose every context has `counts`."""
    contexts = list(itertools.product(range(BOUNDARY, len(counts)), repeat=2))
    return MarkovGridPrior(
        codebook_size=len(counts), smoothing_alpha=0.0,
        contexts=contexts, counts=[counts] * len(contexts),
    )


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
        model = fixed_row_model([2, 3, 5])
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
        pick = sampler._RowTable.pick

        def counted(table, rows, bits):
            calls.append(bits.size)
            return pick(table, rows, bits)

        monkeypatch.setattr(sampler._RowTable, "pick", counted)
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


class TestCompleteTable:
    """A batch with at least as many draws as the code-major table has
    entries builds every posterior row first and indexes the bucket rows by
    the prior's context code; every row and pick equals the lazy table's,
    bit for bit."""

    @pytest.fixture
    def completed(self, monkeypatch):
        """The tables completed while the test runs."""
        tables = []
        complete = sampler._RowTable.complete
        monkeypatch.setattr(sampler._RowTable, "complete", lambda t: tables.append(t) or complete(t))
        return tables

    @pytest.fixture
    def forced(self, monkeypatch, completed):
        """Completes the table of every batch, past the size rule."""
        monkeypatch.setattr(sampler, "_complete_pays", lambda entries, draws: True)
        return completed

    def test_rows_equal_the_lazy_rows(self, rng):
        size = 5
        model = train_markov_prior([random_grid(rng, 4, 4, size)])
        weights = rng.random((2, size)) + 0.1
        cfg = SamplingConfig(temperature=0.8, top_k=3)
        full = sampler._RowTable(model, weights, cfg)
        full.complete()
        lazy = sampler._RowTable(model, weights, cfg)
        # Every template context under both scopes, asked of the lazy table
        # a few keys at a time in shuffled order.
        contexts = np.array(list(itertools.product(range(BOUNDARY, size), repeat=2)))
        states = model.states(list(contexts.T), None)
        unseen = len(model.counts)
        assert unseen in states
        keys = rng.permutation([(scope, *c) for scope in range(2) for c in contexts])
        draws = rng.integers(0, 2**64, len(keys), dtype=np.uint64)
        for chunk in np.array_split(np.arange(len(keys)), 15):
            columns, scopes = list(keys[chunk, 1:].T), keys[chunk, 0]
            picked = lazy.pick(lazy.offsets(columns, None, scopes), draws[chunk])
            assert (full.pick(full.offsets(columns, None, scopes), draws[chunk]) == picked).all()

        rows = len(model.smoothed)
        assert full.size == 2 * rows
        for scope in range(2):
            for state in range(rows):
                mine = scope * rows + state
                theirs = lazy.row_of[scope * lazy.stride + state]
                for name in ("probs", "cumulative"):
                    assert getattr(full, name)[mine].tobytes() == getattr(lazy, name)[theirs].tobytes()

        bound, buckets = full.bound, 2**full.log_buckets
        tables = sampler._bucket_tables(full.cumulative, buckets)
        assert full.by_code.dtype == tables.dtype
        by_code = full.by_code.reshape(-1)
        for at in range(2 * bound):
            start = at << full.log_buckets
            assert by_code[start : start + buckets].tobytes() == tables[full.row_of_code[at]].tobytes()
        codes = model.codes(list(contexts.T), None)
        for scope in range(2):
            assert (full.row_of_code[scope * bound + codes] == scope * rows + states).all()

    def test_ranked_codes_match_sequential(self, rng, forced):
        # 33 ** 4 codes pass DENSE_STATE_CODES, so codes are ranks of the
        # trained states' codes and every other code shares rank 0.
        corpus = [random_grid(rng, 6, 6, 32) for _ in range(3)]
        model = train_markov_prior(corpus, context=TestWavefront.TEMPLATES["four-slot"])
        assert 33**4 > DENSE_STATE_CODES and len(model._code_index[1]) == len(model.counts) + 1
        d = histogram_from_grid(corpus[0], 0.5)
        cfg = SamplingConfig(seed=5, guidance=global_likelihood_table(d, histogram_from_grid(corpus[1], 0.5)))
        assert_matches_sequential(model, 6, 6, 8, None, cfg)
        assert len(forced) == 1

    def test_labels_past_a_conditional_model_match_sequential(self, rng, forced):
        # Labels 2 and 3 take the spare label digit; two tiling scopes offset the codes.
        corpus = [(random_grid(rng, 5, 5, 6), random_semantics(rng, 5, 5, 2)) for _ in range(4)]
        model = train_markov_prior(corpus, conditional=True)
        sem = random_semantics(rng, 5, 5, 4)
        assert {2, 3} <= set(sem.labels.flat)
        grids = [grid for grid, _ in corpus]
        table = scoped_likelihoods(
            histogram_by_cell(grids[:2], 1, 2),
            histogram_by_cell(grids[2:], 1, 2),
            histogram_from_grid(grids[0]),
            histogram_from_grid(grids[2]),
        )
        assert_matches_sequential(model, 5, 5, 9, sem, SamplingConfig(seed=3, guidance=table))
        assert len(forced) == 1 and len(forced[0].weights) == 2

    @pytest.mark.parametrize("complete", [False, True])
    @pytest.mark.parametrize(
        "size, dtype",
        [(2, np.int8), (128, np.int8), (129, np.int16), (2**15, np.int16), (2**15 + 1, np.int32)],
    )
    def test_tokens_take_the_bucket_type(self, rng, monkeypatch, completed, size, dtype, complete):
        # Either table draws into, and hands back, the smallest signed type
        # holding -K.  Three slots keep the code-major table small (ranked
        # codes past K = 63); a corpus grid of K - 1 alone makes that token likely.
        corpus = [random_grid(rng, 3, 3, size), TokenGrid(3, 3, size, [size - 1] * 9)]
        template = parse_context_template("left,above,above-left")
        model = train_markov_prior(corpus, template, smoothing_alpha=1e-6)
        monkeypatch.setattr(sampler, "_complete_pays", lambda entries, draws: complete)
        cfg = SamplingConfig(seed=size)
        batch = batch_sample(model, 3, 3, 6, config=cfg)
        assert len(completed) == complete
        assert batch.tokens.dtype == dtype == np.min_scalar_type(-size)
        assert batch.tokens.max() == size - 1 and batch.tokens.base[-1].tolist() == [BOUNDARY] * 6
        assert batch[2:].tokens.dtype == dtype and batch[0].tokens.dtype == np.int64
        assert_matches_sequential(model, 3, 3, 6, None, cfg)

    def test_size_rule(self, rng, completed):
        # One left slot over K = 4: 5 codes x 32 buckets = 160 entries, the
        # draws of 10 4x4 grids; 9 grids stay on the lazy table.
        model = train_markov_prior([random_grid(rng, 4, 4, 4)], context=((0, -1),))
        for count in (9, 10):
            assert_matches_sequential(model, 4, 4, count, None, SamplingConfig(seed=count))
        assert len(completed) == 1 and completed[0].bound << completed[0].log_buckets == 160


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
            assert list(fast) == slow

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
        # Unsmoothed models keep the lazy table, whose state lookup raises,
        # even where the batch would pay for the complete table.
        table = sampler._RowTable(model, np.ones((1, 4)), SamplingConfig())
        assert sampler._complete_pays(len(model._code_index[1]) << table.log_buckets, 1 * 3 * 100)
        with pytest.raises(ValidationError, match="never observed"):
            batch_sample(model, 1, 3, 100)

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
        # A guided 32x32 batch of 2000 hands back a view of its
        # position-major tokens; per-step buffers are (wavefront, n), so
        # nothing of (n * wavefront, K) or a further copy of the batch fits.
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
        assert peak <= 1.5 * 2000 * 32 * 32 * 8

    def test_narrow_tokens_bound_the_batch_memory(self, rng):
        # K = 32 draws into int8: the batch takes one byte per token cell
        # and the whole call at most four.
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
        assert batch.tokens.nbytes == 2000 * 32 * 32
        assert peak <= 4 * 2000 * 32 * 32

    def test_lazy_rows_hold_no_bucket_tables(self, monkeypatch):
        # An n = 50 batch over a K = 1,024 prior of random-walk grids stays
        # lazy and builds hundreds of rows; a row holds 16 KB in `probs` and
        # `cumulative`, and the row arrays double when full.  A bucket table
        # of M = 8K int16 entries, 16 KB more per row, would double the peak.
        rng = np.random.default_rng(0)

        def walk():
            steps = rng.integers(-1, 2, (32, 32))
            return TokenGrid(32, 32, 1024, (rng.integers(1024) + steps.cumsum(0).cumsum(1)) % 1024)

        model = train_markov_prior([walk() for _ in range(24)])
        tables = []
        init = sampler._RowTable.__init__
        monkeypatch.setattr(sampler._RowTable, "__init__", lambda t, *args: tables.append(t) or init(t, *args))
        tracemalloc.start()
        try:
            batch_sample(model, 32, 32, 50, config=SamplingConfig(seed=1))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (table,) = tables
        assert table.row_of_code is None and table.size > 500
        assert peak <= 64 * 1024 * table.size

    def test_count_validated(self, rng):
        model = train_markov_prior([random_grid(rng, 3, 3, 4)])
        with pytest.raises(ValidationError):
            batch_sample(model, 3, 3, 0)

    def test_oversized_batch_rejected_before_allocating(self, rng):
        model = train_markov_prior([random_grid(rng, 3, 3, 4)])
        tracemalloc.start()
        try:
            for height, width, count in ((1, 1, 2**40), (32, 32, BATCH_CELL_LIMIT // 1025 + 1)):
                with pytest.raises(ValidationError, match="token cells, over the limit"):
                    batch_sample(model, height, width, count)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sampling_leaves_numpy_ma_unimported(self):
        # numpy.ma takes milliseconds to import; some numpy calls (np.unique
        # without return_inverse) import it, which would double a fresh
        # process's first small batch.  The last batch builds the complete
        # table, whose numpy calls a fresh process also meets first.
        script = """
import sys
import numpy as np
import gcs.cli
from gcs.core import TokenGrid
from gcs.distributions import histogram_from_grid
from gcs.guidance import global_likelihood_table
from gcs.prior import train_markov_prior
from gcs import sampler
from gcs.sampler import SamplingConfig, batch_sample
rng = np.random.default_rng(0)
grids = [TokenGrid(8, 8, 6, rng.integers(0, 6, 64)) for _ in range(3)]
model = train_markov_prior(grids)
table = global_likelihood_table(histogram_from_grid(grids[0], 0.5), histogram_from_grid(grids[1], 0.5))
batch_sample(model, 8, 8, 5, config=SamplingConfig(seed=1, guidance=table))
batch_sample(model, 8, 8, 5, config=SamplingConfig(seed=2))
# 60 grids have at least as many draws as the complete table has entries.
completed = []
complete = sampler._RowTable.complete
sampler._RowTable.complete = lambda table: completed.append(table) or complete(table)
batch_sample(model, 8, 8, 60, config=SamplingConfig(seed=3, guidance=table))
print("numpy.ma" in sys.modules, len(completed))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["False", "1"]

    def test_batch_tokens_are_a_view_of_the_drawn_array(self, rng):
        model = train_markov_prior([random_grid(rng, 3, 4, 5) for _ in range(2)])
        batch = batch_sample(model, 3, 4, 6, config=SamplingConfig(seed=2))
        assert batch.tokens.shape == (6, 3, 4)
        assert batch.tokens.base.shape == (3 * 4 + 1, 6)  # the position-major array
        assert np.shares_memory(batch.tokens, batch.tokens.base)
        assert not batch.tokens.flags.writeable and not batch.tokens.base.flags.writeable
        assert batch.tokens.base[-1].tolist() == [BOUNDARY] * 6

    def test_samples_are_pairwise_independent(self):
        # Chi-square independence over paired first tokens: batch samples
        # must behave like independent streams.
        model = fixed_row_model([5, 3, 2])
        batch = batch_sample(model, 1, 2, 20000, config=SamplingConfig(seed=13))
        firsts = batch.tokens[:, 0, 0]
        pairs = firsts.reshape(-1, 2)
        table = np.zeros((3, 3))
        for a, b in pairs:
            table[a, b] += 1
        assert table.min() >= 5
        _stat, p_value, _dof, _exp = chi2_contingency(table)
        assert p_value > 0.01


ORACLE_TEMPLATES = ("left", "left,above", "left,above,above-left,above-right")


def scalar_oracle_cases():
    """Small models x guidance x sampling knobs for the scalar oracle pin."""
    gen = np.random.default_rng(5)
    corpus = [random_grid(gen, 3, 4, 3) for _ in range(5)]
    sems = [random_semantics(gen, 3, 4, 2) for _ in corpus]
    style, data = histogram_from_grid(corpus[0]), histogram_from_grid(corpus[1])
    tables = [
        None,
        global_likelihood_table(style, data, 1.5),
        scoped_likelihoods(
            histogram_by_region(corpus[0], sems[0]), histogram_by_region(corpus[1], sems[1]),
            style, data,
        ),
        scoped_likelihoods(
            histogram_by_cell(corpus[:2], 2, 2), histogram_by_cell(corpus[2:], 2, 2), None, None
        ),
    ]
    for conditional in (False, True):
        for spec in ORACLE_TEMPLATES:
            model = train_markov_prior(
                list(zip(corpus, sems)) if conditional else corpus,
                context=parse_context_template(spec),
                conditional=conditional,
                smoothing_alpha=0.3,
            )
            for t, table in enumerate(tables):
                for knobs in ({}, {"temperature": 0.7, "top_k": 2}):
                    config = SamplingConfig(seed=t, guidance=table, **knobs)
                    yield model, sems[2], config


def scalar_oracle_digests():
    """sha256 of three `sample_grid` grids per case, and of the sorted
    `exact_sequence_distribution` items (outcome and repr of probability)."""
    grids, exact = hashlib.sha256(), hashlib.sha256()
    for model, sem, config in scalar_oracle_cases():
        for i in range(3):
            seeded = dataclasses.replace(config, seed=split_seed(config.seed, i))
            grid = sample_grid(model, 3, 4, sem, seeded)
            grids.update(np.asarray(grid.tokens, dtype=np.int64).tobytes())
        small = SemanticGrid(2, 2, 2, sem.labels[:2, :2])
        for outcome, p in sorted(exact_sequence_distribution(model, 2, 2, small, config).items()):
            exact.update(f"{outcome}:{p!r};".encode())
    return grids.hexdigest(), exact.hexdigest()


def test_scalar_oracle_is_pinned():
    # Taken from the per-step `CategoricalDistribution` implementation that
    # the prior-row path replaced; a reordered float product changes them.
    assert scalar_oracle_digests() == (
        "fc4c6749dffeae1d375a308ee08e517fe60d02ca958f72632dd36cb13dc2b0a8",
        "d8e8b9e10f9ba4c8f4b609704a2046ae4bedf52aa45a6530692d1e586ec72357",
    )
