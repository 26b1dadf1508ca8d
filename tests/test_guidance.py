import dataclasses

import numpy as np
import pytest

from gcs.core import CategoricalDistribution, SemanticGrid, ValidationError
from gcs.distributions import ScopedDistributions
from gcs.guidance import (
    LikelihoodTable,
    LikelihoodVector,
    global_likelihood_table,
    rebalance_rows,
    scope_index,
    scoped_likelihoods,
    select_likelihood,
    style_likelihood,
)


def dist(probs, mass=0.0):
    return CategoricalDistribution(len(probs), probs, source_mass=mass)


STYLE = dist([0.5, 0.25, 0.25])
DATASET = dist([0.25, 0.5, 0.25])


class TestLikelihoodVector:
    def test_max_normalized_storage(self):
        v = LikelihoodVector(3, np.array([2.0, 0.5, 1.0]))
        assert list(v.weights) == [1.0, 0.25, 0.5]

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValidationError) as exc:
            LikelihoodVector(3, np.array([1.0, 0.0, 2.0]))
        assert "index 1" in str(exc.value)
        assert "smoothing_alpha" in str(exc.value)

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            LikelihoodVector(3, np.array([1.0, 2.0]))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            LikelihoodVector(2, np.array([1.0, np.inf]))

    def test_identity_flag(self):
        assert LikelihoodVector(3, np.ones(3)).is_identity
        assert LikelihoodVector(3, np.full(3, 7.0)).is_identity
        assert not LikelihoodVector(3, np.array([1.0, 2.0, 1.0])).is_identity

    def test_scale_invariance(self):
        w = np.array([0.3, 1.9, 0.04])
        a = LikelihoodVector(3, w)
        b = LikelihoodVector(3, w * 1e8)
        assert np.allclose(a.weights, b.weights, atol=1e-12)


class TestStyleLikelihood:
    def test_ratio_then_max_normalize(self):
        v = style_likelihood(STYLE, DATASET)
        assert np.allclose(v.weights, [1.0, 0.25, 0.5], atol=1e-15)

    def test_exponent_squares_ratios(self):
        v = style_likelihood(STYLE, DATASET, exponent=2.0)
        assert np.allclose(v.weights, [1.0, 0.0625, 0.25], atol=1e-15)

    def test_identical_inputs_give_identity(self):
        v = style_likelihood(STYLE, STYLE, exponent=3.0)
        assert v.is_identity

    def test_zero_exponent_is_identity(self):
        v = style_likelihood(STYLE, DATASET, exponent=0.0)
        assert v.is_identity

    def test_zero_mass_needs_smoothing(self):
        with pytest.raises(ValidationError) as exc:
            style_likelihood(dist([1.0, 0.0]), dist([0.5, 0.5]))
        assert "smoothing_alpha" in str(exc.value)

    def test_codebook_mismatch(self):
        with pytest.raises(ValidationError):
            style_likelihood(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]))

    def test_negative_exponent(self):
        with pytest.raises(ValidationError):
            style_likelihood(STYLE, DATASET, exponent=-1.0)


class TestRebalancePrior:
    def test_documented_example(self):
        prior = dist([0.25, 0.25, 0.25, 0.25])
        weights = np.array([2.0, 1.0, 1.0, 0.01])
        out = rebalance_rows(prior.probs[None], LikelihoodVector(4, weights))
        expected = np.array([2.0, 1.0, 1.0, 0.01]) / 4.01
        assert np.allclose(out[0], expected, atol=1e-12)
        assert abs(out[0].sum() - 1.0) < 1e-12

    def test_identity_returns_prior_object(self):
        row = dist([0.7, 0.2, 0.1]).probs[None]
        out = rebalance_rows(row, LikelihoodVector(3, np.full(3, 5.0)))
        assert out is row

    def test_one_hot_prior_is_fixed_point(self):
        prior = dist([0.0, 1.0, 0.0])
        out = rebalance_rows(prior.probs[None], LikelihoodVector(3, np.array([9.0, 1.0, 2.0])))
        assert list(out[0]) == [0.0, 1.0, 0.0]

    def test_support_preserved(self):
        prior = dist([0.5, 0.0, 0.5])
        out = rebalance_rows(prior.probs[None], LikelihoodVector(3, np.array([3.0, 5.0, 1.0])))[0]
        assert out[1] == 0.0
        assert out[0] > 0.0 and out[2] > 0.0

    def test_monotone_influence(self):
        prior = dist([0.4, 0.3, 0.3])
        low = rebalance_rows(prior.probs[None], LikelihoodVector(3, np.array([1.0, 1.0, 2.0])))
        high = rebalance_rows(prior.probs[None], LikelihoodVector(3, np.array([1.0, 1.0, 3.0])))
        assert high[0, 2] > low[0, 2]

    def test_codebook_mismatch(self):
        with pytest.raises(ValidationError):
            rebalance_rows(dist([0.5, 0.5]).probs[None], LikelihoodVector(3, np.ones(3)))

    def test_exponent_continuity(self):
        # The guided posterior matches the closed form at every strength.
        prior = dist([0.1, 0.6, 0.3])
        for lam in (0.0, 0.5, 1.0, 2.0):
            out = rebalance_rows(prior.probs[None], style_likelihood(STYLE, DATASET, lam))
            direct = prior.probs * (STYLE.probs / DATASET.probs) ** lam
            direct /= direct.sum()
            assert np.allclose(out[0], direct, atol=1e-12)


class TestLikelihoodTable:
    def test_layout_fields(self):
        # Scope vectors plus a layout; global guidance is the 1x1 tiling.
        v = LikelihoodVector(2, np.ones(2))
        assert [f.name for f in dataclasses.fields(LikelihoodTable)] == [
            "exponent", "scopes", "cells"
        ]
        table = global_likelihood_table(STYLE, DATASET)
        assert (len(table.scopes), table.cells) == (1, (1, 1))
        assert LikelihoodTable(1.0, [v, v]).scopes == (v, v)

    def test_global_mode_rejects_extras(self):
        # A 1x1 tiling holds exactly one vector, and no table holds none.
        v = LikelihoodVector(2, np.ones(2))
        with pytest.raises(ValidationError, match="1x1 tiling needs 1 cell vectors, got 2"):
            LikelihoodTable(1.0, (v, v), (1, 1))
        with pytest.raises(ValidationError, match="at least one scope"):
            LikelihoodTable(1.0, ())

    def test_spatial_mode_requires_cells(self):
        v = LikelihoodVector(2, np.ones(2))
        with pytest.raises(ValidationError) as exc:
            LikelihoodTable(1.0, (v,), (0, 2))
        assert "tiling must be positive" in str(exc.value)


class TestSelectLikelihood:
    def build_regional(self):
        style = ScopedDistributions((dist([0.75, 0.25], 4.0), None))
        data = ScopedDistributions((dist([0.5, 0.5], 4.0), dist([0.5, 0.5], 4.0)))
        return scoped_likelihoods(style, data, dist([0.6, 0.4]), dist([0.5, 0.5]))

    def test_global_everywhere(self):
        table = global_likelihood_table(STYLE, DATASET)
        a = select_likelihood(table, (0, 0), grid_shape=(10, 10))
        b = select_likelihood(table, (9, 9), grid_shape=(10, 10))
        assert a is b is table.scopes[0]
        assert a == style_likelihood(STYLE, DATASET)

    def test_regional_label_lookup_and_fallback(self):
        table = self.build_regional()
        sem = SemanticGrid(1, 4, 2, [0, 0, 1, 1])
        at_label0 = select_likelihood(table, (0, 1), semantics=sem)
        assert np.allclose(at_label0.weights, [1.0, 1 / 3], atol=1e-12)
        # Label 1 was never observed in the style, so fall back globally.
        at_label1 = select_likelihood(table, (0, 3), semantics=sem)
        assert at_label1 is table.scopes[1]
        assert at_label1 == style_likelihood(dist([0.6, 0.4]), dist([0.5, 0.5]))

    def test_regional_needs_semantics(self):
        with pytest.raises(ValidationError) as exc:
            select_likelihood(self.build_regional(), (0, 0))
        assert "semantic map" in str(exc.value)

    def test_regional_position_bounds(self):
        sem = SemanticGrid(1, 4, 2, [0, 0, 1, 1])
        with pytest.raises(ValidationError):
            select_likelihood(self.build_regional(), (1, 0), semantics=sem)

    def test_label_outside_table(self):
        table = self.build_regional()
        sem = SemanticGrid(1, 2, 3, [0, 2])
        with pytest.raises(ValidationError) as exc:
            select_likelihood(table, (0, 1), semantics=sem)
        assert "outside the table's 2 labels" in str(exc.value)

    def build_spatial(self, global_pair=(dist([0.5, 0.5]), dist([0.5, 0.5]))):
        cells = tuple(dist([0.5 + 0.1 * i, 0.5 - 0.1 * i], 4.0) for i in range(4))
        style = ScopedDistributions(cells, (2, 2))
        flat = dist([0.5, 0.5], 4.0)
        data = ScopedDistributions((flat,) * 4, (2, 2))
        return scoped_likelihoods(style, data, *global_pair)

    def test_spatial_cell_dispatch(self):
        table = self.build_spatial()
        # On a 4x4 grid with a 2x2 tiling, (3, 3) lands in cell (1, 1).
        v = select_likelihood(table, (3, 3), grid_shape=(4, 4))
        assert v is table.scopes[3]
        v = select_likelihood(table, (0, 2), grid_shape=(4, 4))
        assert v is table.scopes[1]

    def test_spatial_needs_grid_shape(self):
        with pytest.raises(ValidationError) as exc:
            select_likelihood(self.build_spatial(), (0, 0))
        assert "grid's shape" in str(exc.value)
        # Global guidance is the 1x1 tiling, and the message says so.
        with pytest.raises(ValidationError, match="1x1 tiling requires the generated grid's shape"):
            select_likelihood(global_likelihood_table(STYLE, DATASET), (0, 0))

    def test_global_pair_only_for_labels(self):
        # Tiled tables never read the global pair, so None builds the same
        # table; a per-label table needs it for its fallback vector.
        assert self.build_spatial((None, None)) == self.build_spatial()
        flat = dist([0.5, 0.5], 4.0)
        labels = ScopedDistributions((flat, None))
        for pair in [(None, None), (flat, None), (None, flat)]:
            with pytest.raises(ValidationError, match="requires the global style and dataset"):
                scoped_likelihoods(labels, ScopedDistributions((flat, flat)), *pair)

    def test_spatial_position_bounds(self):
        with pytest.raises(ValidationError):
            select_likelihood(self.build_spatial(), (4, 0), grid_shape=(4, 4))

    def test_spatial_tiling_mismatch(self):
        flat = dist([0.5, 0.5], 4.0)
        a = ScopedDistributions((flat, flat), (1, 2))
        b = ScopedDistributions((flat, flat), (2, 1))
        with pytest.raises(ValidationError) as exc:
            scoped_likelihoods(a, b, dist([0.5, 0.5]), dist([0.5, 0.5]))
        assert "cell tiling mismatch: style 1x2 vs dataset 2x1" in str(exc.value)

    def test_scope_layouts_must_match(self):
        flat = dist([0.5, 0.5], 4.0)
        labels = ScopedDistributions((flat, flat))
        cells = ScopedDistributions((flat, flat), (1, 2))
        with pytest.raises(ValidationError) as exc:
            scoped_likelihoods(labels, cells, flat, flat)
        assert "style stats are regional but dataset stats are spatial" in str(exc.value)
        with pytest.raises(ValidationError) as exc:
            scoped_likelihoods(labels, ScopedDistributions((flat,) * 3), flat, flat)
        assert "label count mismatch: style 2 vs dataset 3" in str(exc.value)


def test_spatial_vectors_shape_checked():
    # A tiling needs exactly one vector per cell.
    v = LikelihoodVector(2, np.ones(2))
    with pytest.raises(ValidationError, match="2x2 tiling needs 4 cell vectors, got 2"):
        LikelihoodTable(1.0, (v, v), (2, 2))


@pytest.mark.parametrize("cells", [None, (1, 1), (2, 3), (5, 7)], ids=["labels", "1x1", "2x3", "5x7"])
def test_scope_index_matches_per_position_selection(cells):
    # Over a 3x4 grid; the 5x7 tiling is finer than the grid, so some cells hold no position.
    height, width = 3, 4
    sem = SemanticGrid(height, width, 3, np.arange(height * width) % 3)
    count = 3 if cells is None else cells[0] * cells[1]
    vectors = [LikelihoodVector(2, np.array([1.0, 1.0 + j])) for j in range(count)]
    table = LikelihoodTable(1.0, vectors, cells)
    rows, cols = np.divmod(np.arange(height * width), width)
    scopes = scope_index(table, (rows, cols), sem, (height, width))
    for r, c, scope in zip(rows, cols, scopes):
        if cells is None:
            expected = sem.labels[r, c]
        else:
            expected = (r * cells[0] // height) * cells[1] + c * cells[1] // width
        assert scope == expected
        assert select_likelihood(table, (r, c), sem, (height, width)) is table.scopes[expected]
