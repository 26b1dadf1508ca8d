import dataclasses

import numpy as np
import pytest

from gcs.core import SemanticGrid, ValidationError
from gcs.guidance import (
    LikelihoodTable,
    global_likelihood_table,
    rebalance_rows,
    scope_index,
    scoped_likelihoods,
    select_likelihood,
)

from conftest import global_stats, guidance_row, likelihood_weights, scoped

STYLE = np.array([0.5, 0.25, 0.25])
DATASET = np.array([0.25, 0.5, 0.25])
STYLE_STATS, DATASET_STATS = global_stats(STYLE), global_stats(DATASET)


class TestLikelihoodVector:
    # Each row of a table's weights is one scope's guidance vector.
    def test_max_normalized_storage(self):
        table = LikelihoodTable([[2.0, 0.5, 1.0], [0.5, 0.25, 0.125]])
        assert table.weights.tolist() == [[1.0, 0.25, 0.5], [1.0, 0.5, 0.25]]
        assert not table.weights.flags.writeable

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValidationError) as exc:
            LikelihoodTable([[1.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
        assert "index 1 of scope 1" in str(exc.value)
        assert "smoothing_alpha" in str(exc.value)

    def test_wrong_length(self):
        for weights in ([1.0, 2.0], [[1.0]], [[[1.0, 2.0]]]):
            with pytest.raises(ValidationError, match="must be \\(scopes, K >= 2\\)"):
                LikelihoodTable(weights)

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            LikelihoodTable([[1.0, 1.0], [1.0, np.inf]])

    def test_identity_flag(self):
        # Rows of equal weights are stored as exact ones: rebalancing by
        # them returns the prior rows themselves.
        rows = np.array([[0.5, 0.3, 0.2]])
        for weights in (np.ones(3), np.full(3, 7.0)):
            assert rebalance_rows(rows, guidance_row(weights)) is rows
        assert rebalance_rows(rows, guidance_row(np.array([1.0, 2.0, 1.0]))) is not rows

    def test_scale_invariance(self):
        w = np.array([0.3, 1.9, 0.04])
        assert np.allclose(guidance_row(w), guidance_row(w * 1e8), atol=1e-12)


class TestStyleLikelihood:
    def test_ratio_then_max_normalize(self):
        w = likelihood_weights(STYLE, DATASET)
        assert np.allclose(w, [1.0, 0.25, 0.5], atol=1e-15)

    def test_exponent_squares_ratios(self):
        w = likelihood_weights(STYLE, DATASET, exponent=2.0)
        assert np.allclose(w, [1.0, 0.0625, 0.25], atol=1e-15)

    def test_identical_inputs_give_identity(self):
        assert np.all(likelihood_weights(STYLE, STYLE, exponent=3.0) == 1.0)

    def test_zero_exponent_is_identity(self):
        assert np.all(likelihood_weights(STYLE, DATASET, exponent=0.0) == 1.0)

    def test_zero_mass_needs_smoothing(self):
        with pytest.raises(ValidationError) as exc:
            likelihood_weights([1.0, 0.0], [0.5, 0.5])
        assert "smoothing_alpha" in str(exc.value)

    def test_codebook_mismatch(self):
        with pytest.raises(ValidationError):
            likelihood_weights([0.5, 0.5], [0.4, 0.3, 0.3])

    def test_negative_exponent(self):
        with pytest.raises(ValidationError):
            likelihood_weights(STYLE, DATASET, exponent=-1.0)


class TestRebalancePrior:
    def test_documented_example(self):
        prior = np.array([0.25, 0.25, 0.25, 0.25])
        weights = np.array([2.0, 1.0, 1.0, 0.01])
        out = rebalance_rows(prior[None], guidance_row(weights))
        expected = np.array([2.0, 1.0, 1.0, 0.01]) / 4.01
        assert np.allclose(out[0], expected, atol=1e-12)
        assert abs(out[0].sum() - 1.0) < 1e-12

    def test_identity_returns_prior_object(self):
        row = np.array([[0.7, 0.2, 0.1]])
        out = rebalance_rows(row, guidance_row(np.full(3, 5.0)))
        assert out is row

    def test_one_hot_prior_is_fixed_point(self):
        prior = np.array([0.0, 1.0, 0.0])
        out = rebalance_rows(prior[None], guidance_row(np.array([9.0, 1.0, 2.0])))
        assert list(out[0]) == [0.0, 1.0, 0.0]

    def test_support_preserved(self):
        prior = np.array([0.5, 0.0, 0.5])
        out = rebalance_rows(prior[None], guidance_row(np.array([3.0, 5.0, 1.0])))[0]
        assert out[1] == 0.0
        assert out[0] > 0.0 and out[2] > 0.0

    def test_monotone_influence(self):
        prior = np.array([0.4, 0.3, 0.3])
        low = rebalance_rows(prior[None], guidance_row(np.array([1.0, 1.0, 2.0])))
        high = rebalance_rows(prior[None], guidance_row(np.array([1.0, 1.0, 3.0])))
        assert high[0, 2] > low[0, 2]

    def test_codebook_mismatch(self):
        with pytest.raises(ValidationError):
            rebalance_rows(np.array([[0.5, 0.5]]), np.ones(3))

    def test_exponent_continuity(self):
        # The guided posterior matches the closed form at every strength.
        prior = np.array([0.1, 0.6, 0.3])
        for lam in (0.0, 0.5, 1.0, 2.0):
            out = rebalance_rows(prior[None], likelihood_weights(STYLE, DATASET, lam))
            direct = prior * (STYLE / DATASET) ** lam
            direct /= direct.sum()
            assert np.allclose(out[0], direct, atol=1e-12)


class TestLikelihoodTable:
    def test_layout_fields(self):
        # One weight row per scope plus a layout; global guidance is the 1x1 tiling.
        assert [f.name for f in dataclasses.fields(LikelihoodTable)] == ["weights", "cells"]
        table = global_likelihood_table(STYLE_STATS, DATASET_STATS)
        assert (table.weights.shape, table.cells) == ((1, 3), (1, 1))
        assert LikelihoodTable(np.ones((2, 2))) == LikelihoodTable([[3.0, 3.0]] * 2)
        assert LikelihoodTable(np.ones((2, 2))) != LikelihoodTable(np.ones((2, 2)), (1, 2))

    def test_global_mode_rejects_extras(self):
        # A 1x1 tiling holds exactly one row, and no table holds none.
        with pytest.raises(ValidationError, match="1x1 tiling needs 1 cell vectors, got 2"):
            LikelihoodTable(np.ones((2, 2)), (1, 1))
        with pytest.raises(ValidationError, match="at least one scope"):
            LikelihoodTable(np.ones((0, 2)))

    def test_spatial_mode_requires_cells(self):
        with pytest.raises(ValidationError) as exc:
            LikelihoodTable(np.ones((1, 2)), (0, 2))
        assert "tiling must be positive" in str(exc.value)


class TestSelectLikelihood:
    def build_regional(self):
        style = scoped(([0.75, 0.25], None), [4.0, 0.0])
        data = scoped(([0.5, 0.5], [0.5, 0.5]), [4.0, 4.0])
        return scoped_likelihoods(style, data, global_stats([0.6, 0.4]), global_stats([0.5, 0.5]))

    def test_global_everywhere(self):
        table = global_likelihood_table(STYLE_STATS, DATASET_STATS)
        a = select_likelihood(table, (0, 0), grid_shape=(10, 10))
        b = select_likelihood(table, (9, 9), grid_shape=(10, 10))
        assert np.shares_memory(a, table.weights) and np.shares_memory(b, table.weights)
        assert a.tobytes() == b.tobytes() == likelihood_weights(STYLE, DATASET).tobytes()

    def test_regional_label_lookup_and_fallback(self):
        table = self.build_regional()
        sem = SemanticGrid(1, 4, 2, [0, 0, 1, 1])
        at_label0 = select_likelihood(table, (0, 1), semantics=sem)
        assert np.allclose(at_label0, [1.0, 1 / 3], atol=1e-12)
        # Label 1 was never observed in the style, so fall back globally.
        at_label1 = select_likelihood(table, (0, 3), semantics=sem)
        assert at_label1.tobytes() == table.weights[1].tobytes()
        assert at_label1.tobytes() == likelihood_weights([0.6, 0.4], [0.5, 0.5]).tobytes()

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

    def build_spatial(self, global_pair=(global_stats([0.5, 0.5]), global_stats([0.5, 0.5]))):
        cells = [[0.5 + 0.1 * i, 0.5 - 0.1 * i] for i in range(4)]
        style = scoped(cells, [4.0] * 4, (2, 2))
        data = scoped([[0.5, 0.5]] * 4, [4.0] * 4, (2, 2))
        return scoped_likelihoods(style, data, *global_pair)

    def test_spatial_cell_dispatch(self):
        table = self.build_spatial()
        # On a 4x4 grid with a 2x2 tiling, (3, 3) lands in cell (1, 1).
        w = select_likelihood(table, (3, 3), grid_shape=(4, 4))
        assert w.tobytes() == table.weights[3].tobytes()
        w = select_likelihood(table, (0, 2), grid_shape=(4, 4))
        assert w.tobytes() == table.weights[1].tobytes()
        assert len({row.tobytes() for row in table.weights}) == 4

    def test_spatial_needs_grid_shape(self):
        with pytest.raises(ValidationError) as exc:
            select_likelihood(self.build_spatial(), (0, 0))
        assert "grid's shape" in str(exc.value)
        # Global guidance is the 1x1 tiling, and the message says so.
        with pytest.raises(ValidationError, match="1x1 tiling requires the generated grid's shape"):
            select_likelihood(global_likelihood_table(STYLE_STATS, DATASET_STATS), (0, 0))

    def test_global_pair_only_for_labels(self):
        # Tiled tables never read the global pair, so None builds the same
        # table; a per-label table needs it for its fallback vector.
        assert self.build_spatial((None, None)) == self.build_spatial()
        flat = [0.5, 0.5]
        labels = scoped((flat, None), [4.0, 0.0])
        whole = global_stats(flat, 4.0)
        for pair in [(None, None), (whole, None), (None, whole)]:
            with pytest.raises(ValidationError, match="requires the global style and dataset"):
                scoped_likelihoods(labels, scoped((flat, flat), [4.0, 4.0]), *pair)

    def test_spatial_position_bounds(self):
        with pytest.raises(ValidationError):
            select_likelihood(self.build_spatial(), (4, 0), grid_shape=(4, 4))

    @pytest.mark.parametrize("position", [(-1, 0), (0, -1), (4, 0), (0, 4), (-1, 4)])
    def test_tiled_position_outside_grid_shape(self, position):
        # Cell arithmetic would place these in a wrong cell or past the
        # table; the step's position is checked against the grid shape.
        for table in (self.build_spatial(), global_likelihood_table(STYLE_STATS, DATASET_STATS)):
            with pytest.raises(ValidationError, match=r"position \(.+\) outside the 4x4 grid"):
                select_likelihood(table, position, grid_shape=(4, 4))

    def test_regional_negative_position(self):
        # A negative index would wrap around the semantic map.
        sem = SemanticGrid(1, 4, 2, [0, 0, 1, 1])
        with pytest.raises(ValidationError, match=r"position \(0, -1\) outside the 1x4 grid"):
            select_likelihood(self.build_regional(), (0, -1), semantics=sem)

    def test_spatial_tiling_mismatch(self):
        flat = [0.5, 0.5]
        a = scoped((flat, flat), [4.0, 4.0], (1, 2))
        b = scoped((flat, flat), [4.0, 4.0], (2, 1))
        with pytest.raises(ValidationError) as exc:
            scoped_likelihoods(a, b, global_stats([0.5, 0.5]), global_stats([0.5, 0.5]))
        assert "cell tiling mismatch: style 1x2 vs dataset 2x1" in str(exc.value)

    def test_scope_layouts_must_match(self):
        flat = [0.5, 0.5]
        labels = scoped((flat, flat), [4.0, 4.0])
        cells = scoped((flat, flat), [4.0, 4.0], (1, 2))
        whole = global_stats(flat, 4.0)
        with pytest.raises(ValidationError) as exc:
            scoped_likelihoods(labels, cells, whole, whole)
        assert "style stats are regional but dataset stats are spatial" in str(exc.value)
        with pytest.raises(ValidationError) as exc:
            scoped_likelihoods(labels, scoped((flat,) * 3, [4.0] * 3), whole, whole)
        assert "label count mismatch: style 2 vs dataset 3" in str(exc.value)


def test_spatial_vectors_shape_checked():
    # A tiling needs exactly one weight row per cell.
    with pytest.raises(ValidationError, match="2x2 tiling needs 4 cell vectors, got 2"):
        LikelihoodTable(np.ones((2, 2)), (2, 2))


@pytest.mark.parametrize("cells", [None, (1, 1), (2, 3), (5, 7)], ids=["labels", "1x1", "2x3", "5x7"])
def test_scope_index_matches_per_position_selection(cells):
    # Over a 3x4 grid; the 5x7 tiling is finer than the grid, so some cells hold no position.
    height, width = 3, 4
    sem = SemanticGrid(height, width, 3, np.arange(height * width) % 3)
    count = 3 if cells is None else cells[0] * cells[1]
    table = LikelihoodTable([[1.0, 1.0 + j] for j in range(count)], cells)
    rows, cols = np.divmod(np.arange(height * width), width)
    scopes = scope_index(table, (rows, cols), sem, (height, width))
    for r, c, scope in zip(rows, cols, scopes):
        if cells is None:
            expected = sem.labels[r, c]
        else:
            expected = (r * cells[0] // height) * cells[1] + c * cells[1] // width
        assert scope == expected
        selected = select_likelihood(table, (r, c), sem, (height, width))
        assert selected.tobytes() == table.weights[expected].tobytes()
