import math

import numpy as np
import pytest

import gcs.distributions
from gcs.core import SemanticGrid, TokenBatch, TokenGrid, ValidationError
from gcs.distributions import (
    ScopedDistributions,
    _grid_counts,
    _smoothed,
    average_distributions,
    average_scoped,
    cell_of_position,
    collapse_scoped,
    histogram_by_cell,
    histogram_by_region,
    histogram_from_grid,
    histograms,
    monte_carlo_dataset_distribution,
    monte_carlo_regional_distribution,
    monte_carlo_spatial_distribution,
    smoothed_rows,
)
from gcs.metrics import total_variation

from conftest import global_stats, random_grid, scoped


class TestSmoothedDistribution:
    def test_zero_alpha_is_raw_frequency(self):
        rows, masses = _smoothed(np.array([[2, 1, 1, 0]]), 0.0)
        assert list(rows[0]) == [0.5, 0.25, 0.25, 0.0]
        assert masses[0] == 4.0

    def test_half_alpha(self):
        rows, _ = _smoothed(np.array([[2, 1, 1, 0]]), 0.5)
        assert np.allclose(rows[0], np.array([2.5, 1.5, 1.5, 0.5]) / 6.0, atol=1e-15)

    def test_alpha_forces_full_support(self):
        rows, masses = _smoothed(np.zeros((1, 3), dtype=np.int64), 1.0)
        assert np.allclose(rows[0], 1 / 3)
        assert masses[0] == 0.0

    def test_empty_unsmoothed_rejected(self):
        with pytest.raises(ValidationError) as exc:
            smoothed_rows(np.zeros((1, 3)), 0.0)
        assert "zero observations" in str(exc.value)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            histogram_from_grid(TokenGrid(1, 2, 2, [0, 1]), smoothing_alpha=-0.1)


class TestHistogramFromGrid:
    def test_counts_and_smoothing(self):
        grid = TokenGrid(2, 2, 4, [[0, 0], [1, 2]])
        raw = histogram_from_grid(grid, smoothing_alpha=0.0)
        assert list(raw.probs[0]) == [0.5, 0.25, 0.25, 0.0]
        sm = histogram_from_grid(grid, smoothing_alpha=0.5)
        assert np.allclose(sm.probs, np.array([2.5, 1.5, 1.5, 0.5]) / 6.0)
        assert list(sm.masses) == [4.0]

    def test_constant_grid_is_one_hot(self):
        grid = TokenGrid(2, 2, 4, [[3, 3], [3, 3]])
        d = histogram_from_grid(grid, smoothing_alpha=0.0)
        assert list(d.probs[0]) == [0.0, 0.0, 0.0, 1.0]


class TestScopedDistributions:
    def test_mode_and_masses_follow_the_fields(self):
        labels = scoped(([0.5, 0.5], None), [2.0, 0.0])
        assert (labels.kind, list(labels.masses)) == ("regional", [2.0, 0.0])
        assert list(labels.present) == [True, False] and labels.cells is None
        cells = scoped(([0.5, 0.5],) * 2, [1.0, 1.0], (2, 1))
        assert (cells.kind, list(cells.masses)) == ("spatial", [1.0, 1.0])
        whole = global_stats([0.5, 0.5], 3.0)
        assert (whole.kind, whole.cells, list(whole.masses)) == ("global", (1, 1), [3.0])

    def test_tiling_needs_one_distribution_per_cell(self):
        with pytest.raises(ValidationError):
            scoped(([0.5, 0.5],) * 3, layout=(2, 2))
        with pytest.raises(ValidationError):
            scoped(([0.5, 0.5], None), layout=(1, 2))


class TestHistogramByRegion:
    def test_partitioned_counting(self):
        grid = TokenGrid(2, 2, 4, [[0, 1], [2, 3]])
        sem = SemanticGrid(2, 2, 2, [[0, 0], [1, 1]])
        reg = histogram_by_region(grid, sem, smoothing_alpha=0.0)
        assert list(reg.probs[0]) == [0.5, 0.5, 0.0, 0.0]
        assert list(reg.probs[1]) == [0.0, 0.0, 0.5, 0.5]
        assert list(reg.masses) == [2.0, 2.0]

    def test_absent_label_unsmoothed(self):
        grid = TokenGrid(1, 2, 3, [0, 1])
        sem = SemanticGrid(1, 2, 2, [0, 0])
        reg = histogram_by_region(grid, sem, smoothing_alpha=0.0)
        assert not reg.present[1]
        assert reg.masses[1] == 0.0

    def test_absent_label_smoothed_is_uniform(self):
        grid = TokenGrid(1, 2, 3, [0, 1])
        sem = SemanticGrid(1, 2, 2, [0, 0])
        reg = histogram_by_region(grid, sem, smoothing_alpha=0.5)
        assert np.allclose(reg.probs[1], 1 / 3)
        assert reg.masses[1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            histogram_by_region(
                TokenGrid(1, 2, 3, [0, 1]), SemanticGrid(2, 1, 2, [0, 0])
            )

    def test_aggregation_consistency(self, rng):
        # Summing per-label counts reproduces the global histogram counts.
        grid = random_grid(rng, 6, 7, 5)
        sem = SemanticGrid(6, 7, 3, rng.integers(0, 3, (6, 7)))
        reg = histogram_by_region(grid, sem, smoothing_alpha=0.0)
        pooled = np.zeros(5)
        for probs, m in zip(reg.probs, reg.masses):
            if m > 0:
                pooled += probs * m
        glob = histogram_from_grid(grid, smoothing_alpha=0.0)
        assert np.array_equal(np.round(pooled), glob.probs[0] * glob.masses[0])


class TestRegionalFromCorpus:
    def test_pools_counts_across_grids(self):
        a = (TokenGrid(1, 2, 3, [0, 0]), SemanticGrid(1, 2, 2, [0, 0]))
        b = (TokenGrid(1, 2, 3, [1, 2]), SemanticGrid(1, 2, 2, [1, 1]))
        per_grid = [histogram_by_region(g, s, smoothing_alpha=0.0) for g, s in (a, b)]
        reg = average_scoped(per_grid)
        assert list(reg.probs[0]) == [1.0, 0.0, 0.0]
        assert list(reg.probs[1]) == [0.0, 0.5, 0.5]

    def test_mixed_codebooks_rejected(self):
        a = (TokenGrid(1, 2, 3, [0, 0]), SemanticGrid(1, 2, 2, [0, 0]))
        b = (TokenGrid(1, 2, 4, [1, 2]), SemanticGrid(1, 2, 2, [1, 1]))
        with pytest.raises(ValidationError) as exc:
            average_scoped([histogram_by_region(g, s) for g, s in (a, b)])
        assert "mix codebook sizes" in str(exc.value)

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            monte_carlo_regional_distribution([], 10)


class TestCellOfPosition:
    def test_even_tiling(self):
        assert cell_of_position(3, 3, 4, 4, 2, 2) == (1, 1)
        assert cell_of_position(0, 0, 4, 4, 2, 2) == (0, 0)
        assert cell_of_position(1, 3, 4, 4, 2, 2) == (0, 1)

    def test_uneven_tiling_floors(self):
        assert cell_of_position(1, 1, 3, 3, 2, 2) == (0, 0)
        assert cell_of_position(2, 2, 3, 3, 2, 2) == (1, 1)


class TestHistogramByCell:
    def test_quadrant_one_hots(self):
        grid = TokenGrid(2, 2, 4, [[0, 1], [2, 3]])
        spat = histogram_by_cell([grid], 2, 2, smoothing_alpha=0.0)
        assert spat.cells == (2, 2)
        assert list(spat.probs[0]) == [1.0, 0.0, 0.0, 0.0]
        assert list(spat.probs[3]) == [0.0, 0.0, 0.0, 1.0]

    def test_single_cell_reduces_to_global(self, grid_factory):
        grid = grid_factory(4, 5, 6)
        spat = histogram_by_cell([grid], 1, 1, smoothing_alpha=0.0)
        glob = histogram_from_grid(grid, smoothing_alpha=0.0)
        assert np.array_equal(spat.probs, glob.probs)
        assert np.array_equal(spat.masses, glob.masses)
        assert (spat.kind, glob.kind) == ("spatial", "global") and spat != glob

    def test_duplicate_grids_keep_probs(self, grid_factory):
        grid = grid_factory(4, 4, 5)
        once = histogram_by_cell([grid], 2, 2, 0.0)
        twice = histogram_by_cell([grid, grid], 2, 2, 0.0)
        assert np.array_equal(once.probs, twice.probs)
        assert np.array_equal(twice.masses, 2 * once.masses)

    def test_tiling_finer_than_grid_rejected(self):
        with pytest.raises(ValidationError) as exc:
            histogram_by_cell([TokenGrid(2, 2, 3, [[0, 1], [2, 0]])], 3, 1)
        assert "finer than" in str(exc.value)

    def test_empty_grid_list_rejected(self):
        for count in (lambda: histogram_by_cell([], 1, 1), lambda: histograms([])):
            with pytest.raises(ValidationError, match="^empty grid list$"):
                count()

    def test_mismatched_grids_rejected(self):
        a = TokenGrid(2, 2, 3, [[0, 1], [2, 0]])
        b = TokenGrid(2, 3, 3, [[0, 1, 2], [2, 0, 1]])
        with pytest.raises(ValidationError):
            histogram_by_cell([a, b], 1, 1)

    def test_refinement_consistency(self, rng):
        # Mass-weighted average of the cells equals the pooled global.
        grids = [random_grid(rng, 6, 6, 4) for _ in range(3)]
        spat = histogram_by_cell(grids, 3, 2, smoothing_alpha=0.0)
        merged = collapse_scoped(spat)
        counts = sum(np.bincount(g.flat, minlength=4) for g in grids)
        assert np.allclose(merged.probs[0], counts / counts.sum(), atol=1e-12)


class TestAverageDistributions:
    def test_uniform_mean(self):
        avg = average_distributions([global_stats([1.0, 0.0], 1.0), global_stats([0.0, 1.0], 1.0)])
        assert list(avg.probs[0]) == [0.5, 0.5]

    def test_mass_sums_but_does_not_weight(self):
        avg = average_distributions(
            [global_stats([1.0, 0.0], mass=3.0), global_stats([0.0, 1.0], mass=1.0)]
        )
        assert list(avg.probs[0]) == [0.5, 0.5]
        assert (avg.kind, list(avg.masses)) == ("global", [4.0])

    def test_single_input_unchanged(self):
        d = global_stats([0.3, 0.7], mass=5.0)
        assert np.array_equal(average_distributions([d]).probs, d.probs)

    def test_codebook_mismatch(self):
        with pytest.raises(ValidationError):
            average_distributions([global_stats([0.5, 0.5]), global_stats([0.4, 0.3, 0.3])])

    def test_empty_list(self):
        with pytest.raises(ValidationError):
            average_distributions([])


class TestAverageRegionalAndSpatial:
    def test_labels_averaged_independently(self):
        a = scoped(([1.0, 0.0], None), [2.0, 0.0])
        b = scoped(([0.0, 1.0], [0.5, 0.5]), [2.0, 4.0])
        avg = average_scoped([a, b])
        assert list(avg.probs[0]) == [0.5, 0.5]
        # Only b observed label 1, so its estimate passes through.
        assert list(avg.probs[1]) == [0.5, 0.5]
        assert list(avg.masses) == [4.0, 4.0]

    def test_label_count_mismatch(self):
        a = scoped(([1.0, 0.0],), [1.0])
        b = scoped(([1.0, 0.0], None), [1.0, 0.0])
        with pytest.raises(ValidationError):
            average_scoped([a, b])

    def test_spatial_cellwise(self):
        a = scoped(([1.0, 0.0], [0.0, 1.0]), [1.0, 1.0], (1, 2))
        b = scoped(([0.0, 1.0], [0.0, 1.0]), [1.0, 1.0], (1, 2))
        avg = average_scoped([a, b])
        assert avg.cells == (1, 2)
        assert list(avg.probs[0]) == [0.5, 0.5]
        assert list(avg.probs[1]) == [0.0, 1.0]

    def test_spatial_tiling_mismatch(self):
        a = scoped(([1.0, 0.0], [0.0, 1.0]), layout=(1, 2))
        b = scoped(([1.0, 0.0], [0.0, 1.0]), layout=(2, 1))
        with pytest.raises(ValidationError):
            average_scoped([a, b])


class TestCollapse:
    def test_regional_mass_weighted(self):
        reg = scoped(([1.0, 0.0], [0.0, 1.0]), [3.0, 1.0])
        assert list(collapse_scoped(reg).probs[0]) == [0.75, 0.25]

    def test_regional_all_absent(self):
        reg = ScopedDistributions([[0.0, 0.0]], [0.0])
        with pytest.raises(ValidationError):
            collapse_scoped(reg)

    def test_spatial_mass_weighted(self):
        spat = scoped(([1.0, 0.0], [0.0, 1.0]), [3.0, 1.0], (1, 2))
        assert list(collapse_scoped(spat).probs[0]) == [0.75, 0.25]


class TestMonteCarloDataset:
    def test_single_grid_corpus_is_exact(self):
        grid = TokenGrid(2, 2, 4, [[0, 0], [1, 2]])
        est = monte_carlo_dataset_distribution([grid], draws=57, smoothing_alpha=0.0)
        assert np.array_equal(est.probs, histogram_from_grid(grid, 0.0).probs)

    def test_one_draw_picks_a_member(self):
        a = TokenGrid(1, 2, 2, [0, 0])
        b = TokenGrid(1, 2, 2, [1, 1])
        est = monte_carlo_dataset_distribution([a, b], draws=1, smoothing_alpha=0.0)
        assert list(est.probs[0]) in ([1.0, 0.0], [0.0, 1.0])

    def test_two_point_mixture_converges(self):
        # Exact mean of the two one-hot histograms is [0.5, 0.5]; at
        # K = 10000 the estimate should almost always land within TV 0.02.
        a = TokenGrid(1, 2, 2, [0, 0])
        b = TokenGrid(1, 2, 2, [1, 1])
        target = global_stats([0.5, 0.5])
        for seed in range(5):
            est = monte_carlo_dataset_distribution(
                [a, b], draws=10000, smoothing_alpha=0.0, seed=seed
            )
            assert total_variation(est, target) < 0.02

    def test_deterministic_per_seed(self, rng):
        corpus = [random_grid(rng, 3, 3, 5) for _ in range(8)]
        a = monte_carlo_dataset_distribution(corpus, 50, seed=3)
        b = monte_carlo_dataset_distribution(corpus, 50, seed=3)
        c = monte_carlo_dataset_distribution(corpus, 50, seed=4)
        assert np.array_equal(a.probs, b.probs)
        assert not np.array_equal(a.probs, c.probs)

    def test_draws_must_be_positive(self):
        with pytest.raises(ValidationError):
            monte_carlo_dataset_distribution([TokenGrid(1, 2, 2, [0, 1])], 0)

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            monte_carlo_dataset_distribution([], 10)


class TestMonteCarloStructured:
    def test_regional_single_pair_exact(self):
        pair = (TokenGrid(1, 4, 3, [0, 1, 2, 2]), SemanticGrid(1, 4, 2, [0, 0, 1, 1]))
        est = monte_carlo_regional_distribution([pair], draws=9, smoothing_alpha=0.0)
        direct = histogram_by_region(*pair, smoothing_alpha=0.0)
        assert np.array_equal(est.probs, direct.probs)

    def test_spatial_single_grid_exact(self, grid_factory):
        grid = grid_factory(4, 4, 5)
        est = monte_carlo_spatial_distribution([grid], 2, 2, draws=7, smoothing_alpha=0.0)
        direct = histogram_by_cell([grid], 2, 2, smoothing_alpha=0.0)
        assert np.array_equal(est.probs, direct.probs)

    def test_structured_determinism(self, rng):
        pairs = [
            (random_grid(rng, 4, 4, 4), SemanticGrid(4, 4, 2, rng.integers(0, 2, (4, 4))))
            for _ in range(6)
        ]
        a = monte_carlo_regional_distribution(pairs, 30, seed=1)
        b = monte_carlo_regional_distribution(pairs, 30, seed=1)
        assert a == b


class TestSmoothingLimit:
    def test_alpha_to_zero_approaches_raw(self):
        grid = TokenGrid(2, 2, 4, [[0, 0], [1, 2]])
        raw = histogram_from_grid(grid, 0.0)
        near = histogram_from_grid(grid, 1e-9)
        assert float(np.abs(near.probs - raw.probs).max()) < 1e-9
        assert math.isclose(float(near.probs.sum()), 1.0, abs_tol=1e-12)


def brute_force_counts(grids, maps, size):
    """(grid, scope, token) counts, one position at a time."""
    scopes = max((sem.label_count for sem in maps), default=1) if maps else 1
    counts = np.zeros((len(grids), scopes, size), dtype=np.int64)
    for i, tokens in enumerate(grids):
        for r in range(tokens.shape[0]):
            for c in range(tokens.shape[1]):
                scope = int(maps[i].labels[r, c]) if maps else 0
                counts[i, scope, int(tokens[r, c])] += 1
    return counts


SHAPES = {
    "mixed": [(3, 4)] * 4 + [(2, 2), (2, 2), (1, 5)],
    "same": [(3, 4)] * 7,
}
# Chunks hold grids of one shape.  With at most 12 positions and 3 labels x
# 5 tokens per grid, a chunk constant of 1 gives one-grid chunks, 45 gives
# three 3x4 grids a chunk (then a partial one), and 2**16 one chunk per shape.
CHUNK_SIZES = {
    ("mixed", 1): [1] * 7, ("mixed", 45): [3, 1, 2, 1], ("mixed", 2**16): [4, 2, 1],
    ("same", 1): [1] * 7, ("same", 45): [3, 3, 1], ("same", 2**16): [7],
}


@pytest.mark.parametrize("chunk", [1, 45, 2**16])
@pytest.mark.parametrize("inputs", ["list-mixed", "list-same", "batch"])
@pytest.mark.parametrize("scoping", ["global", "shared", "per-grid"])
def test_grid_counts_match_brute_force(monkeypatch, rng, chunk, inputs, scoping):
    monkeypatch.setattr(gcs.distributions, "_CHUNK_POSITIONS", chunk)
    size = 5
    kind = "mixed" if inputs == "list-mixed" else "same"
    shapes = SHAPES[kind]
    tokens = [rng.integers(0, size, shape) for shape in shapes]
    if scoping == "global":
        maps = None
    elif scoping == "shared":
        maps = SemanticGrid(3, 4, 3, rng.integers(0, 3, (3, 4)))
    else:
        maps = [SemanticGrid(*shape, 2 + i % 2, rng.integers(0, 2 + i % 2, shape))
                for i, shape in enumerate(shapes)]
    if inputs == "batch":
        grids = TokenBatch(np.stack(tokens), size)
    else:
        grids = [TokenGrid(*t.shape, size, t) for t in tokens]
    if scoping == "shared" and inputs == "list-mixed":
        with pytest.raises(ValidationError, match="grid is 2x2 but semantic map is 3x4"):
            list(_grid_counts(grids, maps))
        return
    chunks = list(_grid_counts(grids, maps))
    assert [len(c) for c in chunks] == CHUNK_SIZES[kind, chunk]
    per_grid = [maps] * len(shapes) if isinstance(maps, SemanticGrid) else maps
    assert np.array_equal(np.concatenate(chunks), brute_force_counts(tokens, per_grid, size))
