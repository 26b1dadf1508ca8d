import csv
import hashlib
import math

import numpy as np
import pytest

from gcs.core import SemanticGrid, TokenBatch, TokenGrid, ValidationError
import gcs.metrics
from gcs.distributions import (
    ScopedDistributions,
    _grid_counts,
    average_scoped,
    histogram_by_cell,
    histogram_by_region,
    histograms,
    monte_carlo_dataset_distribution,
    monte_carlo_regional_distribution,
    monte_carlo_spatial_distribution,
)
from gcs.metrics import (
    GuidanceReport,
    StyleReference,
    guidance_report,
    kl_divergence,
    relative_reduction,
    report_to_dict,
    spatial_divergence,
    style_match_rate,
    total_variation,
    write_report,
    write_report_csv,
)

from conftest import global_stats, random_grid, scoped


def dist(probs, mass=0.0):
    return global_stats(probs, mass)


class TestKlDivergence:
    def test_equal_inputs_give_zero(self):
        p = dist([0.3, 0.3, 0.4])
        assert kl_divergence(p, p) == 0.0

    def test_one_hot_against_uniform(self):
        assert abs(kl_divergence(dist([1.0, 0.0]), dist([0.5, 0.5])) - math.log(2)) < 1e-12

    def test_missing_support_named(self):
        with pytest.raises(ValidationError) as exc:
            kl_divergence(dist([0.5, 0.5]), dist([1.0, 0.0]))
        assert "q lacks support at index 1" in str(exc.value)

    def test_zero_p_entries_do_not_need_q_support(self):
        assert kl_divergence(dist([1.0, 0.0]), dist([1.0, 0.0])) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]))

    def test_non_negative_and_asymmetric(self):
        p = dist([0.7, 0.2, 0.1])
        q = dist([0.2, 0.5, 0.3])
        assert kl_divergence(p, q) > 0.0
        assert kl_divergence(p, q) != kl_divergence(q, p)


class TestTotalVariation:
    def test_identity(self):
        p = dist([0.25, 0.75])
        assert total_variation(p, p) == 0.0

    def test_disjoint_one_hots(self):
        assert total_variation(dist([1.0, 0.0]), dist([0.0, 1.0])) == 1.0

    def test_half_swap(self):
        assert total_variation(dist([0.75, 0.25]), dist([0.25, 0.75])) == 0.5

    def test_symmetry(self):
        p, q = dist([0.6, 0.3, 0.1]), dist([0.2, 0.2, 0.6])
        assert total_variation(p, q) == total_variation(q, p)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            total_variation(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]))


@pytest.mark.parametrize("divergence", [kl_divergence, total_variation])
def test_divergences_name_a_non_global_input(divergence):
    # A regional or spatial input fails by its kind, not as a size mismatch.
    whole = dist([0.5, 0.25, 0.25])
    for other in (scoped(([0.5, 0.5], [0.25, 0.75])), scoped(([0.5, 0.5],), layout=(1, 1))):
        for pair in ((whole, other), (other, whole)):
            with pytest.raises(ValidationError, match=f"not {other.kind} ones"):
                divergence(*pair)


def low_grid(*tokens):
    return TokenGrid(1, len(tokens), 4, list(tokens))


class TestStyleMatchRate:
    REFS = (
        StyleReference("low", global_stats([0.45, 0.45, 0.05, 0.05])),
        StyleReference("high", global_stats([0.05, 0.05, 0.45, 0.45])),
    )

    def test_disjoint_supports_classify_perfectly(self):
        samples = [low_grid(0, 1, 0, 1), low_grid(2, 3, 2, 3), low_grid(0, 0, 1, 1)]
        result = style_match_rate(
            samples, self.REFS, true_styles=["low", "high", "low"]
        )
        assert result.assigned == ("low", "high", "low")
        assert result.accuracy == 1.0
        assert result.counts == {"low": 2, "high": 1}
        assert result.rate_for("high") == pytest.approx(1 / 3)
        assert result.confusion["low"]["low"] == 2

    def test_tie_resolves_to_first_reference(self):
        refs = (
            StyleReference("first", global_stats([0.75, 0.25, 0.0, 0.0])),
            StyleReference("second", global_stats([0.25, 0.75, 0.0, 0.0])),
        )
        result = style_match_rate([low_grid(0, 1)], refs)
        assert result.assigned == ("first",)

    def test_needs_two_references(self):
        with pytest.raises(ValidationError):
            style_match_rate([low_grid(0)], self.REFS[:1])

    def test_mixed_reference_kinds_rejected(self):
        regional = StyleReference(
            "r",
            global_stats([0.25] * 4),
            scoped(([0.25] * 4,), [4.0]),
        )
        with pytest.raises(ValidationError) as exc:
            style_match_rate([low_grid(0)], (self.REFS[0], regional))
        assert "all global or all regional" in str(exc.value)

    def test_tiled_regional_reference_rejected(self):
        cells = scoped(([0.25] * 4,) * 2, [4.0] * 2, (1, 2))
        with pytest.raises(ValidationError) as exc:
            StyleReference("r", global_stats([0.25] * 4), cells)
        assert "per label, not per cell" in str(exc.value)

    def test_regional_mode(self):
        refs = (
            StyleReference(
                "a",
                global_stats([0.45, 0.45, 0.05, 0.05]),
                scoped(([0.9, 0.04, 0.03, 0.03], [0.04, 0.9, 0.03, 0.03]), [2.0, 2.0]),
            ),
            StyleReference(
                "b",
                global_stats([0.05, 0.05, 0.45, 0.45]),
                scoped(([0.03, 0.03, 0.9, 0.04], [0.03, 0.03, 0.04, 0.9]), [2.0, 2.0]),
            ),
        )
        grid = TokenGrid(1, 4, 4, [0, 0, 1, 1])
        sem = SemanticGrid(1, 4, 2, [0, 0, 1, 1])
        result = style_match_rate([(grid, sem)], refs, smoothing_alpha=0.1)
        assert result.assigned == ("a",)

    def test_regional_mode_needs_semantics(self):
        regional_refs = (
            StyleReference(
                "a", global_stats([0.25] * 4), scoped(([0.25] * 4,), [1.0])
            ),
            StyleReference(
                "b", global_stats([0.25] * 4), scoped(([0.25] * 4,), [1.0])
            ),
        )
        with pytest.raises(ValidationError) as exc:
            style_match_rate([low_grid(0, 1)], regional_refs)
        assert "semantic map" in str(exc.value)

    def test_true_styles_validated(self):
        with pytest.raises(ValidationError):
            style_match_rate([low_grid(0)], self.REFS, true_styles=["low", "high"])
        with pytest.raises(ValidationError) as exc:
            style_match_rate([low_grid(0)], self.REFS, true_styles=["other"])
        assert "not a reference" in str(exc.value)

    def test_token_permutation_equivariance(self):
        # Relabeling the codebook consistently cannot change assignments.
        perm = np.array([2, 3, 1, 0])
        samples = [low_grid(0, 1, 1, 0), low_grid(3, 2, 3, 3)]
        permuted_samples = [
            TokenGrid(1, 4, 4, perm[np.asarray(g.tokens)].tolist()) for g in samples
        ]
        inverse = np.argsort(perm)
        permuted_refs = tuple(
            StyleReference(ref.name, global_stats(ref.distribution.probs[0][inverse]))
            for ref in self.REFS
        )
        a = style_match_rate(samples, self.REFS)
        b = style_match_rate(permuted_samples, permuted_refs)
        assert a.assigned == b.assigned


class TestRelativeReduction:
    def test_half(self):
        assert relative_reduction(2.0, 4.0) == 0.5

    def test_zero_baseline(self):
        assert relative_reduction(1.0, 0.0) == 0.0

    def test_perfect_guidance(self):
        assert relative_reduction(0.0, 3.0) == 1.0


def skewed_grids(token, n, size=4):
    """Grids dominated by one token with a sprinkling of the next."""
    out = []
    for i in range(n):
        tokens = np.full(16, token)
        tokens[i % 16] = (token + 1) % size
        out.append(TokenGrid(4, 4, size, tokens.reshape(4, 4)))
    return out


class TestGuidanceReport:
    TARGET = StyleReference("goal", global_stats([0.7, 0.1, 0.1, 0.1]))

    def test_identical_sets_report_zero_reduction(self):
        grids = skewed_grids(0, 6)
        report = guidance_report(grids, list(grids), self.TARGET)
        assert report.kl_reduction == 0.0
        assert report.guided.pooled_kl == report.unguided.pooled_kl

    def test_on_target_guided_set_reaches_full_reduction(self):
        # Guided histograms equal the target exactly, so the pooled KL is 0
        # and the relative reduction is exactly 1.
        guided = [TokenGrid(1, 10, 4, [0] * 7 + [1, 2, 3])] * 8
        unguided = skewed_grids(2, 8)
        report = guidance_report(guided, unguided, self.TARGET)
        assert report.kl_reduction == 1.0
        assert report.guided.pooled_kl == 0.0
        assert report.unguided.pooled_kl > 1.0
        assert len(report.guided.rows) == 8
        assert report.guided.rows[0].sample_id == "guided-000"

    def test_seeds_recorded(self):
        grids = skewed_grids(0, 3)
        report = guidance_report(
            grids, grids, self.TARGET, guided_seeds=[7, 8, 9]
        )
        assert [row.seed for row in report.guided.rows] == [7, 8, 9]
        assert report.unguided.rows[0].seed is None

    def test_per_label_breakdown(self):
        target = StyleReference(
            "goal",
            global_stats([0.45, 0.45, 0.05, 0.05]),
            scoped(([0.9, 0.04, 0.03, 0.03], [0.04, 0.9, 0.03, 0.03]), [8.0, 8.0]),
        )
        sem = SemanticGrid(4, 4, 2, np.repeat([[0], [0], [1], [1]], 4, axis=1))
        guided = [
            TokenGrid(4, 4, 4, np.vstack([np.zeros((2, 4)), np.ones((2, 4))]))
        ] * 3
        unguided = [TokenGrid(4, 4, 4, np.full((4, 4), 2))] * 3
        report = guidance_report(guided, unguided, target, regions=sem)
        assert set(report.kl_reduction_per_label) == {0, 1}
        assert report.kl_reduction_per_label[0] > 0.5
        assert report.guided.kl_per_label[0] < report.unguided.kl_per_label[0]

    def test_each_set_counted_once_and_batches_never_indexed(self, monkeypatch):
        counted = []

        def counting(grids, *args):
            counted.append(len(grids))
            return _grid_counts(grids, *args)

        def refuse(batch, index):
            raise AssertionError("a TokenBatch was indexed")

        monkeypatch.setattr(gcs.metrics, "_grid_counts", counting)
        monkeypatch.setattr(TokenBatch, "__getitem__", refuse)
        target = StyleReference(
            "goal",
            global_stats([0.45, 0.45, 0.05, 0.05]),
            scoped(([0.9, 0.04, 0.03, 0.03], None), [8.0, 0.0]),
        )
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 4, (12, 8, 8))
        sem = SemanticGrid(8, 8, 2, np.repeat(np.arange(8)[:, None] // 4, 8, axis=1))
        report = guidance_report(
            TokenBatch(tokens[:5], 4), TokenBatch(tokens[5:], 4), target, regions=sem
        )
        assert counted == [5, 7]
        assert set(report.guided.kl_per_label) == {0}

        smoothed = scoped(([0.4, 0.3, 0.2, 0.1],) * 2, [8.0, 8.0])
        refs = [StyleReference(name, global_stats([0.25] * 4), smoothed) for name in "abc"]
        counted.clear()
        global_refs = [StyleReference(ref.name, ref.distribution) for ref in refs]
        style_match_rate(TokenBatch(tokens, 4), global_refs)
        pairs = [(TokenGrid(8, 8, 4, block), sem) for block in tokens]
        style_match_rate(pairs, refs)
        assert counted == [12, 12]

    def test_empty_sets_rejected(self):
        with pytest.raises(ValidationError):
            guidance_report([], skewed_grids(0, 2), self.TARGET)

    def test_region_count_must_match(self):
        sems = [SemanticGrid(4, 4, 2, np.zeros((4, 4)))]
        with pytest.raises(ValidationError):
            guidance_report(
                skewed_grids(0, 2), skewed_grids(0, 2), self.TARGET, regions=sems
            )


class TestReportFiles:
    def build(self):
        return guidance_report(
            skewed_grids(0, 2),
            skewed_grids(2, 2),
            TestGuidanceReport.TARGET,
            guided_seeds=[5, 6],
        )

    def test_json_payload(self, tmp_path):
        report = self.build()
        path = tmp_path / "report.json"
        write_report(path, report)
        payload = report_to_dict(report)
        assert payload["target"] == "goal"
        assert payload["kl_reduction"] == report.kl_reduction
        assert len(payload["guided"]["samples"]) == 2
        import json

        assert json.loads(path.read_text()) == payload

    def test_csv_layout(self, tmp_path):
        report = self.build()
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["id", "seed", "kl_global", "tv_global", "assigned_style"]
        assert len(rows) == 1 + 4  # header + both sets
        assert rows[1][0] == "guided-000" and rows[1][1] == "5"
        assert float(rows[3][2]) == report.unguided.rows[0].kl_global


class TestSpatialDivergence:
    def test_zero_for_matching_reference(self, grid_factory):
        grids = [grid_factory(4, 4, 5) for _ in range(3)]
        reference = histogram_by_cell(grids, 2, 2, smoothing_alpha=0.0)
        assert spatial_divergence(grids, reference) == 0.0

    def test_detects_rearrangement(self):
        top_heavy = TokenGrid(2, 2, 2, [[0, 0], [1, 1]])
        bottom_heavy = TokenGrid(2, 2, 2, [[1, 1], [0, 0]])
        reference = histogram_by_cell([top_heavy], 2, 1, smoothing_alpha=0.5)
        close = spatial_divergence([top_heavy], reference)
        far = spatial_divergence([bottom_heavy], reference)
        assert far > close + 0.5

    def test_empty_samples(self):
        reference = histogram_by_cell([TokenGrid(1, 2, 2, [0, 1])], 1, 1, 0.5)
        with pytest.raises(ValidationError):
            spatial_divergence([], reference)

    def test_label_scoped_reference_rejected(self):
        reference = scoped(([0.5, 0.5],), [2.0])
        with pytest.raises(ValidationError) as exc:
            spatial_divergence([TokenGrid(1, 2, 2, [0, 1])], reference)
        assert "per-cell reference" in str(exc.value)


@pytest.mark.parametrize("size, dtype", [(32, np.int8), (200, np.int16)])
def test_narrow_batches_count_as_their_grids(size, dtype):
    # Codes of grid, token and scope pass the batch's type: in a chunk of
    # int8 grids, and at 169 scopes (one per position) x 200 tokens.
    rng = np.random.default_rng(7)
    batch = TokenBatch(rng.integers(0, size, (200, 13, 13)).astype(dtype), size)
    grids = list(batch)
    assert batch.tokens.dtype == dtype
    labels = SemanticGrid(13, 13, 169, np.arange(169))
    for args in ((0.5,), (0.0, [labels] * 200), (0.5, None, (13, 13))):
        assert histograms(batch, *args) == histograms(grids, *args)
    assert histogram_by_cell(batch, 13, 13) == histogram_by_cell(grids, 13, 13)
    target = StyleReference.from_stats("goal", histogram_by_region(grids[0], labels))
    assert report_to_dict(guidance_report(batch[:90], batch[90:], target, labels)) == report_to_dict(
        guidance_report(grids[:90], grids[90:], target, labels)
    )
    refs = [StyleReference(f"s{i}", histograms(grids[i : i + 1])[0]) for i in range(2)]
    assert style_match_rate(batch, refs, 0.5) == style_match_rate(grids, refs, 0.5)


def _styled_grids(rng, n, height, width, size, favoured, weight=6.0):
    """Grids whose tokens lean toward the ``favoured`` tokens."""
    weights = np.ones(size)
    weights[list(favoured)] = weight
    tokens = rng.choice(size, (n, height, width), p=weights / weights.sum())
    return [TokenGrid(height, width, size, block) for block in tokens]


def _stats_bytes(stats) -> bytes:
    """A byte encoding of statistics, floats exact: a global row with its
    mass, or the tiling (None for labels) and each scope's row and mass."""
    rows = [
        probs.tobytes() + repr(float(mass)).encode() if present else b"none"
        for probs, mass, present in zip(stats.probs, stats.masses, stats.present)
    ]
    if stats.kind == "global":
        return rows[0]
    return b"|".join([repr(stats.cells).encode(), *rows])


def metrics_and_stats_digests(tmp_path) -> dict:
    """sha256 of every metrics output and Monte-Carlo estimate over fixed
    inputs: report JSON and CSV bytes, style matching, spatial divergence."""
    rng = np.random.default_rng(1215)
    size, labels = 7, 3
    maps = [
        SemanticGrid(5, 6, labels, rng.integers(0, labels, (5, 6))) for _ in range(12)
    ]
    sem = maps[0]
    style_a = _styled_grids(rng, 12, 5, 6, size, (0, 1))
    style_b = _styled_grids(rng, 12, 5, 6, size, (4, 5))
    guided = _styled_grids(rng, 9, 5, 6, size, (0, 2))
    unguided = _styled_grids(rng, 11, 5, 6, size, (3,))
    regional_a = average_scoped(
        [histogram_by_region(g, s, 0.5) for g, s in zip(style_a, maps)]
    )
    regional_b = average_scoped(
        [histogram_by_region(g, s, 0.5) for g, s in zip(style_b, maps)]
    )
    ref_a = StyleReference.from_stats("a", regional_a)
    ref_b = StyleReference.from_stats("b", regional_b)
    # No target for label 1: the report skips it.
    partial_scopes = ScopedDistributions(regional_a.probs * [[1], [0], [1]], regional_a.masses * [1, 0, 1])
    partial = StyleReference("partial", ref_a.distribution, partial_scopes)
    out: dict = {}

    def report_digest(name, *args, **kwargs):
        report = guidance_report(*args, **kwargs)
        write_report(tmp_path / "r.json", report)
        write_report_csv(tmp_path / "r.csv", report)
        digest = hashlib.sha256((tmp_path / "r.json").read_bytes())
        digest.update((tmp_path / "r.csv").read_bytes())
        out[name] = digest.hexdigest()

    batch = lambda grids: TokenBatch(np.stack([g.tokens for g in grids]), size)
    seeds = dict(guided_seeds=list(range(100, 109)), unguided_seeds=list(range(11)))
    global_ref = StyleReference("g", ref_a.distribution)
    report_digest("report-global-list", guided, unguided, global_ref, **seeds)
    report_digest("report-global-batch", batch(guided), batch(unguided), global_ref, **seeds)
    report_digest("report-regional-list", guided, unguided, ref_a, regions=sem, **seeds)
    report_digest("report-regional-batch", batch(guided), batch(unguided), ref_a, regions=sem)
    report_digest("report-regional-maps", guided, guided, partial, regions=maps[:9], **seeds)
    report_digest("report-regional-maps-batch", batch(guided), batch(guided), ref_b,
                  regions=maps[3:12])
    mixed = [random_grid(rng, h, w, size) for h, w in ((5, 6), (3, 3), (1, 8), (5, 6), (4, 2))]
    report_digest("report-global-mixed", mixed, mixed[::-1] + style_b[:2], global_ref,
                  guided_seeds=[1, 2, 3, 4, 5])

    # Weakly styled samples, so that some are assigned to the other style.
    samples = _styled_grids(rng, 6, 5, 6, size, (0, 1, 4), 1.6) + _styled_grids(
        rng, 6, 5, 6, size, (4, 5, 0), 1.6
    )
    truth = ["a"] * 6 + ["b"] * 6
    for alpha in (0.0, 0.5):
        for name, refs, items in (
            ("global", (StyleReference("a", ref_a.distribution),
                        StyleReference("b", ref_b.distribution)), samples),
            ("regional", (ref_a, ref_b), list(zip(samples, maps))),
        ):
            result = style_match_rate(items, refs, alpha, truth)
            text = repr((result.assigned, result.counts, result.accuracy, result.confusion))
            out[f"match-{name}-{alpha}"] = hashlib.sha256(text.encode()).hexdigest()

    cells = histogram_by_cell(style_a, 2, 3, 0.5)
    text = repr((spatial_divergence(guided, cells), spatial_divergence(style_a[:1], cells)))
    out["spatial-divergence"] = hashlib.sha256(text.encode()).hexdigest()

    corpus_maps = [SemanticGrid(5, 6, labels, m.labels) for m in maps]
    corpus_maps[4] = SemanticGrid(5, 6, labels, np.minimum(maps[4].labels, 1))
    pairs = list(zip(style_a, corpus_maps))
    mixed_corpus = mixed + style_b
    for alpha in (0.0, 0.5):
        for name, stats in (
            ("global", monte_carlo_dataset_distribution(mixed_corpus, 40, alpha, seed=3)),
            ("regional", monte_carlo_regional_distribution(pairs, 40, alpha, seed=4)),
            ("spatial", monte_carlo_spatial_distribution(style_b, 2, 2, 40, alpha, seed=5)),
        ):
            out[f"mc-{name}-{alpha}"] = hashlib.sha256(_stats_bytes(stats)).hexdigest()

    # Label 0 covers 22 positions, 15 of them token 1: in float64
    # (15 / 22) * 22 != 15, so pooling per-label probs x mass and pooling the
    # exact counts give different reports.
    layout = SemanticGrid(5, 6, 2, (np.arange(30) >= 22).reshape(5, 6))
    inexact = []
    for other in (2, 3, 2, 4, 2, 5):
        tokens = np.concatenate([rng.permutation([1] * 15 + [other] * 7), rng.integers(0, 7, 8)])
        inexact.append(TokenGrid(5, 6, size, tokens.reshape(5, 6)))
    report_digest("report-regional-inexact", inexact, inexact[::-1], ref_a, regions=layout)
    return out


def test_metrics_and_stats_are_pinned(tmp_path):
    # Taken from the per-grid histogram implementation that one chunked
    # count replaced; a reordered float sum changes them.
    assert metrics_and_stats_digests(tmp_path) == {
        "match-global-0.0": "a377612cc2ca97ece98ee77ddbeb2a6fd7b8969363741e9ae29cc9433a4179e0",
        "match-global-0.5": "a377612cc2ca97ece98ee77ddbeb2a6fd7b8969363741e9ae29cc9433a4179e0",
        "match-regional-0.0": "cb6e3b2a6e63651d873df9d388e17b9bc7c7f9d4d8ee549945533c8fe0e9d333",
        "match-regional-0.5": "a377612cc2ca97ece98ee77ddbeb2a6fd7b8969363741e9ae29cc9433a4179e0",
        "mc-global-0.0": "3127a827362c31ee7e7392469f603765c58b741d14391d0ac9094dfff9d7cf7e",
        "mc-global-0.5": "ce688e2a2714b549d721e8d2666063afeab174b04c75cedae1cf899caf26c3e2",
        "mc-regional-0.0": "7cf19f1b9cb11a5c47f51742781eaf28d87bcdced9b387497eeb664d2ba231e1",
        "mc-regional-0.5": "a5ed65507f0a612db43a672d286524f33623d614e20a8ed1d6475280498543bc",
        "mc-spatial-0.0": "18a9da12381e66ed22d68ad35c3eca8a4729d6a49cc9d2e3dcfe7511c26057eb",
        "mc-spatial-0.5": "934ac926171e4eba119dd23f403fc74167d628423c4dab7b6144e921aa15574a",
        "report-global-batch": "22f290672efeabbdae7438806a21216f7239f10a4c74965adf09a344e73a185a",
        "report-global-list": "22f290672efeabbdae7438806a21216f7239f10a4c74965adf09a344e73a185a",
        "report-global-mixed": "c6e64b646272f697836e8775dfa3e31ee1b84bd6fdedb319f61ecba8fd1e1396",
        "report-regional-batch": "25b5632d63aaf74fd71ae381951baf02d810fbb82ae570444073f96af8aafb3f",
        "report-regional-inexact": "f6be951d98bd49392fedc5bf2f50c10aff4e7795560b6effb135956862fa3bf9",
        "report-regional-list": "ee52ade01c8af96dc8a6bd1202de495c8516598151cf9b54ac97c7469c95af1b",
        "report-regional-maps": "cf3ca5a51a627bec8f907ddcb1c64aaa01cf14f5701000151f55163976c18e51",
        "report-regional-maps-batch": "24bc8ff056d53f23bea356fa03a0d5c7cbbf3bffd110b32212ca586cc4d423ca",
        "spatial-divergence": "b62c24908ea6cedbf5c915eff19d47477a824c6ac45603caee4b08e3a0d61504",
    }
