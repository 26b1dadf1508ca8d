import csv
import math

import numpy as np
import pytest

from gcs.core import CategoricalDistribution, SemanticGrid, TokenGrid, ValidationError
import gcs.metrics
from gcs.distributions import ScopedDistributions, histogram_by_cell, histogram_by_region
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


def dist(probs, mass=0.0):
    return CategoricalDistribution(len(probs), probs, source_mass=mass)


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


def low_grid(*tokens):
    return TokenGrid(1, len(tokens), 4, list(tokens))


class TestStyleMatchRate:
    REFS = (
        StyleReference("low", dist([0.45, 0.45, 0.05, 0.05])),
        StyleReference("high", dist([0.05, 0.05, 0.45, 0.45])),
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
            StyleReference("first", dist([0.75, 0.25, 0.0, 0.0])),
            StyleReference("second", dist([0.25, 0.75, 0.0, 0.0])),
        )
        result = style_match_rate([low_grid(0, 1)], refs)
        assert result.assigned == ("first",)

    def test_needs_two_references(self):
        with pytest.raises(ValidationError):
            style_match_rate([low_grid(0)], self.REFS[:1])

    def test_mixed_reference_kinds_rejected(self):
        regional = StyleReference(
            "r",
            dist([0.25] * 4),
            ScopedDistributions((dist([0.25] * 4, 4.0),)),
        )
        with pytest.raises(ValidationError) as exc:
            style_match_rate([low_grid(0)], (self.REFS[0], regional))
        assert "all global or all regional" in str(exc.value)

    def test_tiled_regional_reference_rejected(self):
        cells = ScopedDistributions((dist([0.25] * 4, 4.0),) * 2, (1, 2))
        with pytest.raises(ValidationError) as exc:
            StyleReference("r", dist([0.25] * 4), cells)
        assert "per label, not per cell" in str(exc.value)

    def test_regional_mode(self):
        refs = (
            StyleReference(
                "a",
                dist([0.45, 0.45, 0.05, 0.05]),
                ScopedDistributions(
                    (dist([0.9, 0.04, 0.03, 0.03], 2.0), dist([0.04, 0.9, 0.03, 0.03], 2.0)),
                ),
            ),
            StyleReference(
                "b",
                dist([0.05, 0.05, 0.45, 0.45]),
                ScopedDistributions(
                    (dist([0.03, 0.03, 0.9, 0.04], 2.0), dist([0.03, 0.03, 0.04, 0.9], 2.0)),
                ),
            ),
        )
        grid = TokenGrid(1, 4, 4, [0, 0, 1, 1])
        sem = SemanticGrid(1, 4, 2, [0, 0, 1, 1])
        result = style_match_rate([(grid, sem)], refs, smoothing_alpha=0.1)
        assert result.assigned == ("a",)

    def test_regional_mode_needs_semantics(self):
        regional_refs = (
            StyleReference(
                "a", dist([0.25] * 4), ScopedDistributions((dist([0.25] * 4, 1.0),))
            ),
            StyleReference(
                "b", dist([0.25] * 4), ScopedDistributions((dist([0.25] * 4, 1.0),))
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
            StyleReference(ref.name, dist(ref.distribution.probs[inverse]))
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
    TARGET = StyleReference("goal", dist([0.7, 0.1, 0.1, 0.1]))

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
            dist([0.45, 0.45, 0.05, 0.05]),
            ScopedDistributions(
                (dist([0.9, 0.04, 0.03, 0.03], 8.0), dist([0.04, 0.9, 0.03, 0.03], 8.0)),
            ),
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

    def test_each_grid_histogrammed_by_region_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return histogram_by_region(*args, **kwargs)

        monkeypatch.setattr(gcs.metrics, "histogram_by_region", counted)
        target = StyleReference(
            "goal",
            dist([0.45, 0.45, 0.05, 0.05]),
            ScopedDistributions((dist([0.9, 0.04, 0.03, 0.03], 8.0), None)),
        )
        rng = np.random.default_rng(3)
        grids = [TokenGrid(8, 8, 4, rng.integers(0, 4, (8, 8))) for _ in range(10)]
        sem = SemanticGrid(8, 8, 2, np.repeat(np.arange(8)[:, None] // 4, 8, axis=1))
        report = guidance_report(grids[:5], grids[5:], target, regions=sem)
        assert len(calls) == 10
        assert set(report.guided.kl_per_label) == {0}

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
        reference = ScopedDistributions((dist([0.5, 0.5], 2.0),))
        with pytest.raises(ValidationError) as exc:
            spatial_divergence([TokenGrid(1, 2, 2, [0, 1])], reference)
        assert "per-cell reference" in str(exc.value)
