"""Token-space divergences and style evaluation reports.

Comparisons run in histogram space: a sample grid is reduced to its token
histogram (exact counts, no smoothing: the sample is data) and compared to
smoothed full-support reference distributions.  KL direction is always
KL(sample || reference), which penalizes sample mass on tokens the
reference style never uses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import CategoricalDistribution, SemanticGrid, TokenGrid, ValidationError, grid_pairs
from .distributions import (
    ScopedDistributions,
    collapse_scoped,
    histogram_by_cell,
    histogram_by_region,
    histogram_from_grid,
    smoothed_distribution,
)
from .formats import dump_json


def kl_divergence(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    if p.codebook_size != q.codebook_size:
        raise ValidationError(
            f"codebook size mismatch: {p.codebook_size} vs {q.codebook_size}"
        )
    support = p.probs > 0.0
    missing = support & (q.probs <= 0.0)
    if missing.any():
        raise ValidationError(
            f"q lacks support at index {int(np.flatnonzero(missing)[0])}"
        )
    value = float(np.sum(p.probs[support] * np.log(p.probs[support] / q.probs[support])))
    # Cancellation can leave a tiny negative residue when p ~= q.
    return max(value, 0.0)


def total_variation(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    if p.codebook_size != q.codebook_size:
        raise ValidationError(
            f"codebook size mismatch: {p.codebook_size} vs {q.codebook_size}"
        )
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


@dataclass(frozen=True)
class StyleReference:
    """Named target distribution; regional adds per-label targets."""

    name: str
    distribution: CategoricalDistribution
    regional: ScopedDistributions | None = None

    def __post_init__(self) -> None:
        if self.regional is not None and self.regional.cells is not None:
            raise ValidationError("regional targets must be per label, not per cell")

    @classmethod
    def from_stats(
        cls, name: str, stats: CategoricalDistribution | ScopedDistributions
    ) -> StyleReference:
        """A reference for any statistics file: scoped stats collapse to their
        global margin, and only per-label stats add per-label targets."""
        if isinstance(stats, CategoricalDistribution):
            return cls(name, stats)
        return cls(name, collapse_scoped(stats), stats if stats.cells is None else None)

    def label_target(self, label: int) -> CategoricalDistribution | None:
        """The target for one label, None where the reference has none."""
        scopes = () if self.regional is None else self.regional.scopes
        return scopes[label] if label < len(scopes) else None


def _regional_score(
    grid: TokenGrid,
    semantics: SemanticGrid,
    reference: StyleReference,
    smoothing_alpha: float,
) -> float:
    regional = histogram_by_region(grid, semantics, smoothing_alpha)
    total = sum(regional.masses)
    if total <= 0:
        raise ValidationError("sample has no token mass")
    score = 0.0
    for label, dist in enumerate(regional.scopes):
        if dist is None or dist.source_mass <= 0:
            continue
        ref = reference.label_target(label)
        if ref is None:
            raise ValidationError(
                f"reference {reference.name!r} has no distribution for label {label}"
            )
        score += (dist.source_mass / total) * kl_divergence(dist, ref)
    return score


@dataclass(frozen=True)
class StyleMatchResult:
    assigned: tuple[str, ...]
    counts: dict
    accuracy: float | None
    confusion: dict | None

    def rate_for(self, style: str) -> float:
        return self.counts.get(style, 0) / len(self.assigned)


def style_match_rate(
    samples: Sequence[TokenGrid | tuple[TokenGrid, SemanticGrid | None]],
    styles: Sequence[StyleReference],
    smoothing_alpha: float = 0.0,
    true_styles: Sequence[str] | None = None,
) -> StyleMatchResult:
    """Assign each sample to the KL-nearest reference.

    With regional references the score is the mass-weighted sum of
    per-label KLs; ties go to the lowest reference index.  `true_styles`
    (parallel to samples) switches on accuracy and confusion counts.
    """
    if len(styles) < 2:
        raise ValidationError("style matching needs at least 2 reference styles")
    regional_flags = {ref.regional is not None for ref in styles}
    if len(regional_flags) != 1:
        raise ValidationError("references must be all global or all regional")
    regional_mode = regional_flags.pop()
    pairs = grid_pairs(samples)
    if not pairs:
        raise ValidationError("empty sample set")
    if true_styles is not None and len(true_styles) != len(pairs):
        raise ValidationError(
            f"{len(true_styles)} true styles for {len(pairs)} samples"
        )

    assigned = []
    for grid, semantics in pairs:
        if regional_mode:
            if semantics is None:
                raise ValidationError(
                    "regional style matching requires a semantic map per sample"
                )
            scores = [
                _regional_score(grid, semantics, ref, smoothing_alpha)
                for ref in styles
            ]
        else:
            hist = histogram_from_grid(grid, smoothing_alpha)
            scores = [kl_divergence(hist, ref.distribution) for ref in styles]
        assigned.append(styles[int(np.argmin(scores))].name)

    counts: dict = {ref.name: 0 for ref in styles}
    for name in assigned:
        counts[name] += 1
    accuracy = None
    confusion = None
    if true_styles is not None:
        confusion = {ref.name: {other.name: 0 for other in styles} for ref in styles}
        hits = 0
        for truth, got in zip(true_styles, assigned):
            if truth not in confusion:
                raise ValidationError(f"true style {truth!r} is not a reference")
            confusion[truth][got] += 1
            hits += truth == got
        accuracy = hits / len(assigned)
    return StyleMatchResult(tuple(assigned), counts, accuracy, confusion)


def _broadcast_regions(
    regions: SemanticGrid | Sequence[SemanticGrid] | None, count: int
) -> list[SemanticGrid] | None:
    if regions is None:
        return None
    if isinstance(regions, SemanticGrid):
        return [regions] * count
    regions = list(regions)
    if len(regions) != count:
        raise ValidationError(f"{len(regions)} semantic maps for {count} samples")
    return regions


@dataclass(frozen=True)
class SampleRow:
    sample_id: str
    seed: int | None
    kl_global: float
    tv_global: float
    kl_per_label: dict
    assigned_style: str | None


@dataclass(frozen=True)
class SetSummary:
    pooled_kl: float
    pooled_tv: float
    mean_kl: float
    kl_per_label: dict
    tv_per_label: dict
    rows: tuple[SampleRow, ...]


@dataclass(frozen=True)
class GuidanceReport:
    target: str
    guided: SetSummary
    unguided: SetSummary
    kl_reduction: float
    kl_reduction_per_label: dict


def _pooled_counts(grids: Sequence[TokenGrid]) -> CategoricalDistribution:
    counts = np.zeros(grids[0].codebook_size)
    for grid in grids:
        counts += np.bincount(grid.flat, minlength=grid.codebook_size)
    return smoothed_distribution(counts, 0.0)


def _pooled_regional(regionals: Sequence[ScopedDistributions]) -> dict:
    """Per-label pooled sample histograms (exact counts), absent labels skipped."""
    totals: dict = {}
    for regional in regionals:
        for label, dist in enumerate(regional.scopes):
            if dist is None:
                continue
            counts = dist.probs * dist.source_mass
            if label in totals:
                totals[label] = totals[label] + counts
            else:
                totals[label] = counts
    return {
        label: smoothed_distribution(counts, 0.0)
        for label, counts in sorted(totals.items())
    }


def _set_summary(
    grids: Sequence[TokenGrid],
    regions: list[SemanticGrid] | None,
    target: StyleReference,
    prefix: str,
    seeds: Sequence[int] | None,
) -> SetSummary:
    rows = []
    per_sample_kl = []
    regionals = []  # each grid's per-label histogram, pooled below
    for i, grid in enumerate(grids):
        hist = histogram_from_grid(grid, 0.0)
        kl = kl_divergence(hist, target.distribution)
        tv = total_variation(hist, target.distribution)
        per_sample_kl.append(kl)
        kl_labels: dict = {}
        if regions is not None and target.regional is not None:
            regional = histogram_by_region(grid, regions[i], 0.0)
            regionals.append(regional)
            for label, dist in enumerate(regional.scopes):
                ref = target.label_target(label)
                if dist is None or ref is None:
                    continue
                kl_labels[label] = kl_divergence(dist, ref)
        rows.append(
            SampleRow(
                sample_id=f"{prefix}-{i:03d}",
                seed=None if seeds is None else seeds[i],
                kl_global=kl,
                tv_global=tv,
                kl_per_label=kl_labels,
                assigned_style=None,
            )
        )

    pooled = _pooled_counts(grids)
    kl_per_label: dict = {}
    tv_per_label: dict = {}
    for label, dist in _pooled_regional(regionals).items():
        ref = target.label_target(label)
        if ref is None:
            continue
        kl_per_label[label] = kl_divergence(dist, ref)
        tv_per_label[label] = total_variation(dist, ref)
    return SetSummary(
        pooled_kl=kl_divergence(pooled, target.distribution),
        pooled_tv=total_variation(pooled, target.distribution),
        mean_kl=float(np.mean(per_sample_kl)),
        kl_per_label=kl_per_label,
        tv_per_label=tv_per_label,
        rows=tuple(rows),
    )


def relative_reduction(guided: float, unguided: float) -> float:
    """1 - guided/unguided; 0 when the baseline is already exactly on target."""
    if unguided <= 0.0:
        return 0.0
    return 1.0 - guided / unguided


def guidance_report(
    guided: Sequence[TokenGrid],
    unguided: Sequence[TokenGrid],
    target: StyleReference,
    regions: SemanticGrid | Sequence[SemanticGrid] | None = None,
    guided_seeds: Sequence[int] | None = None,
    unguided_seeds: Sequence[int] | None = None,
) -> GuidanceReport:
    """Quantify how much closer guided samples sit to the target style.

    `regions` applies to both sets, enabling per-label breakdowns.
    """
    guided = list(guided)
    unguided = list(unguided)
    if not guided or not unguided:
        raise ValidationError("guided and unguided sample sets must be non-empty")
    guided_regions = _broadcast_regions(regions, len(guided))
    unguided_regions = _broadcast_regions(regions, len(unguided))

    g = _set_summary(guided, guided_regions, target, "guided", guided_seeds)
    u = _set_summary(unguided, unguided_regions, target, "unguided", unguided_seeds)
    per_label = {
        label: relative_reduction(g.kl_per_label[label], u.kl_per_label[label])
        for label in sorted(set(g.kl_per_label) & set(u.kl_per_label))
    }
    return GuidanceReport(
        target=target.name,
        guided=g,
        unguided=u,
        kl_reduction=relative_reduction(g.pooled_kl, u.pooled_kl),
        kl_reduction_per_label=per_label,
    )


def spatial_divergence(
    samples: Sequence[TokenGrid],
    reference: ScopedDistributions,
) -> float:
    """Mass-weighted mean per-cell KL of pooled sample counts to a reference.

    Sensitive to where tokens sit, not just how often they occur, so it
    separates styles that share a global histogram.
    """
    if reference.cells is None:
        raise ValidationError("spatial divergence needs per-cell reference statistics")
    samples = list(samples)
    if not samples:
        raise ValidationError("empty sample set")
    pooled = histogram_by_cell(samples, *reference.cells, 0.0)
    masses = []
    kls = []
    for dist, ref in zip(pooled.scopes, reference.scopes):
        masses.append(dist.source_mass)
        kls.append(kl_divergence(dist, ref))
    total = sum(masses)
    return float(sum(m * k for m, k in zip(masses, kls)) / total)


def _summary_to_dict(summary: SetSummary) -> dict:
    return {
        "pooled_kl": summary.pooled_kl,
        "pooled_tv": summary.pooled_tv,
        "mean_kl": summary.mean_kl,
        "kl_per_label": {str(k): v for k, v in summary.kl_per_label.items()},
        "tv_per_label": {str(k): v for k, v in summary.tv_per_label.items()},
        "samples": [
            {
                "id": row.sample_id,
                "seed": row.seed,
                "kl_global": row.kl_global,
                "tv_global": row.tv_global,
                "kl_per_label": {str(k): v for k, v in row.kl_per_label.items()},
                "assigned_style": row.assigned_style,
            }
            for row in summary.rows
        ],
    }


def report_to_dict(report: GuidanceReport) -> dict:
    return {
        "target": report.target,
        "kl_reduction": report.kl_reduction,
        "kl_reduction_per_label": {
            str(k): v for k, v in report.kl_reduction_per_label.items()
        },
        "guided": _summary_to_dict(report.guided),
        "unguided": _summary_to_dict(report.unguided),
    }


def write_report(path: str | Path, report: GuidanceReport) -> None:
    dump_json(path, report_to_dict(report))


def write_report_csv(path: str | Path, report: GuidanceReport) -> None:
    """One row per sample across both sets, for external plotting."""
    labels = sorted(
        {
            label
            for summary in (report.guided, report.unguided)
            for row in summary.rows
            for label in row.kl_per_label
        }
    )
    header = ["id", "seed", "kl_global", "tv_global"]
    header += [f"kl_label_{label}" for label in labels]
    header.append("assigned_style")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for summary in (report.guided, report.unguided):
            for row in summary.rows:
                record = [
                    row.sample_id,
                    "" if row.seed is None else row.seed,
                    repr(row.kl_global),
                    repr(row.tv_global),
                ]
                for label in labels:
                    value = row.kl_per_label.get(label)
                    record.append("" if value is None else repr(value))
                record.append(row.assigned_style or "")
                writer.writerow(record)
