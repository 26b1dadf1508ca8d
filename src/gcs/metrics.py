"""Token-space divergences and style evaluation reports.

Comparisons run in histogram space: a sample grid is reduced to its token
histogram (exact counts, no smoothing: the sample is data) and compared to
smoothed full-support reference distributions.  KL direction is always
KL(sample || reference), which penalizes sample mass on tokens the
reference style never uses.  `distributions._grid_counts` counts each
sample set (grids or a batch) once, per label only where labels are used.

References are `ScopedDistributions`: a `StyleReference` holds global
statistics and, for per-label breakdowns, regional ones; any statistics
file becomes one through `collapse_scoped`.  Divergences compare
probability rows, one per scope."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import SemanticGrid, TokenBatch, TokenGrid, ValidationError, grid_pairs
from .distributions import (
    ScopedDistributions, _grid_counts, collapse_scoped, histogram_by_cell, smoothed_rows
)
from .formats import dump_json


def kl_divergence(p: ScopedDistributions, q: ScopedDistributions) -> float:
    """KL(p || q) between two global statistics."""
    return _kl(*_global_rows(p, q))


def total_variation(p: ScopedDistributions, q: ScopedDistributions) -> float:
    """Total variation distance between two global statistics."""
    return _tv(*_global_rows(p, q))


def _global_rows(p: ScopedDistributions, q: ScopedDistributions) -> tuple[np.ndarray, np.ndarray]:
    for stats in (p, q):
        if stats.kind != "global":
            raise ValidationError(f"divergences compare global statistics, not {stats.kind} ones")
    return p.probs[0], q.probs[0]


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for probability rows, summed over p's support."""
    _check_sizes(p, q)
    support = p > 0.0
    missing = support & (q <= 0.0)
    if missing.any():
        raise ValidationError(f"q lacks support at index {int(np.flatnonzero(missing)[0])}")
    value = float(np.sum(p[support] * np.log(p[support] / q[support])))
    # Cancellation can leave a tiny negative residue when p ~= q.
    return max(value, 0.0)


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    _check_sizes(p, q)
    return 0.5 * float(np.abs(p - q).sum())


def _check_sizes(p: np.ndarray, q: np.ndarray) -> None:
    if p.size != q.size:
        raise ValidationError(f"codebook size mismatch: {p.size} vs {q.size}")


@dataclass(frozen=True)
class StyleReference:
    """Named global target statistics; regional adds per-label targets."""

    name: str
    distribution: ScopedDistributions
    regional: ScopedDistributions | None = None

    def __post_init__(self) -> None:
        if self.distribution.kind != "global":
            raise ValidationError("a reference's distribution must be global statistics")
        if self.regional is not None and self.regional.kind != "regional":
            raise ValidationError("regional targets must be per label, not per cell")

    @classmethod
    def from_stats(cls, name: str, stats: ScopedDistributions) -> StyleReference:
        """A reference for any statistics file: scoped stats collapse to their
        global margin, and only per-label stats add per-label targets."""
        return cls(name, collapse_scoped(stats), stats if stats.kind == "regional" else None)


def _target(stats: ScopedDistributions | None, label: int) -> np.ndarray | None:
    """The target row of one scope, None where the statistics have none."""
    if stats is None or label >= len(stats.probs) or not stats.present[label]:
        return None
    return stats.probs[label]


def _label_rows(counts: np.ndarray, alpha: float) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The labels a sample covers, their smoothed rows and every label's mass."""
    masses = counts.sum(axis=1)
    present = np.flatnonzero(masses).tolist()
    return present, smoothed_rows(counts[present], alpha), masses


@dataclass(frozen=True)
class StyleMatchResult:
    assigned: tuple[str, ...]
    counts: dict
    accuracy: float | None
    confusion: dict | None

    def rate_for(self, style: str) -> float:
        return self.counts.get(style, 0) / len(self.assigned)


def style_match_rate(
    samples: TokenBatch | Sequence[TokenGrid | tuple[TokenGrid, SemanticGrid | None]],
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
    if isinstance(samples, TokenBatch):
        grids, maps = samples, [None] * len(samples)
    else:
        pairs = grid_pairs(samples)
        grids, maps = [grid for grid, _ in pairs], [sem for _, sem in pairs]
    if not grids:
        raise ValidationError("empty sample set")
    if true_styles is not None and len(true_styles) != len(grids):
        raise ValidationError(f"{len(true_styles)} true styles for {len(grids)} samples")
    if regional_mode and any(sem is None for sem in maps):
        raise ValidationError("regional style matching requires a semantic map per sample")

    # Global references are one-scope statistics: their score is one KL.
    targets = [ref.regional if regional_mode else ref.distribution for ref in styles]
    assigned = []
    for counts in chain.from_iterable(_grid_counts(grids, maps if regional_mode else None)):
        present, probs, masses = _label_rows(counts, smoothing_alpha)
        total = float(masses.sum())
        scores = []
        for ref, stats in zip(styles, targets):
            score = 0.0
            for label, row in zip(present, probs):
                target = _target(stats, label)
                if target is None:
                    raise ValidationError(
                        f"reference {ref.name!r} has no distribution for label {label}"
                    )
                score += (float(masses[label]) / total) * _kl(row, target)
            scores.append(score)
        assigned.append(styles[int(np.argmin(scores))].name)

    counts: dict = {ref.name: 0 for ref in styles}
    for name in assigned:
        counts[name] += 1
    accuracy = confusion = None
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


@dataclass(frozen=True)
class SampleRow:
    sample_id: str
    seed: int | None
    kl_global: float
    tv_global: float
    kl_per_label: dict


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


def _set_summary(
    grids: TokenBatch | Sequence[TokenGrid],
    regions: SemanticGrid | list[SemanticGrid] | None,
    target: StyleReference,
    prefix: str,
    seeds: Sequence[int] | None,
) -> SetSummary:
    by_label = regions is not None and target.regional is not None
    goal = target.distribution.probs[0]
    # Per-label pools add each sample's probs x mass in sample order, as
    # floats; (c / m) * m is not always c.
    rows, pooled, pooled_labels = [], 0, 0.0
    samples = chain.from_iterable(_grid_counts(grids, regions if by_label else None))
    for i, counts in enumerate(samples):
        total = counts.sum(axis=0)
        pooled = pooled + total
        hist = smoothed_rows(total[None], 0.0)[0]
        kl_labels: dict = {}
        if by_label:
            present, probs, masses = _label_rows(counts, 0.0)
            label_probs = np.zeros(counts.shape)
            label_probs[present] = probs
            pooled_labels = pooled_labels + label_probs * masses[:, None]
            for label, row in zip(present, probs):
                ref = _target(target.regional, label)
                if ref is not None:
                    kl_labels[label] = _kl(row, ref)
        rows.append(SampleRow(
            sample_id=f"{prefix}-{i:03d}", seed=None if seeds is None else seeds[i],
            kl_global=_kl(hist, goal), tv_global=_tv(hist, goal), kl_per_label=kl_labels,
        ))

    pooled = smoothed_rows(pooled[None], 0.0)[0]
    kl_per_label, tv_per_label = {}, {}
    if by_label:
        present = np.flatnonzero(pooled_labels.any(axis=1)).tolist()
        for label, row in zip(present, smoothed_rows(pooled_labels[present], 0.0)):
            ref = _target(target.regional, label)
            if ref is not None:
                kl_per_label[label] = _kl(row, ref)
                tv_per_label[label] = _tv(row, ref)
    return SetSummary(
        pooled_kl=_kl(pooled, goal),
        pooled_tv=_tv(pooled, goal),
        mean_kl=float(np.mean([row.kl_global for row in rows])),
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
    guided: TokenBatch | Sequence[TokenGrid],
    unguided: TokenBatch | Sequence[TokenGrid],
    target: StyleReference,
    regions: SemanticGrid | Sequence[SemanticGrid] | None = None,
    guided_seeds: Sequence[int] | None = None,
    unguided_seeds: Sequence[int] | None = None,
) -> GuidanceReport:
    """Quantify how much closer guided samples sit to the target style.

    `regions` applies to both sets, enabling per-label breakdowns.
    """
    if not guided or not unguided:
        raise ValidationError("guided and unguided sample sets must be non-empty")
    if not isinstance(regions, (SemanticGrid, type(None))):
        regions = list(regions)
        for count in (len(guided), len(unguided)):
            if len(regions) != count:
                raise ValidationError(f"{len(regions)} semantic maps for {count} samples")
    g = _set_summary(guided, regions, target, "guided", guided_seeds)
    u = _set_summary(unguided, regions, target, "unguided", unguided_seeds)
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
    samples: TokenBatch | Sequence[TokenGrid],
    reference: ScopedDistributions,
) -> float:
    """Mass-weighted mean per-cell KL of pooled sample counts to a reference.

    Sensitive to where tokens sit, not just how often they occur, so it
    separates styles that share a global histogram.
    """
    if reference.kind != "spatial":
        raise ValidationError("spatial divergence needs per-cell reference statistics")
    if not samples:
        raise ValidationError("empty sample set")
    pooled = histogram_by_cell(samples, *reference.cells, 0.0)
    masses = pooled.masses.tolist()
    kls = [_kl(p, q) for p, q in zip(pooled.probs, reference.probs)]
    return float(sum(m * k for m, k in zip(masses, kls)) / sum(masses))


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
                "assigned_style": None,  # kept in the layout; no style is assigned
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
                writer.writerow(record + [""])  # assigned_style: no style is assigned
