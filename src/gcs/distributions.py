"""Codebook-index distribution estimation from token grids.

Counting comes in four flavors, each an estimate of the same kind of object
(a categorical distribution over the codebook):

* globally over a grid (`histogram_from_grid`),
* restricted to semantic regions (`histogram_by_region`),
* bucketed by spatial cell over an aligned grid collection (`histogram_by_cell`),
* Monte-Carlo averaged over random corpus draws (`monte_carlo_*`).

All counting supports additive smoothing with a non-negative alpha:

    p[t] = (count(t) + alpha) / (observations + alpha * codebook_size)

With alpha > 0 every entry is strictly positive, which downstream ratio
guidance relies on.  Monte-Carlo estimates average the per-draw
distributions uniformly by default; mass weighting (equivalent to pooling
raw counts when alpha = 0) is available everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CategoricalDistribution,
    SemanticGrid,
    TokenGrid,
    ValidationError,
    require_same_shape,
)
from .rng import draw_indices

DEFAULT_ALPHA = 0.5


@dataclass(frozen=True, eq=False)
class RegionalDistributions:
    """Per-semantic-label distributions with their observation masses.

    A label nobody observed (zero area, zero smoothing) is stored as None
    rather than as an invalid vector.
    """

    label_count: int
    per_label: tuple[CategoricalDistribution | None, ...]
    per_label_mass: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.label_count < 1:
            raise ValidationError(f"label count must be >= 1, got {self.label_count}")
        if len(self.per_label) != self.label_count:
            raise ValidationError(
                f"per_label has {len(self.per_label)} entries for "
                f"{self.label_count} labels"
            )
        if len(self.per_label_mass) != self.label_count:
            raise ValidationError(
                f"per_label_mass has {len(self.per_label_mass)} entries for "
                f"{self.label_count} labels"
            )
        object.__setattr__(self, "per_label", tuple(self.per_label))
        sizes = {dist.codebook_size for dist in self.per_label if dist is not None}
        if len(sizes) > 1:
            raise ValidationError(f"per-label distributions mix codebook sizes {sorted(sizes)}")
        object.__setattr__(
            self, "per_label_mass", tuple(float(m) for m in self.per_label_mass)
        )

    @property
    def codebook_size(self) -> int:
        for dist in self.per_label:
            if dist is not None:
                return dist.codebook_size
        raise ValidationError("no label carries a distribution")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionalDistributions):
            return NotImplemented
        return (
            self.label_count == other.label_count
            and self.per_label == other.per_label
            and self.per_label_mass == other.per_label_mass
        )


@dataclass(frozen=True, eq=False)
class SpatialDistributions:
    """Distributions bucketed by cell of a fixed rows x cols tiling.

    Position (r, c) of an H x W grid belongs to cell
    (floor(r * cell_rows / H), floor(c * cell_cols / W)).
    """

    cell_rows: int
    cell_cols: int
    per_cell: tuple[tuple[CategoricalDistribution, ...], ...]

    def __post_init__(self) -> None:
        if self.cell_rows < 1 or self.cell_cols < 1:
            raise ValidationError(
                f"cell tiling must be positive, got {self.cell_rows}x{self.cell_cols}"
            )
        rows = tuple(tuple(row) for row in self.per_cell)
        if len(rows) != self.cell_rows or any(len(r) != self.cell_cols for r in rows):
            raise ValidationError(
                f"per_cell must be a {self.cell_rows}x{self.cell_cols} grid"
            )
        object.__setattr__(self, "per_cell", rows)

    @property
    def codebook_size(self) -> int:
        return self.per_cell[0][0].codebook_size

    def cells_flat(self) -> list[CategoricalDistribution]:
        return [dist for row in self.per_cell for dist in row]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpatialDistributions):
            return NotImplemented
        return (
            self.cell_rows == other.cell_rows
            and self.cell_cols == other.cell_cols
            and self.per_cell == other.per_cell
        )


def cell_of_position(
    row: int, col: int, height: int, width: int, cell_rows: int, cell_cols: int
) -> tuple[int, int]:
    """Map a grid position to its cell under the floor-partition tiling.

    Works elementwise on integer arrays too; statistics, guidance and
    `spatial_divergence` all place positions through this one rule.
    """
    return (row * cell_rows) // height, (col * cell_cols) // width


def smoothed_distribution(
    counts: np.ndarray, alpha: float, mass: float | None = None
) -> CategoricalDistribution:
    """Turn raw per-token counts into an additively smoothed distribution."""
    counts = np.asarray(counts, dtype=np.float64)
    size = counts.size
    total = float(counts.sum()) if mass is None else float(mass)
    denom = total + alpha * size
    if denom <= 0.0:
        raise ValidationError(
            "zero observations with zero smoothing: distribution is undefined"
        )
    return CategoricalDistribution(
        codebook_size=size, probs=(counts + alpha) / denom, source_mass=total
    )


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValidationError(f"smoothing alpha must be finite and >= 0, got {alpha}")
    return alpha


def histogram_from_grid(
    grid: TokenGrid, smoothing_alpha: float = DEFAULT_ALPHA
) -> CategoricalDistribution:
    """The smoothed frequency distribution of one grid's tokens."""
    alpha = _check_alpha(smoothing_alpha)
    counts = np.bincount(grid.flat, minlength=grid.codebook_size)
    return smoothed_distribution(counts, alpha)


def histogram_by_region(
    grid: TokenGrid,
    semantics: SemanticGrid,
    smoothing_alpha: float = DEFAULT_ALPHA,
) -> RegionalDistributions:
    """Token distributions counted separately inside each semantic region."""
    alpha = _check_alpha(smoothing_alpha)
    require_same_shape(grid, semantics)
    counts = _regional_counts(grid, semantics)
    return _regional_from_counts(counts, alpha)


def _regional_counts(grid: TokenGrid, semantics: SemanticGrid) -> np.ndarray:
    """Count matrix of shape (label_count, codebook_size)."""
    joint = semantics.flat * grid.codebook_size + grid.flat
    flat = np.bincount(joint, minlength=semantics.label_count * grid.codebook_size)
    return flat.reshape(semantics.label_count, grid.codebook_size)


def _regional_from_counts(counts: np.ndarray, alpha: float) -> RegionalDistributions:
    per_label: list[CategoricalDistribution | None] = []
    masses: list[float] = []
    for row in counts:
        mass = float(row.sum())
        masses.append(mass)
        if mass == 0.0 and alpha == 0.0:
            per_label.append(None)
        else:
            per_label.append(smoothed_distribution(row, alpha, mass=mass))
    return RegionalDistributions(
        label_count=counts.shape[0],
        per_label=tuple(per_label),
        per_label_mass=tuple(masses),
    )


def histogram_by_cell(
    grids: Sequence[TokenGrid],
    cell_rows: int,
    cell_cols: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
) -> SpatialDistributions:
    """Pooled per-cell distributions over aligned same-shape grids.

    The tiling must be no finer than the grid (cell_rows <= height,
    cell_cols <= width), which guarantees every cell covers at least one
    position.
    """
    alpha = _check_alpha(smoothing_alpha)
    if not grids:
        raise ValidationError("empty grid list")
    first = grids[0]
    if cell_rows < 1 or cell_cols < 1:
        raise ValidationError("cell tiling must be positive")
    if cell_rows > first.height or cell_cols > first.width:
        raise ValidationError(
            f"tiling {cell_rows}x{cell_cols} is finer than the "
            f"{first.height}x{first.width} grid"
        )
    rows, cols = cell_of_position(
        np.arange(first.height)[:, None], np.arange(first.width)[None, :],
        first.height, first.width, cell_rows, cell_cols,
    )
    cell_index = (rows * cell_cols + cols).reshape(-1)
    n_cells = cell_rows * cell_cols
    counts = np.zeros((n_cells, first.codebook_size), dtype=np.int64)
    for grid in grids:
        if (grid.height, grid.width) != (first.height, first.width):
            raise ValidationError("grids must share dimensions")
        if grid.codebook_size != first.codebook_size:
            raise ValidationError("grids must share codebook size")
        joint = cell_index * grid.codebook_size + grid.flat
        counts += np.bincount(
            joint, minlength=n_cells * grid.codebook_size
        ).reshape(n_cells, grid.codebook_size)
    cells = tuple(
        tuple(
            smoothed_distribution(counts[r * cell_cols + c], alpha)
            for c in range(cell_cols)
        )
        for r in range(cell_rows)
    )
    return SpatialDistributions(cell_rows=cell_rows, cell_cols=cell_cols, per_cell=cells)


def average_distributions(
    dists: Sequence[CategoricalDistribution], weighting: str = "uniform"
) -> CategoricalDistribution:
    """Combine distributions by uniform or mass-weighted arithmetic mean.

    The result's source mass is the sum of the inputs' masses under either
    weighting; mass weighting additionally requires positive total mass.
    """
    if not dists:
        raise ValidationError("cannot average an empty list of distributions")
    size = dists[0].codebook_size
    for d in dists:
        if d.codebook_size != size:
            raise ValidationError(
                f"codebook size mismatch: {d.codebook_size} vs {size}"
            )
    total_mass = float(sum(d.source_mass for d in dists))
    stack = np.stack([d.probs for d in dists])
    if weighting == "uniform":
        mean = stack.mean(axis=0)
    elif weighting == "mass":
        if total_mass <= 0.0:
            raise ValidationError("mass weighting requires positive total mass")
        weights = np.array([d.source_mass for d in dists]) / total_mass
        mean = weights @ stack
    else:
        raise ValidationError(f"unknown weighting {weighting!r}")
    return CategoricalDistribution(
        codebook_size=size, probs=mean / mean.sum(), source_mass=total_mass
    )


def average_regional(
    regionals: Sequence[RegionalDistributions], weighting: str = "uniform"
) -> RegionalDistributions:
    """Per-label average across estimates.

    For each label only inputs that actually observed it (mass > 0)
    contribute.  If nobody did, the label stays absent unless some input
    carries a smoothing-only vector, which is passed through with mass 0.
    """
    if not regionals:
        raise ValidationError("cannot average an empty list")
    label_count = regionals[0].label_count
    for reg in regionals:
        if reg.label_count != label_count:
            raise ValidationError("label count mismatch across regional estimates")
    per_label: list[CategoricalDistribution | None] = []
    masses: list[float] = []
    for j in range(label_count):
        observed = [
            reg.per_label[j]
            for reg in regionals
            if reg.per_label[j] is not None and reg.per_label_mass[j] > 0.0
        ]
        if observed:
            per_label.append(average_distributions(observed, weighting))
            masses.append(float(sum(reg.per_label_mass[j] for reg in regionals)))
        else:
            fillers = [reg.per_label[j] for reg in regionals if reg.per_label[j] is not None]
            per_label.append(fillers[0] if fillers else None)
            masses.append(0.0)
    return RegionalDistributions(
        label_count=label_count, per_label=tuple(per_label), per_label_mass=tuple(masses)
    )


def average_spatial(
    spatials: Sequence[SpatialDistributions], weighting: str = "uniform"
) -> SpatialDistributions:
    """Cell-wise average across spatial estimates sharing one tiling."""
    if not spatials:
        raise ValidationError("cannot average an empty list")
    rows, cols = spatials[0].cell_rows, spatials[0].cell_cols
    for sp in spatials:
        if (sp.cell_rows, sp.cell_cols) != (rows, cols):
            raise ValidationError("cell tiling mismatch across spatial estimates")
    cells = tuple(
        tuple(
            average_distributions([sp.per_cell[r][c] for sp in spatials], weighting)
            for c in range(cols)
        )
        for r in range(rows)
    )
    return SpatialDistributions(cell_rows=rows, cell_cols=cols, per_cell=cells)


def collapse_regional(regional: RegionalDistributions) -> CategoricalDistribution:
    """Mass-weighted global distribution implied by regional estimates.

    Used as the fallback reference wherever a per-label vector is missing.
    """
    observed = [
        dist
        for dist, mass in zip(regional.per_label, regional.per_label_mass)
        if dist is not None and mass > 0.0
    ]
    if observed:
        return average_distributions(observed, "mass")
    fillers = [dist for dist in regional.per_label if dist is not None]
    if not fillers:
        raise ValidationError("no label carries a distribution")
    return average_distributions(fillers, "uniform")


def collapse_spatial(spatial: SpatialDistributions) -> CategoricalDistribution:
    """Mass-weighted global distribution implied by per-cell estimates."""
    cells = spatial.cells_flat()
    total = sum(d.source_mass for d in cells)
    return average_distributions(cells, "mass" if total > 0.0 else "uniform")


def monte_carlo_dataset_distribution(
    corpus: Sequence[TokenGrid],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    weighting: str = "uniform",
) -> CategoricalDistribution:
    """Average the histograms of ``draws`` grids sampled with replacement.

    Deterministic for a given seed; the uniform average over draws is the
    default, mass weighting pools token counts instead.
    """
    alpha = _check_alpha(smoothing_alpha)
    if draws < 1:
        raise ValidationError(f"draw count must be >= 1, got {draws}")
    if not corpus:
        raise ValidationError("empty corpus")
    picks = draw_indices(len(corpus), draws, seed)
    cache: dict[int, CategoricalDistribution] = {}
    selected = []
    for i in picks:
        i = int(i)
        if i not in cache:
            cache[i] = histogram_from_grid(corpus[i], alpha)
        selected.append(cache[i])
    return average_distributions(selected, weighting)


def monte_carlo_regional_distribution(
    corpus: Sequence[tuple[TokenGrid, SemanticGrid]],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    weighting: str = "uniform",
) -> RegionalDistributions:
    """Monte-Carlo regional variant: per-label averages over sampled pairs."""
    alpha = _check_alpha(smoothing_alpha)
    if draws < 1:
        raise ValidationError(f"draw count must be >= 1, got {draws}")
    if not corpus:
        raise ValidationError("empty corpus")
    picks = draw_indices(len(corpus), draws, seed)
    cache: dict[int, RegionalDistributions] = {}
    selected = []
    for i in picks:
        i = int(i)
        if i not in cache:
            grid, sem = corpus[i]
            cache[i] = histogram_by_region(grid, sem, alpha)
        selected.append(cache[i])
    return average_regional(selected, weighting)


def monte_carlo_spatial_distribution(
    corpus: Sequence[TokenGrid],
    cell_rows: int,
    cell_cols: int,
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    weighting: str = "uniform",
) -> SpatialDistributions:
    """Monte-Carlo spatial variant: per-cell averages over sampled grids."""
    alpha = _check_alpha(smoothing_alpha)
    if draws < 1:
        raise ValidationError(f"draw count must be >= 1, got {draws}")
    if not corpus:
        raise ValidationError("empty corpus")
    picks = draw_indices(len(corpus), draws, seed)
    cache: dict[int, SpatialDistributions] = {}
    selected = []
    for i in picks:
        i = int(i)
        if i not in cache:
            cache[i] = histogram_by_cell([corpus[i]], cell_rows, cell_cols, alpha)
        selected.append(cache[i])
    return average_spatial(selected, weighting)
