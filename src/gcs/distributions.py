"""Codebook-index distribution estimation from token grids.

Every estimate is a categorical distribution over the codebook, counted
either globally over a grid (`histogram_from_grid`) or per scope into a
`ScopedDistributions`: one scope per semantic label (`histogram_by_region`)
or per cell of a rows x cols tiling over aligned grids
(`histogram_by_cell`).  Both scoped counts are one bincount over a
position -> scope index, and one rule averages (`average_scoped`) and
collapses (`collapse_scoped`) either kind.  Monte-Carlo estimates
(`monte_carlo_*`) average per-grid estimates over random corpus draws.

All counting supports additive smoothing with a non-negative alpha:

    p[t] = (count(t) + alpha) / (observations + alpha * codebook_size)

With alpha > 0 every entry is strictly positive, which downstream ratio
guidance relies on.  Monte-Carlo estimates and scope-wise averages weight
each estimate uniformly; `average_distributions` can also weight by mass
(equivalent to pooling raw counts when alpha = 0), which `collapse_scoped`
uses.
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


@dataclass(frozen=True)
class ScopedDistributions:
    """Distributions kept per scope: per semantic label, or per spatial cell.

    ``scopes`` holds one distribution per semantic label, or, when ``cells``
    gives a (rows, cols) tiling, one per cell in row-major order.  Position
    (r, c) of an H x W grid belongs to cell
    (floor(r * rows / H), floor(c * cols / W)).  A label nobody observed
    (zero area, zero smoothing) is stored as None rather than as an invalid
    vector; every cell covers a position, so cells are never None.  A
    scope's observation mass is its distribution's ``source_mass``.
    """

    scopes: tuple[CategoricalDistribution | None, ...]
    cells: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scopes", tuple(self.scopes))
        check_scope_layout(self.scopes, self.cells, "distributions")
        sizes = {dist.codebook_size for dist in self.scopes if dist is not None}
        if len(sizes) > 1:
            raise ValidationError(f"scopes mix codebook sizes {sorted(sizes)}")

    @property
    def mode(self) -> str:
        return "regional" if self.cells is None else "spatial"

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(0.0 if d is None else d.source_mass for d in self.scopes)


def check_scope_layout(scopes: tuple, cells: tuple[int, int] | None, what: str) -> None:
    """Statistics and guidance tables alike hold at least one scope, and a
    (rows, cols) tiling holds rows * cols of them, none None."""
    if not scopes:
        raise ValidationError(f"{what} need at least one scope")
    if cells is not None:
        rows, cols = cells
        if rows < 1 or cols < 1:
            raise ValidationError(f"cell tiling must be positive, got {rows}x{cols}")
        present = sum(scope is not None for scope in scopes)
        if len(scopes) != rows * cols or present != len(scopes):
            raise ValidationError(
                f"a {rows}x{cols} tiling needs {rows * cols} cell {what}, got {present}"
            )


def cell_of_position(
    row: int, col: int, height: int, width: int, cell_rows: int, cell_cols: int
) -> tuple[int, int]:
    """Map a grid position to its cell under the floor-partition tiling.

    Works elementwise on integer arrays too; statistics, guidance and
    `spatial_divergence` all place positions through this one rule.
    """
    return (row * cell_rows) // height, (col * cell_cols) // width


def smoothed_rows(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Additively smoothed (R, K) count rows, each as a probability row."""
    denominators = counts.sum(axis=1, keepdims=True) + alpha * counts.shape[1]
    if np.any(denominators <= 0.0):
        raise ValidationError(
            "zero observations with zero smoothing: distribution is undefined"
        )
    return (counts + alpha) / denominators


def smoothed_distribution(counts: np.ndarray, alpha: float) -> CategoricalDistribution:
    """Turn raw per-token counts into an additively smoothed distribution."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = smoothed_rows(counts[None], alpha)[0]
    return CategoricalDistribution(counts.size, probs, source_mass=float(counts.sum()))


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
) -> ScopedDistributions:
    """Token distributions counted separately inside each semantic region."""
    alpha = _check_alpha(smoothing_alpha)
    require_same_shape(grid, semantics)
    return _count_by_scope([grid], semantics.flat, semantics.label_count, alpha)


def histogram_by_cell(
    grids: Sequence[TokenGrid],
    cell_rows: int,
    cell_cols: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
) -> ScopedDistributions:
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
    for grid in grids:
        if (grid.height, grid.width) != (first.height, first.width):
            raise ValidationError("grids must share dimensions")
        if grid.codebook_size != first.codebook_size:
            raise ValidationError("grids must share codebook size")
    rows, cols = cell_of_position(
        np.arange(first.height)[:, None], np.arange(first.width)[None, :],
        first.height, first.width, cell_rows, cell_cols,
    )
    cell_index = (rows * cell_cols + cols).reshape(-1)
    return _count_by_scope(
        grids, cell_index, cell_rows * cell_cols, alpha, (cell_rows, cell_cols)
    )


def _count_by_scope(
    grids: Sequence[TokenGrid],
    scope_index: np.ndarray,
    scope_count: int,
    alpha: float,
    cells: tuple[int, int] | None = None,
) -> ScopedDistributions:
    """Pool token counts per scope: position p of each grid counts toward
    scope ``scope_index[p]``.  A scope with no observations and no smoothing
    is None."""
    size = grids[0].codebook_size
    counts = np.zeros((scope_count, size), dtype=np.int64)
    for grid in grids:
        joint = scope_index * size + grid.flat
        counts += np.bincount(joint, minlength=counts.size).reshape(counts.shape)
    scopes = tuple(
        None if alpha == 0.0 and not row.any() else smoothed_distribution(row, alpha)
        for row in counts
    )
    return ScopedDistributions(scopes, cells)


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


def average_scoped(estimates: Sequence[ScopedDistributions]) -> ScopedDistributions:
    """Scope-wise uniform average across estimates sharing one scope layout.

    For each scope only estimates that actually observed it (mass > 0)
    contribute.  If nobody did, the scope stays absent unless some estimate
    carries a smoothing-only vector, which is passed through with mass 0.
    """
    if not estimates:
        raise ValidationError("cannot average an empty list")
    first = estimates[0]
    if any((e.cells, len(e.scopes)) != (first.cells, len(first.scopes)) for e in estimates):
        raise ValidationError("scope layout mismatch across estimates")
    scopes: list[CategoricalDistribution | None] = []
    for j in range(len(first.scopes)):
        present = [est.scopes[j] for est in estimates if est.scopes[j] is not None]
        observed = [dist for dist in present if dist.source_mass > 0.0]
        if observed:
            scopes.append(average_distributions(observed))
        else:
            scopes.append(present[0] if present else None)
    return ScopedDistributions(tuple(scopes), first.cells)


def collapse_scoped(stats: ScopedDistributions) -> CategoricalDistribution:
    """Mass-weighted global distribution implied by per-scope estimates.

    Used as the fallback reference wherever a per-label vector is missing.
    """
    present = [dist for dist in stats.scopes if dist is not None]
    observed = [dist for dist in present if dist.source_mass > 0.0]
    if observed:
        return average_distributions(observed, "mass")
    if not present:
        raise ValidationError("no label carries a distribution")
    return average_distributions(present, "uniform")


# Names the benchmark harness calls; both scope kinds share one body.
average_regional = average_spatial = average_scoped
collapse_regional = collapse_spatial = collapse_scoped


def _monte_carlo(corpus, draws, smoothing_alpha, seed, estimate, average):
    """Average ``estimate(corpus[i], alpha)`` over ``draws`` indices drawn
    with replacement, estimating each distinct index once."""
    alpha = _check_alpha(smoothing_alpha)
    if draws < 1:
        raise ValidationError(f"draw count must be >= 1, got {draws}")
    if not corpus:
        raise ValidationError("empty corpus")
    cache: dict = {}
    selected = []
    for i in draw_indices(len(corpus), draws, seed):
        i = int(i)
        if i not in cache:
            cache[i] = estimate(corpus[i], alpha)
        selected.append(cache[i])
    return average(selected)


def monte_carlo_dataset_distribution(
    corpus: Sequence[TokenGrid],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> CategoricalDistribution:
    """Uniformly average the histograms of ``draws`` grids sampled with
    replacement; deterministic for a given seed."""
    return _monte_carlo(
        corpus, draws, smoothing_alpha, seed, histogram_from_grid, average_distributions
    )


def monte_carlo_regional_distribution(
    corpus: Sequence[tuple[TokenGrid, SemanticGrid]],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> ScopedDistributions:
    """Monte-Carlo regional variant: per-label averages over sampled pairs."""
    return _monte_carlo(
        corpus, draws, smoothing_alpha, seed,
        lambda pair, alpha: histogram_by_region(*pair, alpha), average_scoped,
    )


def monte_carlo_spatial_distribution(
    corpus: Sequence[TokenGrid],
    cell_rows: int,
    cell_cols: int,
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> ScopedDistributions:
    """Monte-Carlo spatial variant: per-cell averages over sampled grids."""
    return _monte_carlo(
        corpus, draws, smoothing_alpha, seed,
        lambda grid, alpha: histogram_by_cell([grid], cell_rows, cell_cols, alpha),
        average_scoped,
    )
