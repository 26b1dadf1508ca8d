"""Codebook-index distribution estimation from token grids.

Every estimate is a categorical distribution over the codebook, counted
either globally over a grid (`histogram_from_grid`) or per scope into a
`ScopedDistributions`: one scope per semantic label (`histogram_by_region`)
or per cell of a rows x cols tiling over aligned grids
(`histogram_by_cell`).  `_grid_counts` counts every kind, for a list of
grids or a batch, as (grid, scope, token) counts: one bincount per chunk of
grids.  One rule averages (`average_scoped`) and collapses
(`collapse_scoped`) either scoped kind; `monte_carlo_*` count the distinct
drawn grids once and average their estimates in draw order.

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
from itertools import chain, groupby
from typing import Iterator, Sequence

import numpy as np

from .core import (
    CategoricalDistribution,
    SemanticGrid,
    TokenBatch,
    TokenGrid,
    ValidationError,
)
from .rng import draw_indices

DEFAULT_ALPHA = 0.5

# Counting reads chunks of whole grids of at most about this many positions and
# counts (a larger grid is one chunk); 2**16, as in training, ran estimates slower.
_CHUNK_POSITIONS = 2**14
# Largest scopes x codebook size one count may hold; it sizes the count arrays.
COUNT_CELL_LIMIT = 2**26


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
    return _estimates([grid], _check_alpha(smoothing_alpha))[0]


def histogram_by_region(
    grid: TokenGrid,
    semantics: SemanticGrid,
    smoothing_alpha: float = DEFAULT_ALPHA,
) -> ScopedDistributions:
    """Token distributions counted separately inside each semantic region."""
    return _estimates([grid], _check_alpha(smoothing_alpha), [semantics])[0]


def histogram_by_cell(
    grids: TokenBatch | Sequence[TokenGrid],
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
    shapes = _grid_shapes(grids)
    if not shapes:
        raise ValidationError("empty grid list")
    cells = _cell_map(shapes[0], (cell_rows, cell_cols))
    if any(shape != shapes[0] for shape in shapes):
        raise ValidationError("grids must share dimensions")
    counts = sum(chunk.sum(axis=0) for chunk in _grid_counts(grids, cells))
    return _scoped(counts, alpha, (cell_rows, cell_cols))


def _cell_map(shape: tuple[int, int], cells: tuple[int, int]) -> SemanticGrid:
    """Each position's cell under a (rows, cols) tiling, as a label map."""
    (height, width), (rows, cols) = shape, cells
    if rows < 1 or cols < 1:
        raise ValidationError("cell tiling must be positive")
    if rows > height or cols > width:
        raise ValidationError(f"tiling {rows}x{cols} is finer than the {height}x{width} grid")
    row, col = cell_of_position(
        np.arange(height)[:, None], np.arange(width)[None, :], height, width, rows, cols
    )
    return SemanticGrid(height, width, rows * cols, row * cols + col)


def _grid_shapes(grids: TokenBatch | Sequence[TokenGrid]) -> list[tuple[int, int]]:
    batch = isinstance(grids, TokenBatch)
    return [grids.tokens.shape[1:]] * len(grids) if batch else [g.tokens.shape for g in grids]


def _grid_counts(grids, maps=None) -> Iterator[np.ndarray]:
    """(grid, scope, token) counts of a batch or of grids of one codebook
    size, one array per chunk of consecutive grids.

    A position's scope is its label in its grid's map (``maps`` holds one
    per grid, or one for all): a semantic label, or a cell (`_cell_map`).
    Without maps every position is in scope 0.  A chunk holds consecutive
    grids of one shape, _CHUNK_POSITIONS // max(positions, scopes x codebook
    size) of them or one.
    """
    shapes = _grid_shapes(grids)
    if isinstance(grids, TokenBatch):
        size, tokens = grids.codebook_size, grids.tokens
    else:
        sizes = {grid.codebook_size for grid in grids}
        if len(sizes) > 1:
            raise ValidationError(f"codebook size mismatch across grids: {sorted(sizes)}")
        size, tokens = sizes.pop(), [grid.tokens for grid in grids]
    maps = [maps] * len(shapes) if isinstance(maps, SemanticGrid) else maps
    scopes = max(sem.label_count for sem in maps) if maps else 1
    if scopes * size > COUNT_CELL_LIMIT:
        raise ValidationError(f"{scopes} scopes x {size} tokens exceeds the limit {COUNT_CELL_LIMIT}")
    for (height, width), sem in zip(shapes, maps or ()):
        if (sem.height, sem.width) != (height, width):
            raise ValidationError(
                f"grid is {height}x{width} but semantic map is {sem.height}x{sem.width}"
            )
    start = 0
    for (height, width), run in groupby(shapes):
        end = start + len(list(run))
        step = max(1, _CHUNK_POSITIONS // max(height * width, scopes * size))
        for first in range(start, end, step):
            n = min(step, end - first)
            # (grid, token, scope) codes, built in place and dropped before the yield.
            index = np.concatenate(tokens[first : first + n]).reshape(n, -1)
            index += (np.arange(n) * size)[:, None]
            if maps:
                index *= scopes
                index += np.concatenate([sem.labels for sem in maps[first : first + n]]).reshape(n, -1)
            index = np.bincount(index.reshape(-1), minlength=n * size * scopes)
            yield index.reshape(n, size, scopes).transpose(0, 2, 1)
        start = end


def _scoped(counts: np.ndarray, alpha: float, cells=None) -> ScopedDistributions:
    """Smoothed (scopes, tokens) counts; an unobserved, unsmoothed scope is None."""
    return ScopedDistributions(tuple(
        None if alpha == 0.0 and not row.any() else smoothed_distribution(row, alpha)
        for row in counts
    ), cells)


def _estimates(grids, alpha: float, semantics=None, cells=None) -> list:
    """Each grid's own estimate: global, per label of its map in
    ``semantics``, or per cell of a (rows, cols) tiling of its shape."""
    if cells is not None:
        shapes = _grid_shapes(grids)
        maps = {shape: _cell_map(shape, cells) for shape in dict.fromkeys(shapes)}
        counts = chain.from_iterable(_grid_counts(grids, [maps[s] for s in shapes]))
        return [_scoped(c, alpha, cells) for c in counts]
    if semantics is None:
        return [smoothed_distribution(c[0], alpha) for c in chain.from_iterable(_grid_counts(grids))]
    counts = chain.from_iterable(_grid_counts(grids, semantics))
    return [_scoped(c[: sem.label_count], alpha) for c, sem in zip(counts, semantics)]


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


def _monte_carlo(corpus, draws, smoothing_alpha, seed, estimates, average):
    """Average, in draw order, the estimates of ``draws`` corpus items drawn with
    replacement; ``estimates(items, alpha)`` estimates the distinct ones in one pass."""
    alpha = _check_alpha(smoothing_alpha)
    if draws < 1:
        raise ValidationError(f"draw count must be >= 1, got {draws}")
    if not corpus:
        raise ValidationError("empty corpus")
    drawn, order = np.unique(draw_indices(len(corpus), draws, seed), return_inverse=True)
    found = estimates([corpus[i] for i in drawn.tolist()], alpha)
    return average([found[i] for i in order.tolist()])


def monte_carlo_dataset_distribution(
    corpus: Sequence[TokenGrid],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> CategoricalDistribution:
    """Uniformly average the histograms of ``draws`` grids sampled with
    replacement; deterministic for a given seed."""
    return _monte_carlo(corpus, draws, smoothing_alpha, seed, _estimates, average_distributions)


def monte_carlo_regional_distribution(
    corpus: Sequence[tuple[TokenGrid, SemanticGrid]],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> ScopedDistributions:
    """Monte-Carlo regional variant: per-label averages over sampled pairs."""
    return _monte_carlo(
        corpus, draws, smoothing_alpha, seed,
        lambda pairs, alpha: _estimates([g for g, _ in pairs], alpha, [s for _, s in pairs]),
        average_scoped,
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
        lambda grids, alpha: _estimates(grids, alpha, cells=(cell_rows, cell_cols)),
        average_scoped,
    )
