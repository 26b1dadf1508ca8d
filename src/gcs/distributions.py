"""Codebook-index statistics of token grids, held in one array-backed type.

Every statistic is a `ScopedDistributions`: one smoothed probability row
and one observation mass per scope of a layout.  The layout is "global"
(one scope covering every position, `histogram_from_grid`), "regional" (one
scope per semantic label, `histogram_by_region`) or a (rows, cols) tiling
(one scope per cell of aligned grids, `histogram_by_cell`).  `_grid_counts`
counts every layout, for a list of grids or a batch, as (grid, scope,
token) counts: one bincount per chunk of grids.  `_estimates` turns them
into each grid's own rows, and one rule each averages rows in draw order
(`average_scoped`, `monte_carlo_distribution`) and collapses scoped rows
into global ones (`collapse_scoped`), whatever the layout.

All counting supports additive smoothing with a non-negative alpha:

    p[t] = (count(t) + alpha) / (observations + alpha * codebook_size)

With alpha > 0 every entry is strictly positive, which downstream ratio
guidance relies on.  Averages weight each estimate uniformly;
`collapse_scoped` weights each scope by its mass (equivalent to pooling raw
counts when alpha = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from .core import SemanticGrid, TokenBatch, TokenGrid, ValidationError, _readonly, check_rows
from .rng import draw_indices

DEFAULT_ALPHA = 0.5

# Counting reads chunks of whole grids of at most about this many positions and
# counts (a larger grid is one chunk); 2**16, as in training, ran estimates slower.
_CHUNK_POSITIONS = 2**14
# Largest scopes x codebook size one count may hold; it sizes the count arrays.
COUNT_CELL_LIMIT = 2**26
# Most Monte-Carlo draws one estimate may take; it sizes the draw arrays.
DRAW_LIMIT = 2**24


@dataclass(frozen=True, eq=False)
class ScopedDistributions:
    """Token distributions over the scopes of one layout.

    ``probs`` (scopes, K) holds one probability row per scope and ``masses``
    (scopes,) the observations behind each.  ``layout`` is "global" (one
    scope covering every position), "regional" (one scope per semantic
    label) or a (rows, cols) tiling: one scope per cell in row-major order,
    where position (r, c) of an H x W grid belongs to cell
    (floor(r * rows / H), floor(c * cols / W)).  A label nobody observed
    (zero area, zero smoothing) has an all-zero row and mass 0 and is not
    ``present``; every cell covers a position, so cells are always present.
    The arrays are read-only copies.
    """

    probs: np.ndarray
    masses: np.ndarray
    layout: str | tuple[int, int] = "regional"
    present: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        masses = np.array(self.masses, dtype=np.float64)
        present = check_rows(probs, masses)
        if isinstance(self.layout, str):
            if self.layout not in ("global", "regional"):
                raise ValidationError(f"unknown statistics layout {self.layout!r}")
        else:
            object.__setattr__(self, "layout", tuple(int(n) for n in self.layout))
        check_scope_layout(present, self.cells, "distributions")
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "masses", _readonly(masses))
        object.__setattr__(self, "present", _readonly(present))

    @property
    def kind(self) -> str:
        """"global", "regional" or "spatial": what a statistics file declares."""
        return self.layout if isinstance(self.layout, str) else "spatial"

    @property
    def cells(self) -> tuple[int, int] | None:
        """The tiling that picks a position's scope; global is 1x1, labels have none."""
        return {"global": (1, 1), "regional": None}.get(self.layout, self.layout)

    @property
    def codebook_size(self) -> int:
        return self.probs.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScopedDistributions):
            return NotImplemented
        return (self.layout == other.layout and np.array_equal(self.probs, other.probs)
                and np.array_equal(self.masses, other.masses))


def check_scope_layout(present: np.ndarray, cells: tuple[int, int] | None, what: str) -> None:
    """Statistics and guidance tables alike hold at least one scope (one
    ``present`` flag each), and a (rows, cols) tiling rows * cols of them,
    all present."""
    if not present.size:
        raise ValidationError(f"{what} need at least one scope")
    if cells is not None:
        rows, cols = cells
        if rows < 1 or cols < 1:
            raise ValidationError(f"cell tiling must be positive, got {rows}x{cols}")
        if present.size != rows * cols or not present.all():
            raise ValidationError(
                f"a {rows}x{cols} tiling needs {rows * cols} cell {what}, got {np.count_nonzero(present)}"
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
    if not np.all(np.isfinite(denominators)):
        raise ValidationError(
            f"smoothing alpha {alpha} over {counts.shape[1]} tokens overflows the row total"
        )
    if np.any(denominators <= 0.0):
        raise ValidationError(
            "zero observations with zero smoothing: distribution is undefined"
        )
    return (counts + alpha) / denominators


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValidationError(f"smoothing alpha must be finite and >= 0, got {alpha}")
    return alpha


def histograms(
    grids: TokenBatch | Sequence[TokenGrid],
    smoothing_alpha: float = DEFAULT_ALPHA,
    maps: Sequence[SemanticGrid] | None = None,
    cells: tuple[int, int] | None = None,
) -> list[ScopedDistributions]:
    """Each grid's own smoothed distributions: global, per label of its map
    in ``maps``, or per cell of a (rows, cols) tiling of its shape."""
    rows, masses = _estimates(grids, _check_alpha(smoothing_alpha), maps, cells)
    layout = _layout(maps, cells)
    return [ScopedDistributions(r, m, layout) for r, m in zip(rows, masses)]


def histogram_from_grid(
    grid: TokenGrid, smoothing_alpha: float = DEFAULT_ALPHA
) -> ScopedDistributions:
    """The smoothed frequency distribution of one grid's tokens."""
    return histograms([grid], smoothing_alpha)[0]


def histogram_by_region(
    grid: TokenGrid,
    semantics: SemanticGrid,
    smoothing_alpha: float = DEFAULT_ALPHA,
) -> ScopedDistributions:
    """Token distributions counted separately inside each semantic region."""
    return histograms([grid], smoothing_alpha, [semantics])[0]


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
    return ScopedDistributions(*_smoothed(counts, alpha), (cell_rows, cell_cols))


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
            index = np.concatenate(tokens[first : first + n], dtype=np.int64).reshape(n, -1)
            index += (np.arange(n) * size)[:, None]
            if maps:
                index *= scopes
                index += np.concatenate([sem.labels for sem in maps[first : first + n]]).reshape(n, -1)
            index = np.bincount(index.reshape(-1), minlength=n * size * scopes)
            yield index.reshape(n, size, scopes).transpose(0, 2, 1)
        start = end


def _smoothed(counts: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed rows and masses of (..., K) counts; a row with no
    observations and no smoothing stays all zero (an absent scope)."""
    masses = counts.sum(axis=-1).astype(np.float64)
    rows = np.zeros(counts.shape)
    present = (masses > 0.0) | (alpha > 0.0)
    rows[present] = smoothed_rows(counts[present].astype(np.float64), alpha)
    return rows, masses


def _estimates(grids, alpha: float, maps=None, cells=None) -> tuple[np.ndarray, np.ndarray]:
    """Each grid's own smoothed rows and masses, as (grids, scopes, K) and
    (grids, scopes) arrays: global, per label of its map in ``maps`` (all
    with one label count), or per cell of a (rows, cols) tiling of its shape."""
    if cells is not None:
        shapes = _grid_shapes(grids)
        by_shape = {shape: _cell_map(shape, cells) for shape in dict.fromkeys(shapes)}
        maps = [by_shape[shape] for shape in shapes]
    elif maps is not None and len({sem.label_count for sem in maps}) > 1:
        raise ValidationError("scope layout mismatch across estimates")
    parts = [_smoothed(counts, alpha) for counts in _grid_counts(grids, maps)]
    return np.concatenate([rows for rows, _ in parts]), np.concatenate([m for _, m in parts])


def _layout(maps, cells) -> str | tuple[int, int]:
    return tuple(cells) if cells is not None else "global" if maps is None else "regional"


def _mean_rows(rows: np.ndarray, masses: np.ndarray, order, layout) -> ScopedDistributions:
    """Scope-wise uniform mean of the estimates ``rows[order]`` ((E, S, K)
    rows, (E, S) masses), summed in that order; ``rows`` is overwritten.

    For each scope only estimates that observed it (mass > 0) contribute.
    If nobody did, the scope keeps the first smoothing-only row in order,
    with mass 0, or stays absent.  The mean is renormalized.
    """
    observed = masses > 0.0
    firsts = order[rows.any(axis=2)[order].argmax(axis=0)]
    out = rows[firsts, np.arange(rows.shape[1])]
    rows[~observed] = 0.0
    total = np.zeros(out.shape)
    for i in order.tolist():
        total += rows[i]
    counts = observed[order].sum(axis=0)
    seen = counts > 0
    mean = total[seen] / counts[seen, None]
    out[seen] = mean / mean.sum(axis=1, keepdims=True)
    return ScopedDistributions(out, masses[order].sum(axis=0), layout)


def average_scoped(estimates: Sequence[ScopedDistributions]) -> ScopedDistributions:
    """Scope-wise uniform average of estimates sharing one layout, in their
    order (see `_mean_rows`)."""
    if not estimates:
        raise ValidationError("cannot average an empty list")
    sizes = sorted({e.codebook_size for e in estimates})
    if len(sizes) > 1:
        raise ValidationError(f"estimates mix codebook sizes {sizes}")
    first = estimates[0]
    if any((e.layout, len(e.probs)) != (first.layout, len(first.probs)) for e in estimates):
        raise ValidationError("scope layout mismatch across estimates")
    rows = np.stack([e.probs for e in estimates])
    masses = np.stack([e.masses for e in estimates])
    return _mean_rows(rows, masses, np.arange(len(estimates)), first.layout)


def collapse_scoped(stats: ScopedDistributions) -> ScopedDistributions:
    """The global distribution implied by scoped statistics: the mass-weighted
    mean of the observed scopes, or the uniform mean of smoothing-only ones.
    Global statistics are their own.

    Used as the fallback reference wherever a per-label vector is missing.
    """
    if stats.kind == "global":
        return stats
    observed = stats.masses > 0.0
    if observed.any():
        total = sum(stats.masses[observed].tolist())
        mean = (stats.masses[observed] / total) @ stats.probs[observed]
    elif stats.present.any():
        total, mean = 0.0, stats.probs[stats.present].mean(axis=0)
    else:
        raise ValidationError("no label carries a distribution")
    return ScopedDistributions((mean / mean.sum())[None], [total], "global")


def check_draws(draws: int) -> None:
    """Reject a Monte-Carlo draw count outside [1, DRAW_LIMIT], before any draw."""
    if not 1 <= draws <= DRAW_LIMIT:
        raise ValidationError(f"draw count must be in [1, {DRAW_LIMIT}], got {draws}")


def monte_carlo_distribution(
    grids: Sequence[TokenGrid],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    maps: Sequence[SemanticGrid] | None = None,
    cells: tuple[int, int] | None = None,
) -> ScopedDistributions:
    """Uniformly average, in draw order, the estimates of ``draws`` grids
    drawn with replacement: global, per label of each grid's map in
    ``maps``, or per cell of a (rows, cols) tiling.  Deterministic for a
    given seed; each distinct drawn grid is counted once."""
    alpha = _check_alpha(smoothing_alpha)
    check_draws(draws)
    if not grids:
        raise ValidationError("empty corpus")
    drawn, order = np.unique(draw_indices(len(grids), draws, seed), return_inverse=True)
    picked = drawn.tolist()
    maps = None if maps is None else [maps[i] for i in picked]
    rows, masses = _estimates([grids[i] for i in picked], alpha, maps, cells)
    return _mean_rows(rows, masses, order, _layout(maps, cells))


# Names the benchmark harness calls: each layout's one body, and the
# Monte-Carlo estimates under the names their spans are timed by.
average_distributions = average_regional = average_spatial = average_scoped
collapse_regional = collapse_spatial = collapse_scoped


def monte_carlo_dataset_distribution(corpus, draws, smoothing_alpha=DEFAULT_ALPHA, seed=0):
    return monte_carlo_distribution(corpus, draws, smoothing_alpha, seed)


def monte_carlo_regional_distribution(corpus, draws, smoothing_alpha=DEFAULT_ALPHA, seed=0):
    maps = [sem for _, sem in corpus]
    return monte_carlo_distribution([g for g, _ in corpus], draws, smoothing_alpha, seed, maps)


def monte_carlo_spatial_distribution(
    corpus, cell_rows, cell_cols, draws, smoothing_alpha=DEFAULT_ALPHA, seed=0
):
    cells = (cell_rows, cell_cols)
    return monte_carlo_distribution(corpus, draws, smoothing_alpha, seed, cells=cells)
