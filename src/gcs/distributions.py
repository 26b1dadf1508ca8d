"""Codebook-index statistics of token grids, held in one array-backed type.

Every statistic is a `ScopedDistributions`: one smoothed probability row
and one observation mass per scope of a layout.  The layout is "global"
(one scope covering every position, `histogram_from_grid`), "regional" (one
scope per semantic label, `histogram_by_region`) or a (rows, cols) tiling
(one scope per cell of aligned grids, `histogram_by_cell`).  `_counts`
counts every layout, for the `_blocks` of a list of grids, a batch or a
packed corpus, as (grid, scope, token) counts: one bincount per chunk of
grids.  `_estimates` turns them
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

from .core import GridRun, SemanticGrid, TokenBatch, TokenGrid, ValidationError, _readonly, check_rows
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
    rows = np.add(counts, alpha, dtype=np.float64)
    rows /= denominators
    return rows


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValidationError(f"smoothing alpha must be finite and >= 0, got {alpha}")
    return alpha


def histograms(
    grids: TokenBatch | Sequence[TokenGrid] | Sequence[GridRun],
    smoothing_alpha: float = DEFAULT_ALPHA,
    maps: Sequence[SemanticGrid] | None = None,
    cells: tuple[int, int] | None = None,
) -> list[ScopedDistributions]:
    """Each grid's own smoothed distributions: global, per label of its map
    in ``maps`` (or in its packed run), or per cell of a (rows, cols)
    tiling of its shape."""
    size, scopes, blocks = _blocks(grids, maps, cells)
    rows, masses = _estimates(size, scopes, blocks, _check_alpha(smoothing_alpha))
    return [ScopedDistributions(r, m, _layout(scopes, cells)) for r, m in zip(rows, masses)]


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
    if not len(grids):
        raise ValidationError("empty grid list")
    size, scopes, blocks = _blocks(grids, cells=(cell_rows, cell_cols))
    if len(blocks) > 1:
        raise ValidationError("grids must share dimensions")
    counts = sum(chunk.sum(axis=0) for chunk in _counts(size, scopes, blocks))
    return ScopedDistributions(*_smoothed(counts, alpha), (cell_rows, cell_cols))


def _cell_map(shape: tuple[int, int], cells: tuple[int, int]) -> np.ndarray:
    """Each position's cell under a (rows, cols) tiling, as a label map."""
    (height, width), (rows, cols) = shape, cells
    if rows < 1 or cols < 1:
        raise ValidationError("cell tiling must be positive")
    if rows > height or cols > width:
        raise ValidationError(f"tiling {rows}x{cols} is finer than the {height}x{width} grid")
    row, col = cell_of_position(
        np.arange(height)[:, None], np.arange(width)[None, :], height, width, rows, cols
    )
    return row * cols + col


def _blocks(grids, maps=None, cells=None) -> tuple[int, set, list]:
    """Codebook size, label counts and (tokens, labels) blocks of a batch, a
    packed corpus (`GridRun`s, whose labels are their maps) or a list of
    grids with `maps`, one per grid or one for all.  A block is consecutive
    grids of one shape and their maps (None without), each a sequence of 2-D
    arrays; `cells` gives every grid its shape's cell map instead."""
    runs = [GridRun(grids)] if isinstance(grids, TokenBatch) else grids
    if runs and isinstance(runs[0], GridRun):
        sizes = {run.grids.codebook_size for run in runs}
        blocks = [(run.grids.tokens, run.labels) for run in runs]
        scopes = {run.label_count for run in runs if run.labels is not None}
        if scopes and any(run.labels is None for run in runs):
            raise ValidationError("some runs hold label maps and some do not")
    else:
        sizes = {grid.codebook_size for grid in grids}
        blocks = [([grid.tokens for grid in run], None) for _, run in groupby(grids, lambda g: g.tokens.shape)]
        scopes = set()
    if len(sizes) != 1:
        raise ValidationError(f"codebook size mismatch across grids: {sorted(sizes)}" if sizes else "empty grid list")
    if maps is not None:
        maps = [maps] * sum(len(tokens) for tokens, _ in blocks) if isinstance(maps, SemanticGrid) else maps
        scopes, start = {sem.label_count for sem in maps}, 0
        for i, (tokens, _) in enumerate(blocks):
            part, start = maps[start : start + len(tokens)], start + len(tokens)
            for sem in part:
                if sem.labels.shape != tokens[0].shape:
                    raise ValidationError(
                        "grid is {}x{} but semantic map is {}x{}".format(*tokens[0].shape, *sem.labels.shape)
                    )
            blocks[i] = (tokens, [sem.labels for sem in part])
    if cells is not None:
        blocks = [(tokens, [_cell_map(tokens[0].shape, cells)] * len(tokens)) for tokens, _ in blocks]
        scopes = {cells[0] * cells[1]}
    return sizes.pop(), scopes, blocks


def _chunks(blocks: list, limit: int, floor: int = 0) -> Iterator[tuple]:
    """(tokens, labels) slices of each block: limit // max(positions per
    grid, floor) consecutive grids at a time, or one."""
    for tokens, labels in blocks:
        step = max(1, limit // max(tokens[0].size if len(tokens) else 1, floor))
        for first in range(0, len(tokens), step):
            part = slice(first, first + step)
            yield tokens[part], None if labels is None else labels[part]


def _grid_counts(grids, maps=None) -> Iterator[np.ndarray]:
    """(grid, scope, token) counts of `_blocks(grids, maps)`, one array per chunk."""
    return _counts(*_blocks(grids, maps))


def _counts(size: int, scopes: set, blocks: list) -> Iterator[np.ndarray]:
    """(grid, scope, token) counts of blocks, one array per chunk of
    _CHUNK_POSITIONS // max(positions, scopes x codebook size) grids of one
    block, or one.  A position's scope is its label (0 without labels), and
    there are as many scopes as the largest label count."""
    scopes = max(scopes, default=1)
    if scopes * size > COUNT_CELL_LIMIT:
        raise ValidationError(f"{scopes} scopes x {size} tokens exceeds the limit {COUNT_CELL_LIMIT}")
    for tokens, labels in _chunks(blocks, _CHUNK_POSITIONS, scopes * size):
        n = len(tokens)
        # (grid, token, scope) codes, built in place and dropped before the yield.
        index = np.concatenate(tokens, dtype=np.int64).reshape(n, -1)
        index += (np.arange(n) * size)[:, None]
        if labels is not None:
            index *= scopes
            index += np.concatenate(labels).reshape(n, -1)
        index = np.bincount(index.reshape(-1), minlength=n * size * scopes)
        yield index.reshape(n, size, scopes).transpose(0, 2, 1)


def _smoothed(counts: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed rows and masses of (..., K) counts; a row with no
    observations and no smoothing stays all zero (an absent scope)."""
    masses = counts.sum(axis=-1).astype(np.float64)
    rows = np.zeros(counts.shape)
    present = (masses > 0.0) | (alpha > 0.0)
    rows[present] = smoothed_rows(counts[present].astype(np.float64), alpha)
    return rows, masses


def _estimates(size: int, scopes: set, blocks: list, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Each grid's own smoothed rows and masses of `_blocks`, as (grids,
    scopes, K) and (grids, scopes) arrays; maps must share one label count."""
    if len(scopes) > 1:
        raise ValidationError("scope layout mismatch across estimates")
    parts = [_smoothed(counts, alpha) for counts in _counts(size, scopes, blocks)]
    return np.concatenate([rows for rows, _ in parts]), np.concatenate([m for _, m in parts])


def _layout(scopes: set, cells) -> str | tuple[int, int]:
    return tuple(cells) if cells is not None else "regional" if scopes else "global"


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
    grids: Sequence[TokenGrid] | Sequence[GridRun],
    draws: int,
    smoothing_alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    maps: Sequence[SemanticGrid] | None = None,
    cells: tuple[int, int] | None = None,
) -> ScopedDistributions:
    """Uniformly average, in draw order, the estimates of ``draws`` grids
    drawn with replacement: global, per label of each grid's map in
    ``maps`` (a packed corpus, a list of `GridRun`s, holds its maps in its
    runs), or per cell of a (rows, cols) tiling.  Deterministic for a given
    seed; each distinct drawn grid is counted once, read from its run
    without a copy of the corpus.  The whole corpus must share one codebook
    size and, with maps, one label count."""
    alpha = _check_alpha(smoothing_alpha)
    check_draws(draws)
    if not grids:
        raise ValidationError("empty corpus")
    size, scopes, blocks = _blocks(grids, maps, cells)
    starts = np.cumsum([0] + [len(tokens) for tokens, _ in blocks])
    drawn, order = np.unique(draw_indices(int(starts[-1]), draws, seed), return_inverse=True)
    picked = []
    for (tokens, labels), first, stop in zip(blocks, starts, starts[1:]):
        rows = (drawn[(drawn >= first) & (drawn < stop)] - first).tolist()
        if rows:
            picked.append(([tokens[i] for i in rows], None if labels is None else [labels[i] for i in rows]))
    rows, masses = _estimates(size, scopes, picked, alpha)
    return _mean_rows(rows, masses, order, _layout(scopes, cells))


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
