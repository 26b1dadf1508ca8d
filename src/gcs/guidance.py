"""Ratio guidance: turn style and corpus statistics into per-step weights.

The guidance weight vector is the element-wise ratio of a style
distribution to the corpus distribution, optionally raised to a strength
exponent, and is multiplied into the model's per-step prior before
sampling.  Weight vectors are defined up to positive scale; canonical
storage normalizes the maximum entry to 1 so large exponents cannot
overflow.

A `LikelihoodTable` is one (scopes, K) weight array plus the scope layout
of the statistics it came from: one row per semantic label, or one per
cell of a (rows, cols) tiling.  `scoped_likelihoods` fills every table
from a style and a dataset `ScopedDistributions` of one layout; global
statistics give the 1x1 tiling of their one row.  `scope_index` is the
one position -> scope rule, elementwise on arrays: `select_likelihood`
checks one step's position and applies it, the sampler applies it to every
position of the grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SemanticGrid, ValidationError, _readonly
from .distributions import ScopedDistributions, cell_of_position, check_scope_layout


def rebalance_rows(probs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Multiply (R, K) prior rows by one row of guidance weights and
    renormalize each.

    All-ones weights return the rows themselves, so identity guidance is
    exact to the bit, not merely within rounding.
    """
    if probs.shape[1] != weights.size:
        raise ValidationError(f"codebook size mismatch: prior {probs.shape[1]} vs weights {weights.size}")
    if np.all(weights == 1.0):
        return probs
    scaled = probs * weights
    totals = scaled.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValidationError("rebalanced distribution has zero total mass")
    return scaled / totals


@dataclass(frozen=True, eq=False)
class LikelihoodTable:
    """Guidance weights per scope, plus the layout that picks one per step.

    ``weights`` (scopes, K) holds one row per semantic label when ``cells``
    is None, or one per cell of a (rows, cols) tiling in row-major order.
    Rows must be finite and > 0; each is stored divided by its maximum, in
    a read-only copy, so large exponents cannot overflow.  The identity
    table, an unguided run's, is one all-ones row over the 1x1 tiling.
    """

    weights: np.ndarray
    cells: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] < 2:
            raise ValidationError(f"guidance weights must be (scopes, K >= 2), got shape {w.shape}")
        bad = ~(np.isfinite(w) & (w > 0.0))
        if bad.any():
            scope, idx = np.argwhere(bad)[0]
            raise ValidationError(
                f"guidance weight {w[scope, idx]} at index {idx} of scope {scope} is not finite "
                "and > 0; estimate the input distributions with smoothing_alpha > 0"
            )
        check_scope_layout(np.ones(len(w), dtype=bool), self.cells, "vectors")
        object.__setattr__(self, "weights", _readonly(w / w.max(axis=1, keepdims=True)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LikelihoodTable):
            return NotImplemented
        return self.cells == other.cells and np.array_equal(self.weights, other.weights)


def scoped_likelihoods(
    style: ScopedDistributions,
    dataset: ScopedDistributions,
    style_global: ScopedDistributions | None,
    dataset_global: ScopedDistributions | None,
    exponent: float = 1.0,
) -> LikelihoodTable:
    """Guidance weights for every scope of one layout, with a global fallback.

    Style and dataset must share one layout.  A scope gets its own row of
    ratios where both sides carry a distribution for it; a label either
    side never observed holds the row of the global statistics
    ``style_global`` and ``dataset_global``, which may be None when no label
    is missing.  Global and tiled statistics never miss a scope; global
    guidance is the 1x1 tiling of its one row.
    """
    if not np.isfinite(exponent) or exponent < 0.0:
        raise ValidationError(f"guidance exponent must be finite and >= 0, got {exponent}")
    if style.kind != dataset.kind:
        raise ValidationError(
            f"style stats are {style.kind} but dataset stats are {dataset.kind}; "
            "regenerate one side so the kinds match"
        )
    if style.cells != dataset.cells:
        raise ValidationError(
            "cell tiling mismatch: style {}x{} vs dataset {}x{}".format(
                *style.cells, *dataset.cells
            )
        )
    if len(style.probs) != len(dataset.probs):
        raise ValidationError(
            f"label count mismatch: style {len(style.probs)} vs "
            f"dataset {len(dataset.probs)}"
        )
    if style.codebook_size != dataset.codebook_size:
        raise ValidationError(
            f"codebook size mismatch: style {style.codebook_size} vs "
            f"dataset {dataset.codebook_size}"
        )
    both = style.present & dataset.present
    for name, stats in (("style", style), ("dataset", dataset)):
        zeros = stats.probs[both] <= 0.0
        if zeros.any():
            raise ValidationError(
                f"{name} distribution has zero mass at index {np.argwhere(zeros)[0, 1]}; "
                "re-estimate with smoothing_alpha > 0"
            )
    weights = np.empty(style.probs.shape)
    weights[both] = (style.probs[both] / dataset.probs[both]) ** float(exponent)
    if not both.all():
        if style_global is None or dataset_global is None:
            raise ValidationError(
                "per-label guidance requires the global style and dataset distributions"
            )
        weights[~both] = scoped_likelihoods(style_global, dataset_global, None, None, exponent).weights
    return LikelihoodTable(weights, style.cells)


# Names the benchmark harness calls; every layout shares one body.
regional_likelihoods = spatial_likelihoods = scoped_likelihoods


def global_likelihood_table(style, dataset, exponent=1.0) -> LikelihoodTable:
    return scoped_likelihoods(style, dataset, None, None, exponent)


def scope_index(
    table: LikelihoodTable,
    position: tuple,
    semantics: SemanticGrid | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> np.ndarray | int:
    """Row of ``table.weights`` for each position (row, col).

    The scope is the semantic label at the position for per-label tables,
    or the row-major index of the cell holding it for tiled ones, which
    requires the full grid shape.  ``row`` and ``col`` are in-grid integers
    or integer arrays of one shape; the result has that shape.
    """
    row, col = position
    if table.cells is None:
        if semantics is None:
            raise ValidationError("regional guidance requires a semantic map")
        labels = semantics.labels[row, col]
        if np.count_nonzero(labels >= len(table.weights)):
            raise ValidationError(
                f"label {np.max(labels)} outside the table's {len(table.weights)} labels"
            )
        return labels
    if grid_shape is None:
        raise ValidationError(
            "guidance over a {}x{} tiling requires the generated grid's shape".format(*table.cells)
        )
    cell_rows, cell_cols = table.cells
    cr, cc = cell_of_position(row, col, *grid_shape, cell_rows, cell_cols)
    return cr * cell_cols + cc


def select_likelihood(
    table: LikelihoodTable,
    position: tuple[int, int],
    semantics: SemanticGrid | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """The guidance weights of one generation step inside the grid (see `scope_index`)."""
    shape = semantics.labels.shape if table.cells is None and semantics is not None else grid_shape
    row, col = position
    if shape is not None and not (0 <= row < shape[0] and 0 <= col < shape[1]):
        raise ValidationError(f"position ({row}, {col}) outside the {shape[0]}x{shape[1]} grid")
    return table.weights[int(scope_index(table, position, semantics, grid_shape))]
