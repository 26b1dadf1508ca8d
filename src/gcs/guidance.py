"""Ratio guidance: turn style and corpus statistics into per-step weights.

The guidance weight vector is the element-wise ratio of a style
distribution to the corpus distribution, optionally raised to a strength
exponent, and is multiplied into the model's per-step prior before
sampling.  Weight vectors are defined up to positive scale; canonical
storage normalizes the maximum entry to 1 so large exponents cannot
overflow.

A `LikelihoodTable` is a tuple of per-scope vectors plus the scope layout
of the statistics it came from: one vector per semantic label, or one per
cell of a (rows, cols) tiling.  `scoped_likelihoods` builds every table
from a style and a dataset `ScopedDistributions` of one layout; global
statistics give the 1x1 tiling of their one vector.  `scope_index` is the
one position -> scope rule, elementwise on arrays: `select_likelihood`
applies it to one step, `batch_sample` to every position of the grid at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SemanticGrid, ValidationError, _readonly
from .distributions import ScopedDistributions, cell_of_position, check_scope_layout


@dataclass(frozen=True, eq=False)
class LikelihoodVector:
    """Strictly positive guidance weights over the codebook, max-normalized."""

    codebook_size: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.codebook_size < 2:
            raise ValidationError(
                f"codebook size must be >= 2, got {self.codebook_size}"
            )
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size != self.codebook_size:
            raise ValidationError(
                f"weight vector must have length {self.codebook_size}, "
                f"got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValidationError("guidance weights contain non-finite entries")
        if np.any(w <= 0.0):
            idx = int(np.argmax(w <= 0.0))
            raise ValidationError(
                f"guidance weight {w[idx]} at index {idx} is not strictly positive; "
                "estimate the input distributions with smoothing_alpha > 0"
            )
        object.__setattr__(self, "weights", _readonly(w / w.max()))

    @property
    def is_identity(self) -> bool:
        """True when every weight is 1, i.e. rebalancing is a no-op."""
        return bool(np.all(self.weights == 1.0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LikelihoodVector):
            return NotImplemented
        return self.codebook_size == other.codebook_size and bool(
            np.array_equal(self.weights, other.weights)
        )


def _check_exponent(exponent: float) -> None:
    if not np.isfinite(exponent) or exponent < 0.0:
        raise ValidationError(
            f"guidance exponent must be finite and >= 0, got {exponent}"
        )


def rebalance_rows(probs: np.ndarray, likelihood: LikelihoodVector) -> np.ndarray:
    """Multiply (R, K) prior rows by guidance weights and renormalize each.

    All-ones weight vectors return the rows themselves, so identity
    guidance is exact to the bit, not merely within rounding.
    """
    if probs.shape[1] != likelihood.codebook_size:
        raise ValidationError(
            f"codebook size mismatch: prior {probs.shape[1]} vs "
            f"weights {likelihood.codebook_size}"
        )
    if likelihood.is_identity:
        return probs
    scaled = probs * likelihood.weights
    totals = scaled.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValidationError("rebalanced distribution has zero total mass")
    return scaled / totals


@dataclass(frozen=True)
class LikelihoodTable:
    """Guidance weights per scope, plus the layout that picks one per step.

    ``scopes`` holds one vector per semantic label when ``cells`` is None,
    or one per cell of a (rows, cols) tiling in row-major order.
    """

    exponent: float
    scopes: tuple[LikelihoodVector, ...]
    cells: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        _check_exponent(self.exponent)
        object.__setattr__(self, "scopes", tuple(self.scopes))
        check_scope_layout(self.scopes, self.cells, "vectors")


def scoped_likelihoods(
    style: ScopedDistributions,
    dataset: ScopedDistributions,
    style_global: ScopedDistributions | None,
    dataset_global: ScopedDistributions | None,
    exponent: float = 1.0,
) -> LikelihoodTable:
    """Guidance vectors for every scope of one layout, with a global fallback.

    Style and dataset must share one layout.  A scope gets its own vector
    where both sides carry a distribution for it; a label either side never
    observed holds the vector of the global statistics ``style_global`` and
    ``dataset_global``, which may be None when no label is missing.  Global
    and tiled statistics never miss a scope; global guidance is the 1x1
    tiling of its one vector.
    """
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
    _check_exponent(exponent)
    both = style.present & dataset.present
    for name, stats in (("style", style), ("dataset", dataset)):
        zeros = stats.probs[both] <= 0.0
        if zeros.any():
            raise ValidationError(
                f"{name} distribution has zero mass at index {np.argwhere(zeros)[0, 1]}; "
                "re-estimate with smoothing_alpha > 0"
            )
    ratios = (style.probs[both] / dataset.probs[both]) ** float(exponent)
    vectors = iter([LikelihoodVector(style.codebook_size, row) for row in ratios])
    fallback = None
    if not both.all():
        if style_global is None or dataset_global is None:
            raise ValidationError(
                "per-label guidance requires the global style and dataset distributions"
            )
        fallback = scoped_likelihoods(style_global, dataset_global, None, None, exponent).scopes[0]
    scopes = tuple(next(vectors) if found else fallback for found in both.tolist())
    return LikelihoodTable(float(exponent), scopes, style.cells)


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
    """Index into ``table.scopes`` of each position (row, col).

    The scope is the semantic label at the position for per-label tables,
    or the row-major index of the cell holding it for tiled ones, which
    requires the full grid shape.  ``row`` and ``col`` may be integers or
    integer arrays of one shape; the result has that shape.
    """
    row, col = position
    if table.cells is None:
        if semantics is None:
            raise ValidationError("regional guidance requires a semantic map")
        height, width = semantics.height, semantics.width
    elif grid_shape is None:
        raise ValidationError(
            "guidance over a {}x{} tiling requires the generated grid's shape".format(*table.cells)
        )
    else:
        height, width = grid_shape
    outside = (row < 0) | (row >= height) | (col < 0) | (col >= width)
    if np.count_nonzero(outside):
        i = np.argmax(outside)
        raise ValidationError(
            f"position ({np.ravel(row)[i]}, {np.ravel(col)[i]}) outside the {height}x{width} grid"
        )
    if table.cells is None:
        labels = semantics.labels[row, col]
        if np.count_nonzero(labels >= len(table.scopes)):
            raise ValidationError(
                f"label {np.max(labels)} outside the table's {len(table.scopes)} labels"
            )
        return labels
    cell_rows, cell_cols = table.cells
    cr, cc = cell_of_position(row, col, height, width, cell_rows, cell_cols)
    return cr * cell_cols + cc


def select_likelihood(
    table: LikelihoodTable,
    position: tuple[int, int],
    semantics: SemanticGrid | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> LikelihoodVector:
    """The guidance vector governing one generation step (see `scope_index`)."""
    return table.scopes[int(scope_index(table, position, semantics, grid_shape))]
