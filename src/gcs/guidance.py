"""Ratio guidance: turn style and corpus statistics into per-step weights.

The guidance weight vector is the element-wise ratio of a style
distribution to the corpus distribution, optionally raised to a strength
exponent, and is multiplied into the model's per-step prior before
sampling.  Weight vectors are defined up to positive scale; canonical
storage normalizes the maximum entry to 1 so large exponents cannot
overflow.

A `LikelihoodTable` is one global vector plus a flat tuple of per-scope
vectors, mirroring how statistics are collected: globally (no scopes) or
as `ScopedDistributions`, whose per-label or per-cell layout
`scoped_likelihoods` carries over scope for scope (labels either side
never showed hold the global vector itself).  Its mode follows from those
fields, and `select_likelihood` resolves each step to one scope index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CategoricalDistribution, SemanticGrid, ValidationError, _readonly
from .distributions import ScopedDistributions, cell_of_position


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


def style_likelihood(
    style: CategoricalDistribution,
    dataset: CategoricalDistribution,
    exponent: float = 1.0,
) -> LikelihoodVector:
    """Weights (style[t] / dataset[t]) ** exponent, max-normalized.

    Both inputs must be strictly positive everywhere (guaranteed by
    smoothed estimation); exponent 0 yields identity guidance.
    """
    if style.codebook_size != dataset.codebook_size:
        raise ValidationError(
            f"codebook size mismatch: style {style.codebook_size} vs "
            f"dataset {dataset.codebook_size}"
        )
    _check_exponent(exponent)
    for name, dist in (("style", style), ("dataset", dataset)):
        if np.any(dist.probs <= 0.0):
            idx = int(np.argmax(dist.probs <= 0.0))
            raise ValidationError(
                f"{name} distribution has zero mass at index {idx}; "
                "re-estimate with smoothing_alpha > 0"
            )
    ratios = (style.probs / dataset.probs) ** float(exponent)
    return LikelihoodVector(codebook_size=style.codebook_size, weights=ratios)


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
    """Guidance weights plus the rule for picking one per step.

    ``scopes`` holds one vector per semantic label, or, when ``cells`` gives
    a (rows, cols) tiling, one per cell in row-major order.  With no scopes
    the global vector governs every step.
    """

    exponent: float
    global_vector: LikelihoodVector
    scopes: tuple[LikelihoodVector, ...] = ()
    cells: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        _check_exponent(self.exponent)
        object.__setattr__(self, "scopes", tuple(self.scopes))
        if self.cells is not None:
            rows, cols = self.cells
            if rows < 1 or cols < 1:
                raise ValidationError(f"cell tiling must be positive, got {rows}x{cols}")
            if len(self.scopes) != rows * cols:
                raise ValidationError(
                    f"a {rows}x{cols} tiling needs {rows * cols} cell vectors, "
                    f"got {len(self.scopes)}"
                )

    @property
    def mode(self) -> str:
        if self.cells is not None:
            return "spatial"
        return "regional" if self.scopes else "global"

    @property
    def codebook_size(self) -> int:
        return self.global_vector.codebook_size


def global_likelihood_table(
    style: CategoricalDistribution,
    dataset: CategoricalDistribution,
    exponent: float = 1.0,
) -> LikelihoodTable:
    """One guidance vector applied at every step."""
    return LikelihoodTable(float(exponent), style_likelihood(style, dataset, exponent))


def scoped_likelihoods(
    style: ScopedDistributions,
    dataset: ScopedDistributions,
    style_global: CategoricalDistribution,
    dataset_global: CategoricalDistribution,
    exponent: float = 1.0,
) -> LikelihoodTable:
    """Per-scope guidance vectors with a global fallback.

    Style and dataset must share one scope layout.  A scope gets its own
    vector only where both sides carry a distribution for it; a label
    either side never observed holds the global vector itself.
    """
    if style.mode != dataset.mode:
        raise ValidationError(
            f"style stats are {style.mode} but dataset stats are {dataset.mode}"
        )
    if style.cells != dataset.cells:
        raise ValidationError(
            "cell tiling mismatch: style {}x{} vs dataset {}x{}".format(
                *style.cells, *dataset.cells
            )
        )
    if len(style.scopes) != len(dataset.scopes):
        raise ValidationError(
            f"label count mismatch: style {len(style.scopes)} vs "
            f"dataset {len(dataset.scopes)}"
        )
    fallback = style_likelihood(style_global, dataset_global, exponent)
    vectors = tuple(
        fallback if s is None or d is None else style_likelihood(s, d, exponent)
        for s, d in zip(style.scopes, dataset.scopes)
    )
    return LikelihoodTable(float(exponent), fallback, vectors, style.cells)


# Names the benchmark harness calls; both scope kinds share one body.
regional_likelihoods = spatial_likelihoods = scoped_likelihoods


def select_likelihood(
    table: LikelihoodTable,
    position: tuple[int, int],
    semantics: SemanticGrid | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> LikelihoodVector:
    """The guidance vector governing one generation step.

    The scope is the semantic label at ``position`` for per-label tables,
    or the cell holding ``position`` for tiled tables, which requires the
    full grid shape.
    """
    if not table.scopes:
        return table.global_vector
    row, col = position
    if table.cells is None:
        if semantics is None:
            raise ValidationError("regional guidance requires a semantic map")
        height, width = semantics.height, semantics.width
    elif grid_shape is None:
        raise ValidationError("spatial guidance requires the generated grid's shape")
    else:
        height, width = grid_shape
    if not (0 <= row < height and 0 <= col < width):
        raise ValidationError(
            f"position ({row}, {col}) outside the {height}x{width} grid"
        )
    if table.cells is None:
        scope = int(semantics.labels[row, col])
        if scope >= len(table.scopes):
            raise ValidationError(
                f"label {scope} outside the table's {len(table.scopes)} labels"
            )
    else:
        cell_rows, cell_cols = table.cells
        cr, cc = cell_of_position(row, col, height, width, cell_rows, cell_cols)
        scope = cr * cell_cols + cc
    return table.scopes[scope]
