"""Core value types and checks: token and semantic grids, probability rows, strict JSON.

All types validate their invariants at construction and are immutable
afterwards (ndarray payloads are marked read-only), so instances can be
shared freely between threads and reused across sampling runs.  Values
must be integers: a grid copies them to int64, and a batch keeps an
integer array's type, so a sampled batch stays one byte per token at
K <= 128.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

PROB_SUM_TOL = 1e-9

# What decoding a JSON document of the wrong shape raises, whatever the shape.
MALFORMED_JSON = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


class ValidationError(ValueError):
    """A value violates a structural invariant or an operation precondition."""


class FormatError(ValidationError):
    """A serialized artifact is malformed (bad magic, version, truncation)."""


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """`object_pairs_hook` refusing a key repeated in one object, of which
    `json` would keep only the last value."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _typed(value, *kinds: type):
    """`value` if its JSON type is one of `kinds`; a bool is no int."""
    if type(value) not in kinds:
        raise ValueError(f"{value!r} is not {' or '.join(kind.__name__ for kind in kinds)}")
    return value


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# (least vocabulary size, value noun, vocabulary name) of each grid kind.
_TOKENS = (2, "token", "codebook size")
_LABELS = (1, "label", "label count")


def _grid_values(height: int, width: int, vocab: int, values, kind: tuple) -> np.ndarray:
    """One read-only int64 (height, width) copy of a grid's flat or 2-D
    values, checked in this order: dimensions, vocabulary size, shape,
    integers (unless of an integer or bool type), range."""
    least, noun, vocab_name = kind
    if height < 1 or width < 1:
        raise ValidationError(f"grid dimensions must be positive, got {height}x{width}")
    if vocab < least:
        raise ValidationError(f"{vocab_name} must be >= {least}, got {vocab}")
    arr = np.asarray(values)
    if arr.shape not in ((height * width,), (height, width)):
        raise ValidationError(
            f"{noun}s length mismatch: expected {height * width} ({height}x{width}), "
            f"got {arr.size if arr.ndim == 1 else arr.shape}"
        )
    arr = arr.reshape(height, width)
    if arr.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):
            wrong = arr.astype(np.int64) != arr
        if wrong.any():
            r, c = np.argwhere(wrong)[0]
            raise ValidationError(f"{noun} {arr[r, c]} at ({r}, {c}) is not an integer")
    arr = _readonly(np.array(arr, dtype=np.int64, order="C"))
    bad = (arr < 0) | (arr >= vocab)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValidationError(
            f"{noun} {arr[r, c]} out of range at ({r}, {c}); {vocab_name} is {vocab}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class TokenGrid:
    """An immutable height x width grid of codebook indices (row-major)."""

    height: int
    width: int
    codebook_size: int
    tokens: np.ndarray

    def __post_init__(self) -> None:
        tokens = _grid_values(self.height, self.width, self.codebook_size, self.tokens, _TOKENS)
        object.__setattr__(self, "tokens", tokens)

    @property
    def flat(self) -> np.ndarray:
        """Tokens as a 1-D row-major view."""
        return self.tokens.reshape(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenGrid):
            return NotImplemented
        return self.codebook_size == other.codebook_size and np.array_equal(self.tokens, other.tokens)


@dataclass(frozen=True, eq=False)
class TokenBatch(Sequence):
    """n equally shaped `TokenGrid`s held as one read-only (n, height, width) array.

    An integer array keeps its type (`batch_sample`'s is the smallest that
    holds -K); other values become int64.  The array is checked once; an
    invalid one fails as its first invalid grid's constructor does.  A
    read-only array is kept as it is, a writable one copied.  `batch[i]`
    builds grid i, with int64 tokens; a slice is a batch.
    """

    tokens: np.ndarray
    codebook_size: int

    def __post_init__(self) -> None:
        tokens = np.asarray(self.tokens)
        if tokens.ndim != 3:
            raise ValidationError(f"token batch must be 3-D, got shape {tokens.shape}")
        size, whole = self.codebook_size, tokens.dtype.kind in "biu"
        if not whole or tokens.size == 0 or size < 2 or not 0 <= tokens.min() <= tokens.max() < size:
            for block in tokens:
                TokenGrid(*tokens.shape[1:], size, block)
        tokens = tokens if whole else _readonly(tokens.astype(np.int64))
        if tokens.flags.writeable:
            tokens = _readonly(tokens.copy())
        object.__setattr__(self, "tokens", tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TokenBatch(self.tokens[index], self.codebook_size)
        return TokenGrid(*self.tokens.shape[1:], self.codebook_size, self.tokens[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenBatch):
            return NotImplemented
        return self.codebook_size == other.codebook_size and np.array_equal(self.tokens, other.tokens)


@dataclass(frozen=True, eq=False)
class SemanticGrid:
    """An immutable height x width grid of semantic labels (row-major)."""

    height: int
    width: int
    label_count: int
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = _grid_values(self.height, self.width, self.label_count, self.labels, _LABELS)
        object.__setattr__(self, "labels", labels)

    @property
    def flat(self) -> np.ndarray:
        return self.labels.reshape(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemanticGrid):
            return NotImplemented
        return self.label_count == other.label_count and np.array_equal(self.labels, other.labels)


@dataclass(frozen=True, eq=False)
class GridRun:
    """Consecutive equally shaped grids of one codebook, packed: a
    `TokenBatch`, and when known their label maps as one read-only integer
    array shaped like the batch's, with labels in [0, label_count)."""

    grids: TokenBatch
    labels: np.ndarray | None = None
    label_count: int | None = None

    def __post_init__(self) -> None:
        labels = self.labels
        if labels is not None and not (
            labels.shape == self.grids.tokens.shape and labels.dtype.kind in "iu" and not labels.flags.writeable
            and isinstance(self.label_count, int)
            and (not labels.size or 0 <= labels.min() <= labels.max() < self.label_count)
        ):
            raise ValidationError("run labels must be a read-only array of labels in [0, label_count), one per token")


def grid_pairs(items) -> list[tuple[TokenGrid, SemanticGrid | None]]:
    """(grid, semantics) pairs from a mix of bare grids (no semantics) and pairs."""
    return [(it, None) if isinstance(it, TokenGrid) else (it[0], it[1]) for it in items]


def require_same_shape(grid: TokenGrid, semantics: SemanticGrid) -> None:
    """Shared precondition for every operation pairing tokens with labels."""
    if (grid.height, grid.width) != (semantics.height, semantics.width):
        raise ValidationError(
            f"grid is {grid.height}x{grid.width} but semantic map is "
            f"{semantics.height}x{semantics.width}"
        )


def check_rows(probs: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Validate (R, K >= 2) probability rows with one observation mass each,
    and return which rows hold a distribution.  Entries are finite and
    >= 0; a row sums to 1 within PROB_SUM_TOL or is all zero with mass 0."""
    if probs.ndim != 2 or probs.shape[1] < 2 or masses.shape != probs.shape[:1]:
        raise ValidationError(
            f"need (rows, K >= 2) probabilities and one mass per row, "
            f"got {probs.shape} and {masses.shape}"
        )
    if not all(np.all(np.isfinite(a) & (a >= 0.0)) for a in (probs, masses)):
        raise ValidationError("probabilities and masses must be finite and >= 0")
    present = probs.any(axis=1)
    sums = probs.sum(axis=1)
    off = (np.abs(sums - 1.0) > PROB_SUM_TOL) & (present | (masses > 0.0))
    if off.any():
        raise ValidationError(
            f"probabilities sum to {float(sums[off][0])!r}, outside 1 +/- {PROB_SUM_TOL}"
        )
    return present
