"""Autoregressive next-token priors over raster-ordered grids.

The generation loop only needs one capability from a model: given the
already-generated prefix (raster order: row-major, left to right, top to
bottom), produce a distribution over the next token.  `MarkovGridPrior` is
the trainable reference implementation: a count table keyed by a small
template of previously generated neighbor tokens, optionally also keyed by
the semantic label at the current position.  Out-of-grid template slots map
to a reserved boundary marker so border statistics never mix with token
statistics.

Turning a prior row into a step posterior (guidance, temperature, top-k)
and the exact chain enumeration built on it live in `sampler.py`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .core import (
    CategoricalDistribution,
    SemanticGrid,
    TokenGrid,
    ValidationError,
    require_same_shape,
)
from .distributions import smoothed_distribution

BOUNDARY = -1

OFFSET_NAMES = {
    "left": (0, -1),
    "above": (-1, 0),
    "above-left": (-1, -1),
    "above-right": (-1, 1),
}
DEFAULT_CONTEXT = (OFFSET_NAMES["left"], OFFSET_NAMES["above"])


@runtime_checkable
class PriorModel(Protocol):
    """Anything that can play the autoregressive prior role."""

    codebook_size: int
    conditional: bool

    def next_distribution(
        self,
        prefix: Sequence[int],
        height: int,
        width: int,
        position: tuple[int, int],
        semantics: SemanticGrid | None = None,
    ) -> CategoricalDistribution: ...


def parse_context_template(spec: str) -> tuple[tuple[int, int], ...]:
    """Parse a comma-separated offset list such as "left,above"."""
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise ValidationError("empty context template")
    offsets = []
    for name in names:
        if name not in OFFSET_NAMES:
            raise ValidationError(
                f"unknown context offset {name!r}; "
                f"choose from {sorted(OFFSET_NAMES)}"
            )
        offsets.append(OFFSET_NAMES[name])
    return validate_context_template(tuple(offsets))


def validate_context_template(
    offsets: Sequence[tuple[int, int]],
) -> tuple[tuple[int, int], ...]:
    """Offsets must be unique and strictly earlier in raster order."""
    result = []
    for dr, dc in offsets:
        if not (dr < 0 or (dr == 0 and dc < 0)):
            raise ValidationError(
                f"context offset ({dr}, {dc}) is not strictly earlier in raster order"
            )
        if (dr, dc) in result:
            raise ValidationError(f"duplicate context offset ({dr}, {dc})")
        result.append((int(dr), int(dc)))
    return tuple(result)


@dataclass(frozen=True, eq=False)
class MarkovGridPrior:
    """Count-based conditional next-token model.

    ``counts`` maps (context token tuple, label) to a per-token count
    vector; the label slot is None for unconditional models.  Distributions
    are additively smoothed, so with smoothing_alpha > 0 every context
    (including contexts never seen in training) has full support.
    """

    codebook_size: int
    context: tuple[tuple[int, int], ...] = DEFAULT_CONTEXT
    conditional: bool = False
    label_count: int | None = None
    smoothing_alpha: float = 0.5
    counts: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.codebook_size < 2:
            raise ValidationError(
                f"codebook size must be >= 2, got {self.codebook_size}"
            )
        object.__setattr__(self, "context", validate_context_template(self.context))
        if self.smoothing_alpha < 0 or not np.isfinite(self.smoothing_alpha):
            raise ValidationError(
                f"smoothing alpha must be finite and >= 0, got {self.smoothing_alpha}"
            )
        if self.conditional:
            if self.label_count is None or self.label_count < 1:
                raise ValidationError("conditional model requires a positive label_count")
        for (ctx, label), vec in self.counts.items():
            if len(ctx) != len(self.context):
                raise ValidationError(
                    f"count table key {ctx} does not match the context template"
                )
            if (label is None) == self.conditional:
                raise ValidationError(
                    "count table labels are inconsistent with the conditional flag"
                )
            if np.asarray(vec).shape != (self.codebook_size,):
                raise ValidationError("count vector length mismatch")

    def context_at(
        self, prefix: Sequence[int], height: int, width: int, row: int, col: int
    ) -> tuple[int, ...]:
        """Template token values at a position, boundary-marked off grid."""
        out = []
        for dr, dc in self.context:
            rr, cc = row + dr, col + dc
            if 0 <= rr < height and 0 <= cc < width:
                out.append(int(prefix[rr * width + cc]))
            else:
                out.append(BOUNDARY)
        return tuple(out)

    def distribution_for_context(
        self, context: tuple[int, ...], label: int | None
    ) -> CategoricalDistribution:
        """Smoothed count ratio for one (context, label) state, memoized.

        Every context absent from `counts` has the same smoothed
        distribution, so each label caches one shared object for all of them.
        """
        key = (context, label)
        if key not in self.counts:
            if self.smoothing_alpha == 0.0:
                raise ValidationError(
                    f"context {context} (label {label}) was never observed and "
                    "smoothing_alpha is 0; the distribution is undefined"
                )
            key = (None, label)
        cached = self._cache.get(key)
        if cached is None:
            vec = self.counts.get(key)
            if vec is None:
                vec = np.zeros(self.codebook_size)
            cached = smoothed_distribution(vec, self.smoothing_alpha)
            self._cache[key] = cached
        return cached

    def next_distribution(
        self,
        prefix: Sequence[int],
        height: int,
        width: int,
        position: tuple[int, int],
        semantics: SemanticGrid | None = None,
    ) -> CategoricalDistribution:
        row, col = position
        expected = divmod(len(prefix), width)
        if expected != (row, col):
            raise ValidationError(
                f"position {position} is not the first unfilled raster position "
                f"{expected} for a prefix of length {len(prefix)}"
            )
        if not (0 <= row < height and 0 <= col < width):
            raise ValidationError(f"position {position} outside {height}x{width} grid")
        label = None
        if self.conditional:
            if semantics is None:
                raise ValidationError("conditional model requires a semantic map")
            label = int(semantics.labels[row, col])
        ctx = self.context_at(prefix, height, width, row, col)
        return self.distribution_for_context(ctx, label)


def train_markov_prior(
    corpus: Sequence[TokenGrid | tuple[TokenGrid, SemanticGrid | None]],
    context: Sequence[tuple[int, int]] = DEFAULT_CONTEXT,
    conditional: bool = False,
    smoothing_alpha: float = 0.5,
) -> MarkovGridPrior:
    """Accumulate (context, label) -> next-token counts over a corpus.

    Purely deterministic: the tables depend only on the corpus content, not
    on iteration order.
    """
    context = validate_context_template(context)
    pairs: list[tuple[TokenGrid, SemanticGrid | None]] = []
    for item in corpus:
        if isinstance(item, TokenGrid):
            pairs.append((item, None))
        else:
            pairs.append((item[0], item[1]))
    if not pairs:
        raise ValidationError("empty training corpus")
    size = pairs[0][0].codebook_size
    label_count = None
    for grid, sem in pairs:
        if grid.codebook_size != size:
            raise ValidationError("training corpus mixes codebook sizes")
        if conditional:
            if sem is None:
                raise ValidationError(
                    "conditional training requires a semantic map for every grid"
                )
            require_same_shape(grid, sem)
            if label_count is None:
                label_count = sem.label_count
            elif sem.label_count != label_count:
                raise ValidationError("training corpus mixes label counts")

    counts = _count_tables(pairs, context, conditional, size, label_count)
    return MarkovGridPrior(
        codebook_size=size,
        context=context,
        conditional=conditional,
        label_count=label_count,
        smoothing_alpha=smoothing_alpha,
        counts=counts,
    )


def _shifted_tokens(tokens: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Token grid displaced by (dr, dc), boundary-marked where undefined."""
    height, width = tokens.shape
    out = np.full((height, width), BOUNDARY, dtype=np.int64)
    r0, r1 = max(0, -dr), min(height, height - dr)
    c0, c1 = max(0, -dc), min(width, width - dc)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = tokens[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    return out


def _count_tables(
    pairs: Sequence[tuple[TokenGrid, SemanticGrid | None]],
    context: tuple[tuple[int, int], ...],
    conditional: bool,
    size: int,
    label_count: int | None,
) -> dict:
    """One flat encode-sort-count pass over every position of every grid."""
    base = size + 1  # token values shifted by one so the boundary marker fits
    slots = len(context)
    n_labels = label_count if conditional else 1
    # Guard the flat encoding against int64 overflow; fall back to a plain
    # per-position loop for enormous codebooks with wide templates.
    if (base**slots) * n_labels * size >= 2**62:
        return _count_tables_slow(pairs, context, conditional)

    strides = [base**i for i in range(slots)]
    chunks = []
    for grid, sem in pairs:
        code = np.zeros(grid.height * grid.width, dtype=np.int64)
        for stride, (dr, dc) in zip(strides, context):
            code += (_shifted_tokens(grid.tokens, dr, dc).reshape(-1) + 1) * stride
        if conditional:
            code += sem.flat * (base**slots)
        chunks.append(code * size + grid.flat)
    combined = np.concatenate(chunks)
    values, freq = np.unique(combined, return_counts=True)

    counts: dict = {}
    for value, n in zip(values.tolist(), freq.tolist()):
        code, token = divmod(value, size)
        if conditional:
            code, label = code % (base**slots), code // (base**slots)
        else:
            label = None
        ctx = []
        for _ in range(slots):
            code, digit = divmod(code, base)
            ctx.append(digit - 1)
        key = (tuple(ctx), label)
        vec = counts.get(key)
        if vec is None:
            vec = np.zeros(size, dtype=np.int64)
            counts[key] = vec
        vec[token] += n
    return counts


def _count_tables_slow(
    pairs: Sequence[tuple[TokenGrid, SemanticGrid | None]],
    context: tuple[tuple[int, int], ...],
    conditional: bool,
) -> dict:
    counts: dict = {}
    for grid, sem in pairs:
        flat = grid.flat
        for row in range(grid.height):
            for col in range(grid.width):
                ctx = []
                for dr, dc in context:
                    rr, cc = row + dr, col + dc
                    if 0 <= rr < grid.height and 0 <= cc < grid.width:
                        ctx.append(int(flat[rr * grid.width + cc]))
                    else:
                        ctx.append(BOUNDARY)
                label = int(sem.labels[row, col]) if conditional else None
                key = (tuple(ctx), label)
                vec = counts.get(key)
                if vec is None:
                    vec = np.zeros(grid.codebook_size, dtype=np.int64)
                    counts[key] = vec
                vec[int(flat[row * grid.width + col])] += 1
    return counts


def _table_sort_key(item) -> tuple:
    (ctx, label), _vec = item
    return (tuple(ctx), -1 if label is None else label)


def save_model(path: str | Path, model: MarkovGridPrior) -> None:
    """Write the model as deterministic JSON (stable table and count order)."""
    tables = []
    for (ctx, label), vec in sorted(model.counts.items(), key=_table_sort_key):
        entry = {
            "context": ["B" if t == BOUNDARY else int(t) for t in ctx],
            "label": None if label is None else int(label),
            "counts": {str(t): int(n) for t, n in enumerate(vec) if n > 0},
        }
        tables.append(entry)
    payload = {
        "codebook_size": model.codebook_size,
        "context": [[dr, dc] for dr, dc in model.context],
        "conditional": model.conditional,
        "label_count": model.label_count,
        "smoothing_alpha": model.smoothing_alpha,
        "tables": tables,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def load_model(path: str | Path) -> MarkovGridPrior:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid model JSON ({exc})") from exc
    try:
        size = int(payload["codebook_size"])
        context = tuple((int(dr), int(dc)) for dr, dc in payload["context"])
        conditional = bool(payload["conditional"])
        label_count = payload.get("label_count")
        alpha = float(payload["smoothing_alpha"])
        counts: dict = {}
        for entry in payload["tables"]:
            ctx = tuple(
                BOUNDARY if t == "B" else int(t) for t in entry["context"]
            )
            label = entry["label"]
            vec = np.zeros(size, dtype=np.int64)
            for token, n in entry["counts"].items():
                vec[int(token)] = int(n)
            counts[(ctx, None if label is None else int(label))] = vec
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed model JSON ({exc})") from exc
    return MarkovGridPrior(
        codebook_size=size,
        context=context,
        conditional=conditional,
        label_count=None if label_count is None else int(label_count),
        smoothing_alpha=alpha,
        counts=counts,
    )
