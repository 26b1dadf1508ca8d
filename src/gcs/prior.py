"""The count-based Markov prior over raster-ordered grids.

`MarkovGridPrior` gives the next token's distribution from the prefix
generated so far (raster order: row-major, left to right, top to bottom)
as next-token counts per state, a state being the tokens at a small
template of previously generated neighbors, optionally with the semantic
label at the current position.  Out-of-grid template slots map to a
reserved boundary marker so border statistics never mix with token
statistics.

The states are arrays: one row of contexts, label and counts each, and one
matrix of smoothed rows whose last row serves every unseen context.
Training packs each corpus position's state and token into one code and
counts the codes in chunks of whole grids, adding each chunk's sparse
(code, count) pairs into a running total, so its memory does not grow
with the corpus.
`codes` maps a batch of contexts to such codes, each below the length of
a code -> state array, by a dense mixed radix or by sorted int64 codes;
`states` looks the codes up, and `state_of` is the per-step scalar lookup.
Turning prior rows into step posteriors (guidance, temperature, top-k) and
the exact chain enumeration built on them live in `sampler.py`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    MALFORMED_JSON, GridRun, SemanticGrid, TokenGrid, ValidationError, _readonly, _typed, pack_grids, unique_keys,
)
from .distributions import DEFAULT_ALPHA, ScopedDistributions, _chunks, smoothed_rows
from .formats import GRID_VOCAB_LIMIT

# Largest states x codebook size a model file may declare; it sizes two matrices.
MODEL_CELL_LIMIT = 2**26

BOUNDARY = -1

OFFSET_NAMES = {
    "left": (0, -1),
    "above": (-1, 0),
    "above-left": (-1, -1),
    "above-right": (-1, 1),
}
DEFAULT_CONTEXT = (OFFSET_NAMES["left"], OFFSET_NAMES["above"])

# Training codes and counts the corpus in chunks of whole grids of about
# this many positions (a single larger grid is a chunk of its own).
_CHUNK_POSITIONS = 2**16

# `save_model` encodes and writes this many table entries at a time.
_SAVE_ENTRIES = 1024

# `states` looks codes up in a dense array (2 MiB of int64) up to this many
# codes, and in the sorted codes of the states beyond it.
DENSE_STATE_CODES = 2**18


def parse_context_template(spec: str) -> tuple[tuple[int, int], ...]:
    """Parse a comma-separated offset list such as "left,above"."""
    names = [part.strip() for part in spec.split(",") if part.strip()]
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
    """Offsets must be non-empty, unique, strictly earlier in raster order and
    no longer than `GRID_VOCAB_LIMIT` on either axis."""
    if not offsets:
        raise ValidationError("empty context template")
    result = []
    for dr, dc in offsets:
        if max(abs(dr), abs(dc)) > GRID_VOCAB_LIMIT:
            raise ValidationError(
                f"context offset ({dr}, {dc}) exceeds the limit {GRID_VOCAB_LIMIT}"
            )
        if not (dr < 0 or (dr == 0 and dc < 0)):
            raise ValidationError(
                f"context offset ({dr}, {dc}) is not strictly earlier in raster order"
            )
        if (dr, dc) in result:
            raise ValidationError(f"duplicate context offset ({dr}, {dc})")
        result.append((int(dr), int(dc)))
    return tuple(result)


def _frozen(values) -> np.ndarray:
    """A read-only int64 array of `values`; a caller's writable array is copied."""
    arr = np.asarray(values, np.int64)
    return _readonly(arr.copy() if arr is values and arr.flags.writeable else arr)


@dataclass(frozen=True, eq=False)
class MarkovGridPrior:
    """Count-based conditional next-token model.

    The S trained states are rows: ``contexts`` (S, slots) holds each
    state's template tokens, ``labels`` (S,) its semantic label (-1 in an
    unconditional model) and ``counts`` (S, K) its next-token counts.
    ``smoothed`` holds their additively smoothed rows plus, when
    smoothing_alpha > 0, one last row for zero observations that every
    context absent from the states shares.  With smoothing_alpha 0, reaching
    an unseen context is an error.  A read-only int64 table is kept as it
    is, a caller's writable array copied.
    """

    codebook_size: int
    context: tuple[tuple[int, int], ...] = DEFAULT_CONTEXT
    conditional: bool = False
    label_count: int | None = None
    smoothing_alpha: float = DEFAULT_ALPHA
    contexts: np.ndarray | None = None
    labels: np.ndarray | None = None
    counts: np.ndarray | None = None
    smoothed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        size = self.codebook_size
        if size < 2:
            raise ValidationError(f"codebook size must be >= 2, got {size}")
        object.__setattr__(self, "context", validate_context_template(self.context))
        alpha = self.smoothing_alpha
        if alpha < 0 or not np.isfinite(alpha):
            raise ValidationError(
                f"smoothing alpha must be finite and >= 0, got {alpha}"
            )
        if self.conditional and (self.label_count is None or self.label_count < 1):
            raise ValidationError("conditional model requires a positive label_count")
        slots = len(self.context)
        counts = _frozen(np.zeros((0, size)) if self.counts is None else self.counts)
        if counts.ndim != 2 or counts.shape[1] != size:
            raise ValidationError("count vector length mismatch")
        if counts.min(initial=0) < 0:
            raise ValidationError("next-token counts must be >= 0")
        # Float totals are within a factor 2 of the exact ones, which only
        # the rows that could reach 2**63 sum exactly.
        for state in np.flatnonzero(counts.sum(axis=1, dtype=np.float64) >= 2.0**62).tolist():
            if sum(counts[state].tolist()) >= 2**63:
                raise ValidationError(f"the next-token counts of state {state} overflow int64 in total")
        contexts = _frozen(np.zeros((0, slots)) if self.contexts is None else self.contexts)
        labels = _frozen(np.full(len(counts), -1) if self.labels is None else self.labels)
        if contexts.shape != (len(counts), slots) or not (
            (contexts >= BOUNDARY) & (contexts < size)
        ).all():
            raise ValidationError(
                "count table contexts do not fit the context template and codebook"
            )
        unlabelled = labels < 0
        if labels.shape != (len(counts),) or (
            (unlabelled | (labels >= self.label_count)).any()
            if self.conditional
            else not unlabelled.all()
        ):
            raise ValidationError(
                "count table labels are inconsistent with the conditional flag or label_count"
            )
        keys = np.column_stack((contexts, labels))[np.lexsort((labels, *contexts.T))]
        if (keys[1:] == keys[:-1]).all(axis=1).any():
            raise ValidationError("a (context, label) state appears more than once")
        # The trained rows, then with smoothing the zero-count row every unseen context shares.
        smoothed = smoothed_rows(counts, alpha, np.empty((len(counts) + (alpha > 0), size)))
        for name, value in zip(
            ("counts", "contexts", "labels", "smoothed"), (counts, contexts, labels, _readonly(smoothed))
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def _state_ids(self) -> dict:
        """(context tuple, label or None) -> row of each trained state."""
        labels = self.labels.tolist() if self.conditional else [None] * len(self.labels)
        contexts = map(tuple, self.contexts.tolist())
        return {key: i for i, key in enumerate(zip(contexts, labels))}

    def state_of(self, context: tuple[int, ...], label: int | None) -> int:
        """Row of `smoothed` for one (context, label); unseen ones share the last."""
        state = self._state_ids.get((context, label))
        if state is not None:
            return state
        if self.smoothing_alpha == 0.0:
            raise ValidationError(
                f"context {context} (label {label}) was never observed and "
                "smoothing_alpha is 0; the distribution is undefined"
            )
        return len(self.counts)

    def _codes(self, columns: list, labels, ranks: dict) -> tuple[np.ndarray, int]:
        """Mixed-radix codes of template token rows (digits token + 1), then
        label digits, ranked by `_rank` where they would overflow int64 and
        at the end where they could pass DENSE_STATE_CODES; returns codes
        and bound.  Writes only the fresh int64 array it builds codes in."""
        # The label radix keeps a spare digit, label_count, for labels no
        # state has; without a label radix, zip drops the label digit.
        radices = [self.codebook_size + 1] * len(columns)
        radices += [self.label_count + 1] if self.conditional else []
        code, bound = np.add(columns[0], 1, dtype=np.int64), radices[0]
        for i, (digit, radix) in enumerate(zip([*columns[1:], labels], radices[1:]), 1):
            if bound * radix > 2**63:
                code, bound = _rank(ranks, i, code)
            code *= radix
            code += digit
            if i < len(columns):
                code += 1
            bound *= radix
        if bound > DENSE_STATE_CODES:
            code, bound = _rank(ranks, len(radices), code)
        return code, bound

    @cached_property
    def _code_index(self) -> tuple[dict, np.ndarray]:
        """The rank tables of the states' codes, and the state at each code."""
        ranks, unseen = {}, len(self.counts)
        code, bound = self._codes(list(self.contexts.T), self.labels, ranks)
        state = np.full(bound, unseen, dtype=np.int64)
        state[code] = np.arange(unseen)
        return ranks, state

    def codes(self, columns: Sequence[np.ndarray], labels: int | np.ndarray | None) -> np.ndarray:
        """The (context, label) code of each element, in [0, len(_code_index[1])).

        columns[j] holds template slot j of each element, a token or
        BOUNDARY; `labels` (None when unconditional) is a label or an array
        of them that broadcasts against the columns.  A label outside
        [0, label_count) matches no state.  Returns a fresh int64 array.
        """
        digits = None
        if self.conditional:
            labels = np.asarray(labels)
            digits = np.where((labels >= 0) & (labels < self.label_count), labels, self.label_count)
        return self._codes(columns, digits, self._code_index[0])[0]

    def states(
        self, columns: Sequence[np.ndarray], labels: int | np.ndarray | None
    ) -> np.ndarray:
        """`state_of` for a batch: the row of `smoothed` of each element's
        `codes`, in a fresh array."""
        states = self._code_index[1][self.codes(columns, labels)]
        if self.smoothing_alpha == 0.0 and (states == len(self.counts)).any():
            first = np.unravel_index(np.argmax(states == len(self.counts)), states.shape)
            context = tuple(int(column[first]) for column in columns)
            label = int(np.broadcast_to(labels, states.shape)[first]) if self.conditional else None
            # The scalar lookup raises its "never observed" error for it.
            self.state_of(context, label)
        return states

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
    ) -> ScopedDistributions:
        """Smoothed count ratio for one (context, label) state, as global
        statistics whose mass is the state's observation count."""
        state = self.state_of(context, label)
        mass = self.counts[state].sum() if state < len(self.counts) else 0.0
        return ScopedDistributions(self.smoothed[state : state + 1], [mass], "global")

    def next_distribution(
        self,
        prefix: Sequence[int],
        height: int,
        width: int,
        position: tuple[int, int],
        semantics: SemanticGrid | None = None,
    ) -> ScopedDistributions:
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


def _rank(ranks: dict, i: int, code: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each code in ranks[i] (-1, then sorted distinct codes: those
    of the first caller, unless `_count_states` filled it with the whole
    corpus's), and the rank bound.  Absent codes get rank 0, which no state
    has, so they stay absent through later digits."""
    if i not in ranks:
        ranks[i] = np.concatenate(([-1], np.unique(code, return_inverse=True)[0]))
    at = np.searchsorted(ranks[i], code, side="right") - 1
    return np.where(ranks[i][at] == code, at, 0), ranks[i].size


def train_markov_prior(
    corpus: Sequence[TokenGrid | tuple[TokenGrid, SemanticGrid | None]] | Sequence[GridRun],
    context: Sequence[tuple[int, int]] = DEFAULT_CONTEXT,
    conditional: bool = False,
    smoothing_alpha: float = DEFAULT_ALPHA,
) -> MarkovGridPrior:
    """Accumulate (context, label) -> next-token counts over a corpus: grids
    or (grid, semantics) pairs, packed by `pack_grids` (maps kept only when
    conditional), or a packed corpus such as `load_grid_directory`'s runs.
    Either way it is counted straight from the runs' arrays, and a run's
    labels are its maps.

    Purely deterministic: the tables depend only on the corpus content, not
    on iteration order.
    """
    context = validate_context_template(context)
    if not (corpus and isinstance(corpus[0], GridRun)):
        corpus = pack_grids([it if conditional or isinstance(it, TokenGrid) else it[0] for it in corpus])
    if not corpus:
        raise ValidationError("empty training corpus")
    size, label_count = corpus[0].grids.codebook_size, corpus[0].label_count if conditional else None
    for run in corpus:
        if run.grids.codebook_size != size:
            raise ValidationError("training corpus mixes codebook sizes")
        if conditional and run.labels is None:
            raise ValidationError("conditional training requires a semantic map for every grid")
        if conditional and run.label_count != label_count:
            raise ValidationError("training corpus mixes label counts")
    blocks = [(run.grids.tokens, run.labels) for run in corpus]
    contexts, labels, counts = _count_states(blocks, context, conditional, size, label_count)
    return MarkovGridPrior(
        codebook_size=size,
        context=context,
        conditional=conditional,
        label_count=label_count,
        smoothing_alpha=smoothing_alpha,
        contexts=contexts,
        labels=labels,
        counts=counts,
    )


def _shifted_tokens(tokens: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Token grids (the last two axes) displaced by (dr, dc), boundary-marked
    where undefined."""
    height, width = tokens.shape[-2:]
    out = np.full(tokens.shape, BOUNDARY, dtype=np.int64)
    r0, r1 = max(0, -dr), min(height, height - dr)
    c0, c1 = max(0, -dc), min(width, width - dc)
    if r0 < r1 and c0 < c1:
        out[..., r0:r1, c0:c1] = tokens[..., r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    return out


def _check_model_size(states: int, size: int) -> None:
    """Refuse more than `MODEL_CELL_LIMIT` states x codebook size, in training and on load."""
    if states * size > MODEL_CELL_LIMIT:
        raise ValidationError(f"{states} states x {size} tokens exceeds the limit {MODEL_CELL_LIMIT}")


def _count_states(
    blocks: list,
    context: tuple[tuple[int, int], ...],
    conditional: bool,
    size: int,
    label_count: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contexts, labels and next-token counts of every state in the corpus,
    as read-only arrays the model keeps without a copy.

    Each position becomes one mixed-radix code whose digits are its
    template tokens (plus one, so the boundary marker is 0), its label when
    conditional, and its token, added one digit at a time.  The corpus's
    (tokens, labels) run arrays are coded in slices of whole grids, about
    _CHUNK_POSITIONS positions each.  np.unique counts a chunk's codes, and these sparse
    (code, count) runs are added into one sorted running total whenever
    they hold as many codes as it does.  Before a digit would overflow int64, the code so far
    is replaced by its rank among the codes the whole corpus has there (one
    more pass of the same counting finds them), so ranks agree across
    chunks.  divmod, through the rank tables, decodes the total.  States
    come out sorted by context, then label.
    """
    slots = len(context)
    radices = [size + 1] * slots + ([label_count] if conditional else []) + [size]

    def codes(tokens, labels, digits: int) -> np.ndarray:
        """Codes of the first `digits` digits at each position of a chunk."""
        code = np.zeros(tokens.size, dtype=np.int64)
        for i, radix in enumerate(radices[:digits]):
            if i in ranks:
                code = _rank(ranks, i, code)[0]
            if i < slots:
                digit = _shifted_tokens(tokens, *context[i])
                digit += 1
            elif i == slots and conditional:
                digit = labels
            else:
                digit = tokens
            code *= radix
            code += digit.reshape(-1)
        return code

    def tally(digits: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct codes of the first `digits` digits, and their counts."""
        total = (np.empty(0, dtype=np.int64),) * 2
        runs, pending = [], 0
        for tokens, labels in _chunks(blocks, _CHUNK_POSITIONS):
            runs.append(np.unique(codes(tokens, labels, digits), return_counts=True))
            pending += runs[-1][0].size
            if pending >= total[0].size:
                total, runs, pending = _add_runs([total, *runs]), [], 0
        return _add_runs([total, *runs])

    bound, ranks = 1, {}  # codes lie in [0, bound); ranks[i]: table before digit i
    for i, radix in enumerate(radices):
        if bound * radix > 2**63:
            ranks[i] = np.concatenate(([-1], tally(i)[0]))
            bound = ranks[i].size
        bound *= radix
    values, freq = tally(len(radices))

    code, tokens = np.divmod(values, size)
    code, state = np.unique(code, return_inverse=True)
    _check_model_size(code.size, size)
    counts = np.zeros((code.size, size), dtype=np.int64)
    counts[state, tokens] = freq
    last = len(radices) - 1
    digits = np.empty((code.size, last), dtype=np.int64)
    for i in reversed(range(last)):
        if i + 1 in ranks:
            code = ranks[i + 1][code]
        code, digits[:, i] = np.divmod(code, radices[i])
    labels = digits[:, slots] if conditional else np.full(code.size, -1)
    return _readonly(digits[:, :slots] - 1), _readonly(labels), _readonly(counts)


def _add_runs(runs: list) -> tuple[np.ndarray, np.ndarray]:
    """One sorted run of distinct codes from sorted (codes, counts) runs,
    the counts of equal codes added; at least one run holds a code."""
    values = np.concatenate([run[0] for run in runs])
    order = np.argsort(values, kind="stable")  # timsort merges the sorted runs
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.add.reduceat(np.concatenate([run[1] for run in runs])[order], starts)


def save_model(path: str | Path, model: MarkovGridPrior) -> None:
    """Write the model as deterministic JSON, `dump_json`'s bytes: states by
    context, then label, encoded and written _SAVE_ENTRIES table entries at
    a time."""
    encode = json.JSONEncoder(sort_keys=True, indent=2).encode
    head = encode({
        "codebook_size": model.codebook_size,
        "context": [[dr, dc] for dr, dc in model.context],
        "conditional": model.conditional,
        "label_count": model.label_count,
        "smoothing_alpha": model.smoothing_alpha,
        "tables": [],
    })
    order = np.lexsort((model.labels, *model.contexts.T[::-1]))
    # "tables" sorts last, so the head ends with its empty list: '[]\n}'.
    with open(path, "w") as out:
        out.write(head[:-4] + ("[" if order.size else "[]\n}\n"))
        for start in range(0, order.size, _SAVE_ENTRIES):
            part, entries = order[start : start + _SAVE_ENTRIES], []
            for i, context, label in zip(part.tolist(), model.contexts[part].tolist(), model.labels[part].tolist()):
                row = model.counts[i]
                tokens = np.flatnonzero(row > 0)
                entries.append({
                    "context": ["B" if t == BOUNDARY else t for t in context],
                    "label": None if label < 0 else label,
                    "counts": dict(zip(map(str, tokens.tolist()), row[tokens].tolist())),
                })
            # A list's entries one level deeper: '[\n  {...},\n  {...}\n]' less its brackets.
            out.write(("," if start else "") + encode(entries)[1:-2].replace("\n", "\n  "))
        out.write("\n  ]\n}\n" if order.size else "")


def load_model(path: str | Path) -> MarkovGridPrior:
    """Read `save_model` JSON strictly: integers, bools and count keys as written."""
    try:
        payload = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid model JSON ({exc})") from exc
    try:
        size = _typed(payload["codebook_size"], int)
        label_count = payload.get("label_count")
        label_count = None if label_count is None else _typed(label_count, int)
        for name, value in (("codebook size", size), ("label count", label_count or 0)):
            if value > GRID_VOCAB_LIMIT:
                raise ValueError(f"{name} {value} exceeds the format limit {GRID_VOCAB_LIMIT}")
        context = tuple((_typed(dr, int), _typed(dc, int)) for dr, dc in payload["context"])
        tables = payload["tables"]
        _check_model_size(len(tables), size)
        contexts = np.array(
            [[BOUNDARY if t == "B" else _typed(t, int) for t in entry["context"]] for entry in tables],
            dtype=np.int64,
        ).reshape(len(tables), len(context))
        labels = [-1 if entry["label"] is None else _typed(entry["label"], int) for entry in tables]
        counts = np.zeros((len(tables), size), dtype=np.int64)
        for row, entry in zip(counts, tables):
            for key, n in entry["counts"].items():
                token = int(key)
                if key != str(token) or not 0 <= token < size:
                    raise ValueError(f"count key {key!r} is not a token in [0, {size})")
                row[token] = _typed(n, int)
        return MarkovGridPrior(
            codebook_size=size,
            context=context,
            conditional=_typed(payload["conditional"], bool),
            label_count=label_count,
            smoothing_alpha=float(_typed(payload["smoothing_alpha"], int, float)),
            contexts=contexts,
            labels=labels,
            counts=_readonly(counts),
        )
    except MALFORMED_JSON as exc:
        raise ValidationError(f"{path}: malformed model JSON ({exc})") from exc
