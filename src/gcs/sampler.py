"""Raster-order ancestral sampling with the guided posterior pipeline.

Per step the prior distribution passes through up to three stages, always
in this order: likelihood rebalancing, temperature, then top-k truncation.
`posterior_rows` is the one implementation of that pipeline, over a matrix
of prior rows; a stage that is a no-op for a row (identity likelihood,
temperature exactly 1, truncation that removes no mass) leaves its bits
untouched, so a pipeline of no-ops reproduces the raw prior bit for bit,
and an unguided run is guided by the identity table (one all-ones row).
`sample_grid` and the exact chain enumeration `exact_sequence_distribution`
run it per raster step on the one prior row `MarkovGridPrior.state_of`
names, with the weight row of the position's scope.

`batch_sample` draws a wavefront per step: every position with the same
skew * row + col, whose template slots all lie in earlier wavefronts.  It
keeps a table of posterior rows, one per (scope, prior state), with their
cumulative sums.  A step gathers its slots from the position-major
(H * W + 1, n) token array and maps them with `MarkovGridPrior.codes` to
context codes.  A batch with fewer draws than scopes x codes x M buckets
maps codes to states and those to rows, built as met, and picks every
token with the binary search `inverse_cdf_rows`.  A larger one builds
every row first, with a bucket table per row laid out code-major, so a
code is its offset; one lookup per raw 64-bit draw picks most tokens,
and `inverse_cdf_rows` the draws whose bucket holds a cumulative value,
so every pick is the binary search's.

Randomness is counter-based: one unit draw per raster position, taken from
a per-grid stream key.  Sample i of a `batch_sample` call draws from the
stream of split_seed(seed, i), so it equals `sample_grid` with that seed,
whatever the batch size and whichever other samples share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SemanticGrid, TokenBatch, TokenGrid, ValidationError
from .guidance import LikelihoodTable, rebalance_rows, scope_index
from .prior import BOUNDARY, MarkovGridPrior
from .rng import _U53_SCALE, draws_u64_at, index_from_unit, inverse_cdf_rows, mix64_array, seed_key
from .rng import split_seed_array, unit_draw


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs for one sampling run; defaults leave the prior untouched.

    The stage order is fixed: truncation is a sampling policy applied to
    the final (already guided) distribution, never before guidance.
    """

    seed: int = 0
    temperature: float = 1.0
    top_k: int | None = None
    guidance: LikelihoodTable | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.temperature) or self.temperature <= 0:
            raise ValidationError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise ValidationError(f"top_k must be >= 1, got {self.top_k}")


def posterior_rows(
    probs: np.ndarray, weights: np.ndarray, config: SamplingConfig
) -> np.ndarray:
    """The one guide -> temperature -> top-k pipeline over (R, K) prior rows and a weight row.

    Top-k keeps the k most probable tokens, breaking ties toward the lower
    index.  A stage leaves a row's bits untouched where it is a no-op
    (identity guidance, temperature exactly 1, a truncation that drops no
    mass), and returns its input array when it is a no-op for every row.
    """
    size = probs.shape[1]
    probs = rebalance_rows(probs, weights)
    if config.temperature != 1.0:
        powered = probs ** (1.0 / config.temperature)
        totals = powered.sum(axis=1, keepdims=True)
        if not np.all((totals > 0.0) & np.isfinite(totals)):
            raise ValidationError(
                f"temperature {config.temperature} produced an unnormalizable distribution"
            )
        probs = powered / totals
    k = config.top_k
    if k is not None and k > size:
        raise ValidationError(f"top_k {k} exceeds codebook size {size}")
    if k is not None and k < size:
        order = np.argsort(-probs, axis=1, kind="stable")
        cut = np.take_along_axis(probs, order[:, k:], axis=1).any(axis=1, keepdims=True)
        if cut.any():
            kept = np.zeros_like(probs)
            top = order[:, :k]
            np.put_along_axis(kept, top, np.take_along_axis(probs, top, axis=1), axis=1)
            probs = np.where(cut, kept / kept.sum(axis=1, keepdims=True), probs)
    return probs


def _guidance_scopes(
    model: MarkovGridPrior,
    height: int,
    width: int,
    semantics: SemanticGrid | None,
    config: SamplingConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Check a run's arguments; return its guidance weight rows and each
    raster position's scope.  An unguided run has the identity table."""
    if height < 1 or width < 1:
        raise ValidationError(f"grid shape {height}x{width} must be positive")
    if model.conditional and semantics is None:
        raise ValidationError("conditional model requires a semantic map")
    if semantics is not None and (semantics.height, semantics.width) != (height, width):
        raise ValidationError(
            f"semantic map is {semantics.height}x{semantics.width}, "
            f"requested grid is {height}x{width}"
        )
    table = config.guidance or LikelihoodTable(np.ones((1, model.codebook_size)), (1, 1))
    rows, cols = np.divmod(np.arange(height * width), width)
    return table.weights, scope_index(table, (rows, cols), semantics, (height, width))


def _scalar_steps(
    model: MarkovGridPrior,
    height: int,
    width: int,
    semantics: SemanticGrid | None,
    config: SamplingConfig,
) -> Callable[[Sequence[int]], np.ndarray]:
    """The posterior row of the next raster step as a function of the prefix.

    Every position's scope is found once; a step looks its prior row up
    with `state_of` and runs `posterior_rows` on that one row.
    """
    weights, scopes = _guidance_scopes(model, height, width, semantics, config)
    scopes = scopes.tolist()
    labels = semantics.labels.reshape(-1).tolist() if model.conditional else [None] * len(scopes)

    def step(prefix: Sequence[int]) -> np.ndarray:
        i = len(prefix)
        context = model.context_at(prefix, height, width, *divmod(i, width))
        state = model.state_of(context, labels[i])
        return posterior_rows(model.smoothed[state : state + 1], weights[scopes[i]], config)[0]

    return step


def sample_grid(
    model: MarkovGridPrior,
    height: int,
    width: int,
    semantics: SemanticGrid | None = None,
    config: SamplingConfig = SamplingConfig(),
) -> TokenGrid:
    """Draw one grid, consuming exactly one unit draw per position."""
    step = _scalar_steps(model, height, width, semantics, config)
    key = seed_key(config.seed)
    prefix: list[int] = []
    for i in range(height * width):
        probs = step(prefix)
        prefix.append(index_from_unit(probs, np.cumsum(probs), unit_draw(key, i)))
    return TokenGrid(height, width, model.codebook_size, prefix)


# Largest count x (height x width + 1) a batch may draw: it sizes the token array.
BATCH_CELL_LIMIT = 2**28


def _complete_pays(entries: int, draws: int) -> bool:
    """The size rule: complete a table of `entries` for a batch of `draws`."""
    return entries <= draws


def batch_sample(
    model: MarkovGridPrior,
    height: int,
    width: int,
    count: int,
    semantics: SemanticGrid | None = None,
    config: SamplingConfig = SamplingConfig(),
) -> TokenBatch:
    """Draw `count` grids; sample i uses stream seed split_seed(seed, i).

    The batch is drawn one anti-diagonal wavefront of the grid at a time:
    a `_RowTable` of step posteriors locates each element's row, and one
    `_RowTable.pick` draws them all, each with its raster position's raw
    64-bit draw.  A lazy table, which builds rows as met, searches each
    draw's row with `inverse_cdf_rows` at the draw's 53-bit unit value.  A
    smoothed prior's table is completed up front when its scopes x codes x
    M entries are no more than the batch's draws (`_complete_pays`), so
    building every row costs at most about one pass of sampling; its draws
    are looked up in bucket tables of 8K to 16K entries, with
    `inverse_cdf_rows` as the exact fallback.  The token sequences equal
    `count` independent `sample_grid` calls.  The returned batch's `tokens`
    is a read-only view of the array the batch was drawn into, of the
    smallest signed integer type that holds -K.
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    if count * (height * width + 1) > BATCH_CELL_LIMIT:
        raise ValidationError(
            f"{count} samples of {height}x{width} need {count * (height * width + 1)} "
            f"token cells, over the limit of {BATCH_CELL_LIMIT}"
        )
    weights, scopes = _guidance_scopes(model, height, width, semantics, config)
    keys = mix64_array(split_seed_array(config.seed, np.arange(count, dtype=np.uint64)))
    size = height * width
    rows, cols = np.divmod(np.arange(size), width)
    # Position-major tokens in np.min_scalar_type(-K) (int8 up to K = 128);
    # the last row is the BOUNDARY every off-grid slot reads.
    grids = np.empty((size + 1, count), dtype=np.min_scalar_type(-model.codebook_size))
    grids[size] = BOUNDARY
    slots = []
    for dr, dc in model.context:
        r, c = rows + dr, cols + dc
        slots.append(np.where((r >= 0) & (c >= 0) & (c < width), r * width + c, size))
    labels = semantics.labels.reshape(-1, 1) if model.conditional else None
    table = _RowTable(model, weights, config)
    entries = len(weights) * table.bound << table.log_buckets
    if model.smoothing_alpha > 0 and _complete_pays(entries, count * size):
        table.complete()  # unsmoothed priors stay lazy: `states` rejects unseen contexts

    # Wavefront t = skew * row + col: the smallest skew >= 0 that puts
    # every template slot in an earlier wavefront.
    skew = max([0] + [dc // -dr + 1 for dr, dc in model.context if dr < 0])
    wave = skew * rows + cols
    order = np.argsort(wave, kind="stable")
    for front in np.split(order, np.flatnonzero(np.diff(wave[order])) + 1):
        columns = [grids[slot[front]] for slot in slots]
        offsets = table.offsets(columns, None if labels is None else labels[front], scopes[front, None])
        grids[front] = table.pick(offsets, draws_u64_at(keys, front))

    grids.setflags(write=False)
    return TokenBatch(grids[:size].T.reshape(count, height, width), model.codebook_size)


class _RowTable:
    """Step posteriors of one batch, one row per (scope, prior state).

    Scope j is row j of the run's guidance ``weights``.  Rows go through
    `posterior_rows` once per scope and are stored with their cumulative
    sums, 16 K bytes a row.  A lazy table builds rows as met and picks
    every draw with `inverse_cdf_rows`; each scope maps prior states (the
    shared unseen state included) to row indices or -1 through S + 1 int64
    entries, at most the size of the prior's smoothed matrix while a table
    has at most K scopes, and its rows double when full.  Only a complete
    table, built when its code-major scopes x ``bound`` x M entries are at
    most the batch's count x H x W draws, has bucket tables: ``by_code``,
    M entries per code, M the least power of two >= 8K, no larger than the
    token array and of the same type, and rows of 16 K <= 2 M bytes twice that.
    """

    def __init__(self, model: MarkovGridPrior, weights: np.ndarray, config: SamplingConfig) -> None:
        self.model = model
        self.config = config
        self.weights = weights
        self.stride = len(model.counts) + 1
        self.row_of = np.full(len(self.weights) * self.stride, -1, dtype=np.int64)
        self.size = 0
        self.probs = np.empty((0, model.codebook_size))
        self.cumulative = np.empty((0, model.codebook_size))
        self.log_buckets = (8 * model.codebook_size - 1).bit_length()
        self.bound = len(model._code_index[1])
        self.row_of_code = None  # set by `complete`

    def complete(self) -> None:
        """Build every (scope, state) row, with one `posterior_rows` call per
        scope, and the code-major table ``by_code``: the bucket row of
        ``row_of_code[scope * bound + code]``, the row of that code's state,
        at flat offset (scope * bound + code) << log2 M.  Codes that share
        the unseen state share a row and repeat its buckets."""
        self._append([posterior_rows(self.model.smoothed, w, self.config) for w in self.weights])
        scope_rows = np.arange(len(self.weights))[:, None] * len(self.model.smoothed)
        self.row_of_code = (scope_rows + self.model._code_index[1]).reshape(-1)
        self.by_code = _bucket_tables(self.cumulative, 2**self.log_buckets)[self.row_of_code]

    def offsets(self, columns: list[np.ndarray], labels, scopes: np.ndarray) -> np.ndarray:
        """Where each element's (scope, context) row is found, building new rows.

        `columns` and `labels` go to `MarkovGridPrior.codes`; `scopes`
        indexes `weights` and broadcasts against the columns like `labels`.
        A complete table's are flat bucket offsets (scope * bound + code) <<
        log2 M; a lazy one's are row indices of (scope, state) keys.
        """
        if self.row_of_code is not None:
            code = self.model.codes(columns, labels)
            if len(self.weights) > 1:
                code += scopes * self.bound
            code <<= self.log_buckets
            return code
        keys = self.model.states(columns, labels)
        keys += scopes * self.stride
        rows = self.row_of.take(keys)
        if rows.min() < 0:
            missing = rows < 0
            fresh, inverse = np.unique(keys[missing], return_inverse=True)
            added = np.arange(self.size, self.size + fresh.size)
            self.row_of[fresh] = added
            rows[missing] = added[inverse]
            parts = []
            for part in np.split(fresh, np.flatnonzero(np.diff(fresh // self.stride)) + 1):
                scope, states = np.divmod(part, self.stride)
                weights = self.weights[scope[0]]
                parts.append(posterior_rows(self.model.smoothed[states], weights, self.config))
            self._append(parts)
        return rows

    def pick(self, offsets: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """`inverse_cdf_rows` of each element's row at unit draw (draws >> 11) * 2^-53.

        `offsets` come from `offsets` and `draws` are raw 64-bit draws; a
        lazy table searches every draw's row.  In a complete table a draw's
        bucket is its top log2 M bits, (draws >> 11) >> (53 - log2 M)
        exactly; one bounds-checked `take` from ``by_code`` answers every
        draw whose bucket holds one token, and `inverse_cdf_rows` the rest,
        on rows mapped through ``row_of_code``.
        """
        if self.row_of_code is None:
            us = (draws.reshape(-1) >> np.uint64(11)) * _U53_SCALE
            return inverse_cdf_rows(self.probs, self.cumulative, offsets.reshape(-1), us).reshape(offsets.shape)
        flat = np.right_shift(draws, np.uint64(64 - self.log_buckets)).view(np.int64)
        flat += offsets
        picks = self.by_code.reshape(-1).take(flat)
        ambiguous = np.flatnonzero(picks < 0)
        if ambiguous.size:
            rows = self.row_of_code.take(offsets.reshape(-1)[ambiguous] >> self.log_buckets)
            picks.reshape(-1)[ambiguous] = inverse_cdf_rows(
                self.probs, self.cumulative, rows, (draws.reshape(-1)[ambiguous] >> np.uint64(11)) * _U53_SCALE
            )
        return picks

    def _append(self, parts: list[np.ndarray]) -> None:
        """Store new posterior rows and their cumulative sums."""
        end = self.size + sum(map(len, parts))
        if end > len(self.probs):
            # Double, copying only the rows in use: the rest stays unwritten.
            arrays = self.probs, self.cumulative
            self.probs, self.cumulative = (np.empty((max(end, 2 * len(a)), a.shape[1])) for a in arrays)
            for grown, array in zip((self.probs, self.cumulative), arrays):
                grown[: self.size] = array[: self.size]
        new = slice(self.size, end)
        np.concatenate(parts, out=self.probs[new])
        np.cumsum(self.probs[new], axis=1, out=self.cumulative[new])
        self.size = end


def _bucket_tables(cumulative: np.ndarray, buckets: int) -> np.ndarray:
    """Guide tables (Chen & Asau's indexed search) of (R, K) cumulative rows.

    Entry b of a row is the `inverse_cdf_rows` pick of every draw u in
    [b / M, (b + 1) / M), M = `buckets`, or -1 where that is not one token;
    entries take the smallest signed integer type that holds -K.  M is a
    power of two, so the bucket b_t = min(floor(c_t * M), M) of each
    cumulative value c_t is exact.  A bucket strictly between b_{t-1} and
    b_t (b_{-1} = -1) holds no cumulative value and has t of them below
    it, so its pick is t: positive, because c_t > c_{t-1}.  Bucket b_t,
    which holds c_t, is -1, and so are the buckets past the row's last
    value (where t = K after a float shortfall).  The rows are built as
    runs with one `np.repeat`, over M + 1 buckets whose last (bucket M)
    is dropped.
    """
    count, size = cumulative.shape
    edges = np.empty((count, size + 1), dtype=np.intp)
    edges[:, 0] = -1
    edges[:, 1:] = np.minimum(cumulative * buckets, buckets)
    gaps = edges[:, 1:] - edges[:, :-1]
    runs = np.empty((count, size, 2), dtype=np.intp)  # token t's run, then its -1 run
    np.maximum(gaps - 1, 0, out=runs[:, :, 0])
    runs[:, :, 1] = gaps > 0
    runs[:, -1, 1] += buckets - edges[:, -1]  # the buckets past the last value, through M
    values = np.full((count, size, 2), -1, dtype=np.min_scalar_type(-size))
    values[:, :, 0] = np.arange(size)
    return np.repeat(values, runs.reshape(-1)).reshape(count, buckets + 1)[:, :buckets]


EXACT_STATE_LIMIT = 10**6


def exact_sequence_distribution(
    model: MarkovGridPrior,
    height: int,
    width: int,
    semantics: SemanticGrid | None = None,
    config: SamplingConfig = SamplingConfig(),
) -> dict[tuple[int, ...], float]:
    """Exact probability of every possible grid under the sampling chain.

    Walks the prefix tree depth-first, multiplying each step's posterior
    (the one `sample_grid` draws from: guidance, temperature and top-k as
    in `config`) along the way; `config.seed` is unused.  Restricted to
    codebook_size ** (height * width) <= 10^6 states.
    """
    step = _scalar_steps(model, height, width, semantics, config)
    states = model.codebook_size ** (height * width)
    if states > EXACT_STATE_LIMIT:
        raise ValidationError(
            f"state space {states} exceeds the exact-enumeration limit "
            f"{EXACT_STATE_LIMIT}"
        )
    result: dict[tuple[int, ...], float] = {}
    prefix: list[int] = []

    def visit(prob: float) -> None:
        if len(prefix) == height * width:
            result[tuple(prefix)] = prob
            return
        for token, p in enumerate(step(prefix).tolist()):
            if p > 0.0:
                prefix.append(token)
                visit(prob * p)
                prefix.pop()

    visit(1.0)
    return result
