"""Raster-order ancestral sampling with the guided posterior pipeline.

Per step the prior distribution passes through up to three stages, always
in this order: likelihood rebalancing, temperature, then top-k truncation.
`posterior_rows` is the one implementation of that pipeline, over a matrix
of prior rows; a stage that is a no-op for a row (identity likelihood,
temperature exactly 1, truncation that removes no mass) leaves its bits
untouched, so a pipeline of no-ops reproduces the raw prior bit for bit.
`sample_grid` and the exact chain enumeration `exact_sequence_distribution`
run it on one row per step through `step_posterior`.

`batch_sample` on a `MarkovGridPrior` draws a wavefront per step: every
position with the same skew * row + col, whose template slots all lie in
earlier wavefronts.  It keeps a posterior-row table for the batch: one row
per (scope, prior state), where a scope indexes the guidance table's
`scopes` (`scope_index` maps every position at once), stored with its
cumulative sum.  A step gathers its slots from the position-major
(H * W + 1, n) token array, maps them with `MarkovGridPrior.states` to
prior states, builds the rows it lacks with one `posterior_rows` call per
scope, and picks every token of the wavefront in one `inverse_cdf_rows`.

Randomness is counter-based: one unit draw per raster position, taken from
a per-grid stream key.  `batch_sample` derives the stream key of sample i
by splitting the base seed with index i, which makes every sample's token
sequence independent of how many samples are requested and lets the
vectorized fast path reproduce the sequential loop exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CategoricalDistribution,
    SemanticGrid,
    TokenGrid,
    ValidationError,
    token_grids,
)
from .guidance import LikelihoodTable, LikelihoodVector, rebalance_rows, scope_index, select_likelihood
from .prior import BOUNDARY, MarkovGridPrior, PriorModel
from .rng import mix64_array, seed_key, split_seed, split_seed_array, unit_draw, unit_draws_at


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


def index_from_unit(
    probs: np.ndarray, cumulative: np.ndarray, u: float
) -> int:
    """Map a unit draw through the inverse CDF of `probs`.

    Ties at bin edges resolve to the lower index (searchsorted side="left").
    Zero-probability entries can never be returned: an index landing on one
    (possible only at shared cumulative values or after float shortfall at
    the top) is pushed forward to the next positive entry, or back to the
    last positive entry when there is none.
    """
    idx = int(np.searchsorted(cumulative, u, side="left"))
    if idx < probs.shape[0] and probs[idx] > 0.0:
        return idx
    positive = np.flatnonzero(probs > 0.0)
    return int(positive[min(np.searchsorted(positive, idx), positive.size - 1)])


def step_posterior(
    prior: CategoricalDistribution,
    config: SamplingConfig,
    position: tuple[int, int] | None = None,
    semantics: SemanticGrid | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> CategoricalDistribution:
    """`posterior_rows` on one step's prior; all no-ops return the prior itself."""
    vector = None
    if config.guidance is not None:
        if position is None:
            raise ValidationError("guided sampling requires the step position")
        vector = select_likelihood(config.guidance, position, semantics, grid_shape)
    row = prior.probs[None]
    probs = posterior_rows(row, vector, config)
    if probs is row:
        return prior
    return CategoricalDistribution(
        prior.codebook_size, probs[0], source_mass=prior.source_mass
    )


def posterior_rows(
    probs: np.ndarray, vector: LikelihoodVector | None, config: SamplingConfig
) -> np.ndarray:
    """The one guide -> temperature -> top-k pipeline, over (R, K) prior rows.

    Top-k keeps the k most probable tokens, breaking ties toward the lower
    index.  A stage leaves a row's bits untouched where it is a no-op
    (identity guidance, temperature exactly 1, a truncation that drops no
    mass), and returns its input array when it is a no-op for every row.
    """
    size = probs.shape[1]
    if vector is not None:
        probs = rebalance_rows(probs, vector)
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


def _check_sampling_args(
    model: PriorModel,
    height: int,
    width: int,
    semantics: SemanticGrid | None,
) -> None:
    if height < 1 or width < 1:
        raise ValidationError(f"grid shape {height}x{width} must be positive")
    if model.conditional and semantics is None:
        raise ValidationError("conditional model requires a semantic map")
    if semantics is not None and (semantics.height, semantics.width) != (height, width):
        raise ValidationError(
            f"semantic map is {semantics.height}x{semantics.width}, "
            f"requested grid is {height}x{width}"
        )


def sample_grid(
    model: PriorModel,
    height: int,
    width: int,
    semantics: SemanticGrid | None = None,
    config: SamplingConfig = SamplingConfig(),
) -> TokenGrid:
    """Draw one grid, consuming exactly one unit draw per position."""
    _check_sampling_args(model, height, width, semantics)
    key = seed_key(config.seed)
    shape = (height, width)
    prefix: list[int] = []
    for i in range(height * width):
        position = divmod(i, width)
        prior = model.next_distribution(prefix, height, width, position, semantics)
        post = step_posterior(prior, config, position, semantics, shape)
        u = unit_draw(key, i)
        cumulative = np.cumsum(post.probs)
        prefix.append(index_from_unit(post.probs, cumulative, u))
    return TokenGrid(height, width, model.codebook_size, prefix)


def batch_sample(
    model: PriorModel,
    height: int,
    width: int,
    count: int,
    semantics: SemanticGrid | None = None,
    config: SamplingConfig = SamplingConfig(),
) -> list[TokenGrid]:
    """Draw `count` grids; sample i uses stream seed split_seed(seed, i).

    A `MarkovGridPrior` takes the vectorized path, one anti-diagonal
    wavefront of the grid at a time for the whole batch: a `_RowTable` of
    step posteriors keyed by (scope, prior state) gives each element its
    row, and one inverse-CDF pick draws them all, each with its raster
    position's unit draw.  The token sequences equal `count` independent
    `sample_grid` calls.  Any other model runs that per-sample loop.
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    _check_sampling_args(model, height, width, semantics)
    if not isinstance(model, MarkovGridPrior):
        return [
            sample_grid(
                model,
                height,
                width,
                semantics,
                replace(config, seed=split_seed(config.seed, i)),
            )
            for i in range(count)
        ]
    keys = mix64_array(split_seed_array(config.seed, np.arange(count, dtype=np.uint64)))
    size = height * width
    rows, cols = np.divmod(np.arange(size), width)
    # Position-major tokens; the last row is the BOUNDARY every off-grid slot reads.
    grids = np.empty((size + 1, count), dtype=np.int64)
    grids[size] = BOUNDARY
    slots = []
    for dr, dc in model.context:
        r, c = rows + dr, cols + dc
        slots.append(np.where((r >= 0) & (c >= 0) & (c < width), r * width + c, size))
    labels = semantics.labels.reshape(-1, 1) if model.conditional else None
    scopes = np.zeros((size, 1), dtype=np.int64)
    if config.guidance is not None:
        scopes = scope_index(config.guidance, (rows, cols), semantics, (height, width))[:, None]
    table = _RowTable(model, config)

    # Wavefront t = skew * row + col: the smallest skew >= 0 that puts
    # every template slot in an earlier wavefront.
    skew = max([0] + [dc // -dr + 1 for dr, dc in model.context if dr < 0])
    wave = skew * rows + cols
    order = np.argsort(wave, kind="stable")
    for front in np.split(order, np.flatnonzero(np.diff(wave[order])) + 1):
        columns = [grids[slot[front]] for slot in slots]
        picked = table.rows(columns, None if labels is None else labels[front], scopes[front])
        draws = unit_draws_at(keys, front)
        grids[front] = inverse_cdf_rows(
            table.probs, table.cumulative, picked.ravel(), draws.ravel()
        ).reshape(front.size, count)

    return token_grids(grids[:size].T.reshape(count, height, width), model.codebook_size)


def inverse_cdf_rows(
    probs: np.ndarray, cumulative: np.ndarray, rows: np.ndarray, us: np.ndarray
) -> np.ndarray:
    """`index_from_unit` for many draws at once: draw j picks from row rows[j].

    `probs` and `cumulative` are (R, K) tables; none of the four inputs is
    written to.  A branchless binary search counts the entries of each
    draw's cumulative row below its draw, which is searchsorted(side="left"),
    using O(len(us)) memory for any K.  It advances one flat index per draw
    in place: a step gathers flat[base + half] as `flat[half:].take(base)`,
    which stays inside the draw's row (base + half <= first + K - 1 while
    the span exceeds 1) and keeps `take`'s bounds check.  Picks past the
    end or on a zero-probability entry go through `index_from_unit`.
    """
    size = probs.shape[1]
    flat = cumulative.reshape(-1)
    first = rows * size
    base, span = first.copy(), size  # each draw's answer lies in base .. base + span
    while span > 1:
        half = span // 2
        base += half * (flat[half:].take(base) < us)
        span -= half
    below = base - first + (flat.take(base) < us)  # entries of the row below u
    picked = np.minimum(below, size - 1)
    fixup = (below == size) | (probs.reshape(-1).take(first + picked) <= 0.0)
    for j in np.flatnonzero(fixup):
        row = rows[j]
        picked[j] = index_from_unit(probs[row], cumulative[row], float(us[j]))
    return picked


class _RowTable:
    """Step posteriors of one batch, one row per (scope, prior state).

    Scope j is ``config.guidance.scopes[j]``, or the one scope None when
    unguided.  Each scope maps prior states (the shared unseen-context
    state included) to rows through S + 1 entries of an int64 array, -1
    until built: 8 (S + 1) bytes whatever the code space, at most the size
    of the prior's smoothed matrix while a table has at most K scopes.  A
    call's new rows go through `posterior_rows` once per scope and are
    stored with their cumulative sums; the row arrays grow by at least a
    quarter when full.
    """

    def __init__(self, model: MarkovGridPrior, config: SamplingConfig) -> None:
        self.model = model
        self.config = config
        self.vectors = (None,) if config.guidance is None else config.guidance.scopes
        self.stride = len(model.counts) + 1
        self.row_of = np.full(len(self.vectors) * self.stride, -1, dtype=np.int64)
        self.size = 0
        self.probs = np.empty((0, model.codebook_size))
        self.cumulative = np.empty((0, model.codebook_size))

    def rows(self, columns: list[np.ndarray], labels, scopes: np.ndarray) -> np.ndarray:
        """Row of each element's (scope, context state), building new ones.

        `columns` and `labels` go to `MarkovGridPrior.states`; `scopes`
        indexes `vectors` and broadcasts against the columns like `labels`.
        """
        keys = scopes * self.stride + self.model.states(columns, labels)
        rows = self.row_of[keys]
        missing = rows < 0
        if missing.any():
            # return_inverse keeps np.unique from importing numpy.ma.
            fresh = np.unique(keys[missing], return_inverse=True)[0]
            self.row_of[fresh] = np.arange(self.size, self.size + fresh.size)
            for part in np.split(fresh, np.flatnonzero(np.diff(fresh // self.stride)) + 1):
                scope, states = np.divmod(part, self.stride)
                vector = self.vectors[scope[0]]
                self._append(posterior_rows(self.model.smoothed[states], vector, self.config))
            rows = self.row_of[keys]
        return rows

    def _append(self, probs: np.ndarray) -> None:
        end = self.size + len(probs)
        if end > self.probs.shape[0]:
            extra = np.empty((max(end - self.probs.shape[0], self.size // 4), probs.shape[1]))
            self.probs = np.concatenate((self.probs, extra))
            self.cumulative = np.concatenate((self.cumulative, extra))
        self.probs[self.size : end] = probs
        self.cumulative[self.size : end] = np.cumsum(probs, axis=1)
        self.size = end


EXACT_STATE_LIMIT = 10**6


def exact_sequence_distribution(
    model: PriorModel,
    height: int,
    width: int,
    semantics: SemanticGrid | None = None,
    config: SamplingConfig = SamplingConfig(),
) -> dict[tuple[int, ...], float]:
    """Exact probability of every possible grid under the sampling chain.

    Walks the prefix tree depth-first, multiplying each step's
    `step_posterior` (guidance, temperature and top-k as in `config`) along
    the way; `config.seed` is unused.  Restricted to
    codebook_size ** (height * width) <= 10^6 states.
    """
    _check_sampling_args(model, height, width, semantics)
    states = model.codebook_size ** (height * width)
    if states > EXACT_STATE_LIMIT:
        raise ValidationError(
            f"state space {states} exceeds the exact-enumeration limit "
            f"{EXACT_STATE_LIMIT}"
        )
    shape = (height, width)
    result: dict[tuple[int, ...], float] = {}
    prefix: list[int] = []

    def visit(prob: float) -> None:
        i = len(prefix)
        if i == height * width:
            result[tuple(prefix)] = prob
            return
        position = divmod(i, width)
        prior = model.next_distribution(prefix, height, width, position, semantics)
        dist = step_posterior(prior, config, position, semantics, shape)
        for token, p in enumerate(dist.probs):
            if p > 0.0:
                prefix.append(token)
                visit(prob * float(p))
                prefix.pop()

    visit(1.0)
    return result
