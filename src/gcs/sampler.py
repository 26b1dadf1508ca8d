"""Raster-order ancestral sampling with the guided posterior pipeline.

Per step the prior distribution passes through up to three stages, always
in this order: likelihood rebalancing, temperature, then top-k truncation.
Each stage returns its input object untouched when it would be a no-op
(identity likelihood, temperature exactly 1, truncation that removes no
mass), so a pipeline of no-ops reproduces the raw prior bit for bit.
`_posterior` is the one place that runs this pipeline: `sample_grid` and
the exact chain enumeration `exact_sequence_distribution` reach it through
`step_posterior`, and `batch_sample` builds every row of its posterior-row
table with it.

`batch_sample` on a `MarkovGridPrior` keeps that table for the batch: one
row per (scope, context state), where a scope is a step's label and
guidance vector, built on first visit and stored with its cumulative sum.
Each raster position is then one row lookup and one vectorized inverse-CDF
pick (`inverse_cdf_rows`) for all samples, with no loop over context groups.

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
from .guidance import LikelihoodTable, LikelihoodVector, rebalance_prior, select_likelihood
from .prior import BOUNDARY, MarkovGridPrior, PriorModel
from .rng import mix64_array, seed_key, split_seed, split_seed_array, unit_draw, unit_draws_for_keys


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
    the top) is pushed forward to the next positive entry, wrapping back to
    the last positive entry when the shortfall falls past the end.
    """
    size = probs.shape[0]
    idx = int(np.searchsorted(cumulative, u, side="left"))
    if idx >= size:
        idx = size - 1
        while probs[idx] <= 0.0:
            idx -= 1
        return idx
    while probs[idx] <= 0.0:
        idx += 1
        if idx == size:
            idx = size - 1
            while probs[idx] <= 0.0:
                idx -= 1
            return idx
    return idx


def apply_temperature(
    dist: CategoricalDistribution, temperature: float
) -> CategoricalDistribution:
    if temperature == 1.0:
        return dist
    powered = dist.probs ** (1.0 / temperature)
    total = powered.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ValidationError(
            f"temperature {temperature} produced an unnormalizable distribution"
        )
    return CategoricalDistribution(
        dist.codebook_size, powered / total, source_mass=dist.source_mass
    )


def apply_top_k(dist: CategoricalDistribution, k: int | None) -> CategoricalDistribution:
    """Keep the k most probable tokens, breaking ties toward lower index."""
    if k is None:
        return dist
    size = dist.codebook_size
    if k > size:
        raise ValidationError(f"top_k {k} exceeds codebook size {size}")
    if k == size:
        return dist
    order = np.lexsort((np.arange(size), -dist.probs))
    dropped = dist.probs[order[k:]]
    if not dropped.any():
        return dist
    kept = np.zeros(size)
    keep_idx = order[:k]
    kept[keep_idx] = dist.probs[keep_idx]
    return CategoricalDistribution(
        size, kept / kept.sum(), source_mass=dist.source_mass
    )


def step_posterior(
    prior: CategoricalDistribution,
    config: SamplingConfig,
    position: tuple[int, int] | None = None,
    semantics: SemanticGrid | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> CategoricalDistribution:
    """Prior -> guided -> tempered -> truncated distribution for one step."""
    vector = None
    if config.guidance is not None:
        if position is None:
            raise ValidationError("guided sampling requires the step position")
        vector = select_likelihood(config.guidance, position, semantics, grid_shape)
    return _posterior(prior, vector, config)


def _posterior(
    prior: CategoricalDistribution,
    vector: LikelihoodVector | None,
    config: SamplingConfig,
) -> CategoricalDistribution:
    """The one guide -> temperature -> top-k pipeline, given the step's vector."""
    dist = prior if vector is None else rebalance_prior(prior, vector)
    return apply_top_k(apply_temperature(dist, config.temperature), config.top_k)


def _check_sampling_args(
    model: PriorModel,
    height: int,
    width: int,
    semantics: SemanticGrid | None,
    config: SamplingConfig,
) -> None:
    if height < 1 or width < 1:
        raise ValidationError(f"grid shape {height}x{width} must be positive")
    if config.top_k is not None and config.top_k > model.codebook_size:
        raise ValidationError(
            f"top_k {config.top_k} exceeds codebook size {model.codebook_size}"
        )
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
    _check_sampling_args(model, height, width, semantics, config)
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

    A `MarkovGridPrior` takes the vectorized path: a `_RowTable` of step
    posteriors keyed by (scope, context state) turns each raster position
    into one row lookup and one inverse-CDF pick for the whole batch, and
    the token sequences equal `count` independent `sample_grid` calls.
    Any other model runs that per-sample loop.
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    _check_sampling_args(model, height, width, semantics, config)
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
    return _batch_sample_markov(model, height, width, count, semantics, config)


def inverse_cdf_rows(
    probs: np.ndarray, cumulative: np.ndarray, rows: np.ndarray, us: np.ndarray
) -> np.ndarray:
    """`index_from_unit` for many draws at once: draw j picks from row rows[j].

    `probs` and `cumulative` are (R, K) tables.  A branchless binary search
    counts the entries of each draw's cumulative row below its draw, which
    is searchsorted(side="left"), using O(len(us)) memory for any K.  Picks
    past the end or on a zero-probability entry go through `index_from_unit`.
    """
    size = probs.shape[1]
    flat = cumulative.reshape(-1)
    first = rows * size
    base, span = first, size  # each draw's answer lies in base .. base + span
    while span > 1:
        half = span // 2
        probe = base + half
        base = np.where(flat[probe] < us, probe, base)
        span -= half
    below = base - first + (flat[base] < us)  # entries of the row below u
    picked = np.minimum(below, size - 1)
    fixup = (below == size) | (probs.reshape(-1)[first + picked] <= 0.0)
    for j in np.flatnonzero(fixup):
        row = rows[j]
        picked[j] = index_from_unit(probs[row], cumulative[row], float(us[j]))
    return picked


# Dense indexes of one batch hold at most this many int64 row ids in total
# (2 MiB).  A dense lookup costs about 20 us per position at n=2000 against
# 1.8 ms for the sorted one, but its array spans the whole code space of a
# scope, and a fine spatial tiling has one scope per cell; scopes past the
# budget use the sorted index, whose size follows the states it has seen.
DENSE_INDEX_ENTRIES = 2**18


class _DenseIndex:
    """Context state -> row through an array indexed by the mixed-radix code."""

    def __init__(self, base: int, slots: int) -> None:
        self.base = base
        self.rows = np.full(base**slots, -1, dtype=np.int64)

    def keys(self, columns: list[np.ndarray]) -> np.ndarray:
        code = np.zeros(columns[0].shape[0], dtype=np.int64)
        for column in reversed(columns):
            code = code * self.base + (column + 1)
        return code

    def find(self, keys: np.ndarray) -> np.ndarray:
        return self.rows[keys]

    def add(self, keys: np.ndarray, rows: np.ndarray) -> None:
        self.rows[keys] = rows


class _SortedIndex:
    """Context state -> row through a sorted array of context tuples.

    Keys are the template columns as one structured record per sample, so
    no template is packed into a single integer that could wrap.
    """

    def __init__(self, slots: int) -> None:
        self.dtype = np.dtype([(f"s{i}", np.int64) for i in range(slots)])
        self.sorted_keys = np.empty(0, dtype=self.dtype)
        self.rows = np.empty(0, dtype=np.int64)

    def keys(self, columns: list[np.ndarray]) -> np.ndarray:
        return np.stack(columns, axis=1).view(self.dtype)[:, 0]

    def find(self, keys: np.ndarray) -> np.ndarray:
        if self.rows.size == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.sorted_keys, keys), self.rows.size - 1)
        return np.where(self.sorted_keys[at] == keys, self.rows[at], -1)

    def add(self, keys: np.ndarray, rows: np.ndarray) -> None:
        at = np.searchsorted(self.sorted_keys, keys)
        self.sorted_keys = np.insert(self.sorted_keys, at, keys)
        self.rows = np.insert(self.rows, at, rows)


class _RowTable:
    """Step posteriors of one batch, one row per (scope, context state).

    A scope is a step's label and guidance vector.  Each row is built once,
    on first visit, by `_posterior`, and holds the same probability vector
    `sample_grid` would use plus its cumulative sum.  States that share a
    prior object (every context absent from the counts of a label) share a
    row.  Row arrays grow by a quarter when full.
    """

    def __init__(self, model: MarkovGridPrior, config: SamplingConfig) -> None:
        self.model = model
        self.config = config
        self.size = 0
        self.probs = np.empty((0, model.codebook_size))
        self.cumulative = np.empty((0, model.codebook_size))
        self.row_of_posterior: dict = {}  # (id(prior), id(vector)) -> row
        self.indexes: dict = {}  # (label, id(vector)) -> _DenseIndex | _SortedIndex
        self.dense_entries = 0  # summed size of the dense indexes

    def rows(
        self,
        columns: list[np.ndarray],
        label: int | None,
        vector: LikelihoodVector | None,
    ) -> np.ndarray:
        """Row of each sample's context state, building rows for new states."""
        index = self.indexes.get((label, id(vector)))
        if index is None:
            base, slots = self.model.codebook_size + 1, len(columns)
            if self.dense_entries + base**slots <= DENSE_INDEX_ENTRIES:
                self.dense_entries += base**slots
                index = _DenseIndex(base, slots)
            else:
                index = _SortedIndex(slots)
            self.indexes[(label, id(vector))] = index
        keys = index.keys(columns)
        rows = index.find(keys)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            new_keys, first = np.unique(keys[missing], return_index=True)
            new_rows = [
                self._row(tuple(int(column[j]) for column in columns), label, vector)
                for j in missing[first]
            ]
            index.add(new_keys, np.array(new_rows, dtype=np.int64))
            rows[missing] = index.find(keys[missing])
        return rows

    def _row(
        self, context: tuple[int, ...], label: int | None, vector: LikelihoodVector | None
    ) -> int:
        prior = self.model.distribution_for_context(context, label)
        memo_key = (id(prior), id(vector))
        row = self.row_of_posterior.get(memo_key)
        if row is None:
            probs = _posterior(prior, vector, self.config).probs
            if self.size == self.probs.shape[0]:
                extra = np.empty((max(1, self.size // 4), self.probs.shape[1]))
                self.probs = np.concatenate((self.probs, extra))
                self.cumulative = np.concatenate((self.cumulative, extra))
            row = self.size
            self.probs[row] = probs
            self.cumulative[row] = np.cumsum(probs)
            self.size += 1
            self.row_of_posterior[memo_key] = row
        return row


def _batch_sample_markov(
    model: MarkovGridPrior,
    height: int,
    width: int,
    count: int,
    semantics: SemanticGrid | None,
    config: SamplingConfig,
) -> list[TokenGrid]:
    keys = mix64_array(split_seed_array(config.seed, np.arange(count, dtype=np.uint64)))
    grids = np.full((count, height, width), -1, dtype=np.int64)
    shape = (height, width)
    table = _RowTable(model, config)
    boundary = np.full(count, BOUNDARY, dtype=np.int64)

    for i in range(height * width):
        row, col = divmod(i, width)
        columns = []
        for dr, dc in model.context:
            rr, cc = row + dr, col + dc
            inside = 0 <= rr < height and 0 <= cc < width
            columns.append(grids[:, rr, cc] if inside else boundary)
        label = None
        if model.conditional:
            label = int(semantics.labels[row, col])
        vector = None
        if config.guidance is not None:
            vector = select_likelihood(config.guidance, (row, col), semantics, shape)
        rows = table.rows(columns, label, vector)
        draws = unit_draws_for_keys(keys, i)
        grids[:, row, col] = inverse_cdf_rows(table.probs, table.cumulative, rows, draws)

    return token_grids(grids, model.codebook_size)


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
    _check_sampling_args(model, height, width, semantics, config)
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
