"""Raster-order ancestral sampling with the guided posterior pipeline.

Per step the prior distribution passes through up to three stages, always
in this order: likelihood rebalancing, temperature, then top-k truncation.
Each stage returns its input object untouched when it would be a no-op
(identity likelihood, temperature exactly 1, truncation that removes no
mass), so a pipeline of no-ops reproduces the raw prior bit for bit.
`step_posterior` is the one place that runs this pipeline: `sample_grid`,
the grouped `batch_sample` path and the exact chain enumeration
`exact_sequence_distribution` all go through it.

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
from .prior import MarkovGridPrior, PriorModel
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

    A `MarkovGridPrior` whose context states fit one int64 code takes the
    vectorized path: it groups samples by their context state at each
    position and produces token sequences identical to `count` independent
    `sample_grid` calls.  Any other model runs that per-sample loop.
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    _check_sampling_args(model, height, width, semantics, config)
    if not isinstance(model, MarkovGridPrior) or (
        (model.codebook_size + 1) ** len(model.context) > 2**63
    ):
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
    # Posterior pipelines repeat across positions and groups; memoize them on
    # the identity of the (cached) prior object and selected guidance vector.
    posterior_memo: dict = {}

    for i in range(height * width):
        row, col = divmod(i, width)
        draws = unit_draws_for_keys(keys, i)
        columns = []
        for dr, dc in model.context:
            rr, cc = row + dr, col + dc
            if 0 <= rr < height and 0 <= cc < width:
                columns.append(grids[:, rr, cc])
            else:
                columns.append(np.full(count, -1, dtype=np.int64))
        # batch_sample routes templates whose codes could pass 2**63 elsewhere.
        code = np.zeros(count, dtype=np.int64)
        stride = 1
        for column in columns:
            code += (column + 1) * stride
            stride *= model.codebook_size + 1
        label = None
        if model.conditional:
            label = int(semantics.labels[row, col])
        vector = None
        if config.guidance is not None:
            vector = select_likelihood(config.guidance, (row, col), semantics, shape)

        order = np.argsort(code, kind="stable")
        sorted_codes = code[order]
        bounds = np.flatnonzero(np.diff(sorted_codes)) + 1
        for group in np.split(order, bounds):
            first = group[0]
            context = tuple(int(column[first]) for column in columns)
            prior = model.distribution_for_context(context, label)
            memo_key = (id(prior), id(vector))
            cached = posterior_memo.get(memo_key)
            if cached is None:
                dist = _posterior(prior, vector, config)
                cached = (dist.probs, np.cumsum(dist.probs))
                posterior_memo[memo_key] = cached
            probs, cumulative = cached
            us = draws[group]
            picked = np.searchsorted(cumulative, us, side="left")
            oob = picked >= probs.shape[0]
            picked = np.where(oob, probs.shape[0] - 1, picked)
            needs_scalar = oob | (probs[picked] <= 0.0)
            if needs_scalar.any():
                for j in np.flatnonzero(needs_scalar):
                    picked[j] = index_from_unit(probs, cumulative, float(us[j]))
            grids[group, row, col] = picked

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
