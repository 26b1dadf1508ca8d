"""Output checks and work counts taken from returned grids."""

from __future__ import annotations

import hashlib

import numpy as np

from gcs.formats import token_grid_to_bytes
from gcs.rng import split_seed
from gcs.sampler import SamplingConfig, sample_grid


def grids_digest(grids) -> str:
    h = hashlib.sha256()
    for grid in grids:
        h.update(token_grid_to_bytes(grid))
    return h.hexdigest()


def matches_scalar(model, grids, seed, semantics, guidance, temperature, top_k) -> bool:
    """Grid i must equal `sample_grid` run with stream seed split_seed(seed, i)."""
    for i, grid in enumerate(grids):
        config = SamplingConfig(
            seed=split_seed(seed, i), temperature=temperature, top_k=top_k, guidance=guidance
        )
        if sample_grid(model, grid.height, grid.width, semantics, config) != grid:
            return False
    return True


def context_groups(grids, context, codebook_size: int) -> int:
    """Distinct context tuples per raster position, summed over positions.

    This is the number of (position, context) groups the raster sampler
    visits; every sample at a position shares its semantic label, so the
    label never splits a group.
    """
    tokens = np.stack([np.asarray(g.tokens, dtype=np.int64) for g in grids])
    count, height, width = tokens.shape
    padded = np.full((count, height + 1, width + 2), -1, dtype=np.int64)
    padded[:, 1:, 1:-1] = tokens
    code = np.zeros((count, height, width), dtype=np.int64)
    for dr, dc in context:
        shifted = padded[:, 1 + dr : 1 + dr + height, 1 + dc : 1 + dc + width]
        code = code * (codebook_size + 1) + shifted + 1
    ordered = np.sort(code.reshape(count, -1), axis=0)
    return int(ordered.shape[1] + np.count_nonzero(np.diff(ordered, axis=0)))
