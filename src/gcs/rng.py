"""Counter-based deterministic random streams.

Every random decision in this package is a pure function of a 64-bit key and
a draw counter, so results never depend on evaluation order, batching, or
parallelism.  The construction is the splitmix64 finalizer applied to a
Weyl sequence:

    draw(key, n)  = mix64(key + (n + 1) * GOLDEN   mod 2^64)
    child(seed,i) = mix64((seed XOR SPLIT_SALT) + (i + 1) * GOLDEN  mod 2^64)

``mix64`` is the standard splitmix64 avalanche function; GOLDEN is the odd
64-bit golden-ratio constant; SPLIT_SALT separates the substream-derivation
domain from the draw domain so a child seed never collides with a parent
draw.  Scalar (Python int) and vectorized (uint64 ndarray) variants are
bit-identical, which the test suite checks.

`index_from_unit` and `inverse_cdf_rows`, its binary search over many
rows, pick every token of the sampler and the world from a unit draw.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
SPLIT_SALT = 0x5851F42D4C957F2D

_U53_SCALE = 2.0**-53


def mix64(x: int) -> int:
    """splitmix64 finalizer: a 64-bit bijection with full avalanche."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array (wrapping arithmetic)."""
    x = x.astype(np.uint64, copy=True)
    return _mix64_in_place(x, np.empty_like(x))


def _mix64_in_place(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`mix64_array` written over x, with a same-shape scratch for the shifts."""
    x ^= np.right_shift(x, np.uint64(30), out=scratch)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=scratch)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def seed_key(seed: int) -> int:
    """Map an arbitrary integer seed to the 64-bit key of its draw stream."""
    return mix64(seed & MASK64)


def split_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th substream of ``seed`` (index >= 0)."""
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    return mix64(((seed & MASK64) ^ SPLIT_SALT) + (index + 1) * GOLDEN)


def split_seed_array(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`split_seed`: a seed (an int or a uint64 array of
    seeds) broadcast against substream indices."""
    idx = np.asarray(indices, dtype=np.uint64)
    base = np.asarray(seed & MASK64, dtype=np.uint64) ^ np.uint64(SPLIT_SALT)
    return mix64_array(base + (idx + np.uint64(1)) * np.uint64(GOLDEN))


def draw_u64(key: int, counter: int) -> int:
    """The ``counter``-th raw 64-bit draw of the stream with this key."""
    return mix64(key + (counter + 1) * GOLDEN)


def unit_draw(key: int, counter: int) -> float:
    """The ``counter``-th draw as a float in [0, 1) with 53-bit resolution."""
    return (draw_u64(key, counter) >> 11) * _U53_SCALE


def unit_draws_for_keys(keys: np.ndarray, counter: int) -> np.ndarray:
    """One unit draw at a fixed counter for each key in a uint64 array."""
    return unit_draws_at(keys, np.array([counter], dtype=np.uint64))[0]


def unit_draws_at(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Draws of many streams at many counters: [j, i] is unit_draw(keys[i], counters[j]).

    The raw draws of `draws_u64_at` shifted right by 11, times 2^-53; at
    most two result-sized buffers are live at once.
    """
    x = draws_u64_at(keys, counters)
    x >>= np.uint64(11)
    return x * _U53_SCALE


def draws_u64_at(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Raw draws of many streams at many counters: [j, i] is draw_u64(keys[i], counters[j]).

    Works in two result-sized uint64 buffers: the mixed sums, which it
    returns, and a scratch for the shifts.
    """
    c = np.asarray(counters, dtype=np.uint64)[:, None]
    x = np.asarray(keys, dtype=np.uint64) + (c + np.uint64(1)) * np.uint64(GOLDEN)
    return _mix64_in_place(x, np.empty_like(x))


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


def draw_indices(population: int, count: int, seed: int) -> np.ndarray:
    """``count`` uniform draws (with replacement) from range(population).

    Uses the seed's draw stream at counters 0..count-1.  The modulo bias is
    at most population / 2^64 per draw, negligible for any realistic corpus.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    key = seed_key(seed)
    raw = mix64_array(
        np.uint64(key) + (np.arange(1, count + 1, dtype=np.uint64)) * np.uint64(GOLDEN)
    )
    return (raw % np.uint64(population)).astype(np.int64)
