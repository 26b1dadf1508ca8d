"""Synthetic benchmark worlds with known style structure.

A scene couples a semantic label map (from a layout rule) with a token
grid drawn from a style: each style owns one token distribution per label
plus a left-copy coherence probability that introduces the short-range
horizontal correlation a learned prior can pick up.  Because every scene
records which style produced it, benchmarks built here have ground truth
for classification and guidance experiments.

Determinism contract: a scene is a pure function of (style, layout,
height, width, seed).  The layout consumes stream split_seed(seed, 0);
tokens consume stream split_seed(seed, 1) with two counters per raster
position (2i for the coherence draw, 2i+1 for the token draw), so every
position's draws are independent of grid traversal order.  Scenes are
drawn together in chunks of about `_CHUNK_POSITIONS` positions; since each
draw is keyed by (scene seed, counter) and each token is searched on its
own, how scenes are grouped into chunks cannot change a byte.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .core import (
    MALFORMED_JSON, GridRun, SemanticGrid, TokenBatch, TokenGrid, ValidationError, _readonly, _typed, check_rows,
    require_same_shape,
)
from .formats import (
    GRID_VOCAB_LIMIT, dump_json, load_json, read_semantic_grid, read_token_grid, write_semantic_grid, write_token_grid
)
from .rng import MASK64, inverse_cdf_rows, mix64_array, split_seed, split_seed_array, unit_draws_at

LAYOUT_KINDS = ("horizon", "bands", "constant")
# LayoutSpec's optional fields, and a benchmark config's integer fields.
_LAYOUT_FIELDS = ("min_row", "max_row", "bands", "label")
_CONFIG_INTS = ("codebook_size", "label_count", "height", "width", "corpus_size", "exemplars_per_style", "seed")

# Stream indices under a benchmark seed.
_STREAM_ASSIGN = 0
_STREAM_LAYOUT = 1
_STREAM_SCENES = 2
_STREAM_EXEMPLARS = 3

# Grid positions drawn together in one chunk of scenes (at least one scene).
_CHUNK_POSITIONS = 2**16
# Most positions one scene and most scenes (corpus and exemplars) one benchmark may hold.
GRID_POSITION_LIMIT = 2**20
SCENE_LIMIT = 2**16


@dataclass(frozen=True, eq=False)
class StyleSpec:
    """Named per-label token distributions with left-copy coherence.

    ``per_label`` is a read-only (labels, K) array: one probability row per
    label, each summing to one.
    """

    name: str
    per_label: np.ndarray
    coherence: float = 0.0

    def __post_init__(self) -> None:
        # The name is the style's exemplar directory under <out>/exemplars.
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ValidationError(
                f"style name {name!r} must be a non-empty string usable as one directory name"
            )
        rows = [np.asarray(row, dtype=np.float64) for row in self.per_label]
        if not rows:
            raise ValidationError(f"style {name!r} has no label distributions")
        if len({row.shape for row in rows}) > 1:
            raise ValidationError(f"style {name!r} mixes codebook sizes")
        probs = np.stack(rows)
        if not check_rows(probs, np.zeros(len(probs))).all():
            raise ValidationError(f"style {name!r} has an all-zero label distribution")
        if not (0.0 <= self.coherence < 1.0):
            raise ValidationError(f"coherence must lie in [0, 1), got {self.coherence}")
        object.__setattr__(self, "per_label", _readonly(probs))

    @property
    def codebook_size(self) -> int:
        return self.per_label.shape[1]

    @property
    def label_count(self) -> int:
        return len(self.per_label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StyleSpec):
            return NotImplemented
        same = (self.name, self.coherence) == (other.name, other.coherence)
        return same and np.array_equal(self.per_label, other.per_label)


@dataclass(frozen=True)
class LayoutSpec:
    """Rule producing a semantic label map.

    kind "horizon": label 0 above a seed-chosen row in [min_row, max_row],
    label 1 below.  kind "bands": `bands` equal horizontal stripes cycling
    through labels.  kind "constant": a single label everywhere.
    """

    kind: str
    min_row: int | None = None
    max_row: int | None = None
    bands: int | None = None
    label: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in LAYOUT_KINDS:
            raise ValidationError(f"unknown layout kind {self.kind!r}; choose from {LAYOUT_KINDS}")
        if self.kind == "bands" and (self.bands is None or self.bands < 1):
            raise ValidationError("bands layout requires bands >= 1")
        if self.kind == "constant" and (self.label is None or self.label < 0):
            raise ValidationError("constant layout requires a label >= 0")

    def to_dict(self) -> dict:
        values = {key: getattr(self, key) for key in _LAYOUT_FIELDS}
        return {"kind": self.kind, **{key: value for key, value in values.items() if value is not None}}

    @staticmethod
    def from_dict(payload: dict) -> "LayoutSpec":
        if "kind" not in payload:
            raise ValidationError("layout entry: missing key 'kind'")
        extra = set(payload) - {"kind", *_LAYOUT_FIELDS}
        if extra:
            raise ValidationError(f"layout entry: unknown key {sorted(extra)[0]!r}")
        return LayoutSpec(**{
            key: value if key == "kind" or value is None else _typed(value, int)
            for key, value in payload.items()
        })


def _layout_rows(
    layout: LayoutSpec, height: int, label_count: int, us: np.ndarray
) -> np.ndarray:
    """Row labels, (len(us), height), of scenes under `layout`; a horizon
    scene's split row comes from its unit draw us[j]."""
    rows = np.arange(height)
    if layout.kind == "horizon":
        if label_count < 2:
            raise ValidationError("horizon layout requires at least 2 labels")
        lo = 1 if layout.min_row is None else layout.min_row
        hi = height - 1 if layout.max_row is None else layout.max_row
        if not (0 <= lo <= hi <= height):
            raise ValidationError(f"horizon range [{lo}, {hi}] invalid for height {height}")
        split = np.minimum(lo + (us * (hi - lo + 1)).astype(np.int64), hi)
        return np.where(rows < split[:, None], 0, 1)
    if layout.kind == "bands":
        row_labels = ((rows * layout.bands) // height) % label_count
    else:
        if layout.label >= label_count:
            raise ValidationError(
                f"constant layout label {layout.label} out of range (label count {label_count})"
            )
        row_labels = np.full(height, layout.label)
    return np.broadcast_to(row_labels, (us.size, height))


def generate_scenes(
    styles: Sequence[StyleSpec], layouts: Sequence[LayoutSpec], height: int, width: int,
    seeds: Sequence[int],
) -> Iterator[tuple[TokenGrid, SemanticGrid]]:
    """Yield scene j, `(tokens, semantics)` of (styles[j], layouts[j], seeds[j]), in order.

    Scenes are drawn together, about `_CHUNK_POSITIONS` grid positions (and
    at least one scene) at a time, so memory stays bounded for any count.
    Each chunk takes one draw matrix over (2 H W counters x scenes), one
    `inverse_cdf_rows` search over the stacked (style x label) rows, and
    copies coherent tokens as a forward fill along each row.  Chunking
    cannot change a byte: every draw is keyed by (scene seed, counter), and
    the search treats each draw on its own.  All styles of one call share
    a codebook size and label count.
    """
    distinct = {id(style): style for style in styles}
    if not distinct:
        return
    style_code = {key: i for i, key in enumerate(distinct)}
    layout_code = {layout: i for i, layout in enumerate(dict.fromkeys(layouts))}
    style_idx = np.array([style_code[id(style)] for style in styles], dtype=np.int64)
    layout_idx = np.array([layout_code[layout] for layout in layouts], dtype=np.int64)
    seed_arr = np.fromiter((seed & MASK64 for seed in seeds), np.uint64, style_idx.size)
    (size, label_count), *mixed = {(s.codebook_size, s.label_count) for s in distinct.values()}
    if mixed:
        raise ValidationError("scenes drawn together must share a codebook size and label count")
    probs = np.concatenate([style.per_label for style in distinct.values()])
    cumulative = np.cumsum(probs, axis=1)
    coherence = np.array([style.coherence for style in distinct.values()])
    counters = np.arange(2 * height * width, dtype=np.uint64)
    per_chunk = max(1, _CHUNK_POSITIONS // (height * width))
    for start in range(0, style_idx.size, per_chunk):
        chunk = slice(start, start + per_chunk)
        s, chunk_seeds = style_idx[chunk], seed_arr[chunk]
        layout_us = unit_draws_at(mix64_array(split_seed_array(chunk_seeds, [0])), counters[:1])[0]
        rows = np.stack([_layout_rows(layout, height, label_count, layout_us) for layout in layout_code])
        labels = np.repeat(rows[layout_idx[chunk], np.arange(s.size), :, None], width, axis=2)
        # Counter 2i is position i's coherence draw and 2i + 1 its token draw.
        us = unit_draws_at(mix64_array(split_seed_array(chunk_seeds, [1])), counters)
        us = us.T.reshape(s.size, height, width, 2)
        fresh = inverse_cdf_rows(
            probs, cumulative, (s[:, None, None] * label_count + labels).ravel(), us[..., 1].ravel()
        ).reshape(labels.shape)
        # A coherent position copies its left neighbor, which copies its own
        # left neighbor in turn: each takes the token of the nearest fresh
        # column at or to its left.
        source = np.broadcast_to(np.arange(width), labels.shape).copy()
        copied = (us[..., 1:, 0] < coherence[s, None, None]) & (labels[..., 1:] == labels[..., :-1])
        source[..., 1:][copied] = 0
        tokens = np.take_along_axis(fresh, np.maximum.accumulate(source, axis=2), axis=2)
        for grid, label_map in zip(tokens, labels):
            yield TokenGrid(height, width, size, grid), SemanticGrid(height, width, label_count, label_map)


def _style_from_dict(payload: dict, codebook_size: int, label_count: int) -> StyleSpec:
    if "name" not in payload:
        raise ValidationError("style entry: missing key 'name'")
    name = payload["name"]
    raw = payload.get("per_label")
    if raw is None:
        raise ValidationError(f"style {name!r}: missing key 'per_label'")
    if len(raw) != label_count:
        raise ValidationError(
            f"style {name!r}: expected {label_count} label distributions, got {len(raw)}"
        )
    rows = []
    for j, entry in enumerate(raw):
        where = f"style {name!r} label {j}"
        if "probs" in entry:
            weights = np.asarray(entry["probs"], dtype=float)
            if weights.shape != (codebook_size,):
                raise ValidationError(f"{where}: probs length {weights.shape[0]} != codebook size {codebook_size}")
            bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0.0)))
            if bad.size:
                raise ValidationError(f"{where}: probs entry {weights[bad[0]]} at index {bad[0]} is not finite and >= 0")
        elif "support" in entry:
            support = np.array([_typed(t, int) for t in entry["support"]], dtype=np.int64)
            if not support.size:
                raise ValidationError(f"{where}: empty support")
            bad = support[(support < 0) | (support >= codebook_size)]
            if bad.size:
                raise ValidationError(
                    f"{where}: support token {bad[0]} out of range for codebook size {codebook_size}"
                )
            weights = np.bincount(support, minlength=codebook_size).astype(float)
        else:
            raise ValidationError(f"{where}: needs either 'probs' or 'support'")
        total = weights.sum()
        if total <= 0:
            raise ValidationError(f"{where}: zero total mass")
        rows.append(weights / total)
    return StyleSpec(name=name, per_label=rows, coherence=float(payload.get("coherence", 0.0)))


@dataclass(frozen=True)
class BenchmarkConfig:
    """Full recipe for a benchmark: styles, layouts, sizes, and seed."""

    name: str
    codebook_size: int
    label_count: int
    height: int
    width: int
    corpus_size: int
    exemplars_per_style: int
    seed: int
    styles: tuple[StyleSpec, ...]
    layouts: tuple[LayoutSpec, ...]
    mixture_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if min(self.height, self.width, self.corpus_size) < 1:
            raise ValidationError("height, width, and corpus_size must be positive")
        if self.exemplars_per_style < 1:
            raise ValidationError("exemplars_per_style must be positive")
        if not self.styles:
            raise ValidationError("benchmark needs at least one style")
        if self.height * self.width > GRID_POSITION_LIMIT:
            raise ValidationError(f"{self.height}x{self.width} scenes exceed the limit of {GRID_POSITION_LIMIT} positions")
        scenes = self.corpus_size + len(self.styles) * self.exemplars_per_style
        if scenes > SCENE_LIMIT:
            raise ValidationError(f"{scenes} scenes exceed the limit of {SCENE_LIMIT}")
        if not self.layouts:
            raise ValidationError("benchmark needs at least one layout")
        object.__setattr__(self, "styles", tuple(self.styles))
        object.__setattr__(self, "layouts", tuple(self.layouts))
        for style in self.styles:
            if style.codebook_size != self.codebook_size:
                raise ValidationError(
                    f"style {style.name!r} codebook size {style.codebook_size} "
                    f"!= benchmark codebook size {self.codebook_size}"
                )
            if style.label_count != self.label_count:
                raise ValidationError(
                    f"style {style.name!r} has {style.label_count} label "
                    f"distributions; benchmark declares {self.label_count}"
                )
        names = [s.name for s in self.styles]
        if len(set(names)) != len(names):
            raise ValidationError("style names must be unique")
        if self.mixture_weights is not None:
            weights = tuple(float(w) for w in self.mixture_weights)
            if len(weights) != len(self.styles):
                raise ValidationError(
                    f"{len(weights)} mixture weights for {len(self.styles)} styles"
                )
            if not all(0 <= w < np.inf for w in weights) or sum(weights) <= 0:
                raise ValidationError(
                    "mixture weights must be finite and non-negative with positive sum"
                )
            object.__setattr__(self, "mixture_weights", weights)

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            **{key: getattr(self, key) for key in _CONFIG_INTS},
            "styles": [
                {
                    "name": s.name,
                    "coherence": s.coherence,
                    "per_label": [{"probs": row.tolist()} for row in s.per_label],
                }
                for s in self.styles
            ],
            "layouts": [layout.to_dict() for layout in self.layouts],
        }
        if self.mixture_weights is not None:
            payload["mixture_weights"] = list(self.mixture_weights)
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "BenchmarkConfig":
        """Decode a config; any malformed field raises ValidationError."""
        for field in fields(BenchmarkConfig):
            if field.default is MISSING and field.name not in payload:
                raise ValidationError(f"benchmark config: missing key {field.name!r}")
        try:
            ints = {key: _typed(payload[key], int) for key in _CONFIG_INTS}
            size = ints["codebook_size"]
            if size > GRID_VOCAB_LIMIT:
                raise ValidationError(f"codebook size {size} exceeds the limit {GRID_VOCAB_LIMIT}")
            styles = tuple(_style_from_dict(entry, size, ints["label_count"]) for entry in payload["styles"])
            layouts = tuple(LayoutSpec.from_dict(entry) for entry in payload["layouts"])
            weights = payload.get("mixture_weights")
            return BenchmarkConfig(
                name=str(payload["name"]),
                **ints,
                styles=styles,
                layouts=layouts,
                mixture_weights=None if weights is None else tuple(weights),
            )
        except ValidationError:
            raise
        except MALFORMED_JSON as exc:
            raise ValidationError(f"benchmark config: malformed ({exc})") from exc


def _warn_on_similar_styles(styles: tuple[StyleSpec, ...]) -> None:
    # Guidance and classification both rely on styles being tellable apart;
    # flag pairs whose best-separated label distribution still mostly overlaps.
    for a, b in itertools.combinations(styles, 2):
        sep = max(0.5 * np.abs(da - db).sum() for da, db in zip(a.per_label, b.per_label))
        if sep < 0.5:
            warnings.warn(
                f"styles {a.name!r} and {b.name!r} have similar per-label "
                f"token distributions (max total variation {sep:.3f}); "
                "style experiments may be inconclusive"
            )


def _files(stem: str) -> dict:
    return {"tokens": f"{stem}.tgrd", "semantics": f"{stem}.sgrd"}


def make_benchmark(config: BenchmarkConfig, out_dir: str | Path) -> dict:
    """Write corpus scenes, per-style exemplars, and a manifest.

    Returns the manifest dict; rerunning with the same config reproduces
    every output byte for byte.
    """
    _warn_on_similar_styles(config.styles)
    out = Path(out_dir)
    styles, layouts, per_style = config.styles, config.layouts, config.exemplars_per_style
    for directory in ["corpus", *(f"exemplars/{style.name}" for style in styles)]:
        (out / directory).mkdir(parents=True, exist_ok=True)
    weights = np.asarray(config.mixture_weights or [1.0 / len(styles)] * len(styles), dtype=float)
    weights = weights / weights.sum()

    # Scene i's style and layout draw counter i of their own streams.
    keys = mix64_array(split_seed_array(config.seed, [_STREAM_ASSIGN, _STREAM_LAYOUT]))
    us = unit_draws_at(keys, np.arange(config.corpus_size, dtype=np.uint64))
    style_idx = inverse_cdf_rows(
        weights[None], np.cumsum(weights)[None], np.zeros(len(us), dtype=np.int64), us[:, 0]
    ).tolist()
    layout_idx = np.minimum((us[:, 1] * len(layouts)).astype(np.int64), len(layouts) - 1).tolist()

    scene_base = split_seed(config.seed, _STREAM_SCENES)
    exemplar_base = split_seed(config.seed, _STREAM_EXEMPLARS)
    scenes = [
        {**_files(f"corpus/scene_{i:05d}"), "style": styles[k].name, "seed": split_seed(scene_base, i)}
        for i, k in enumerate(style_idx)
    ]
    exemplars = {
        style.name: [
            {**_files(f"exemplars/{style.name}/ex_{e:02d}"),
             "seed": split_seed(split_seed(exemplar_base, k), e)}
            for e in range(per_style)
        ]
        for k, style in enumerate(styles)
    }
    # One job per scene: the corpus, then each style's exemplars.
    entries = scenes + [entry for group in exemplars.values() for entry in group]
    drawn = generate_scenes(
        [styles[k] for k in style_idx] + [style for style in styles for _ in range(per_style)],
        [layouts[k] for k in layout_idx] + [layouts[e % len(layouts)] for _ in styles for e in range(per_style)],
        config.height,
        config.width,
        [entry["seed"] for entry in entries],
    )
    for entry, (grid, semantics) in zip(entries, drawn):
        write_token_grid(out / entry["tokens"], grid)
        write_semantic_grid(out / entry["semantics"], semantics)

    manifest = {
        "name": config.name,
        "codebook_size": config.codebook_size,
        "label_count": config.label_count,
        "height": config.height,
        "width": config.width,
        "seed": config.seed,
        "style_names": [style.name for style in styles],
        "scenes": scenes,
        "exemplars": exemplars,
    }
    dump_json(out / "manifest.json", manifest)
    return manifest


def load_manifest(bench_dir: str | Path, key: str = "scenes") -> dict:
    path = Path(bench_dir) / "manifest.json"
    if not path.exists():
        raise ValidationError(f"{bench_dir}: no manifest.json")
    manifest = load_json(path)
    if not isinstance(manifest, dict) or key not in manifest:
        raise ValidationError(f"{path}: manifest has no {key!r} list")
    return manifest


def grid_entries(directory: str | Path, key: str) -> list:
    """A grid directory's entries: its manifest's `key` list when it has a
    manifest, else each sorted *.tgrd with its sibling .sgrd when one exists."""
    base = Path(directory)
    if (base / "manifest.json").exists():
        return load_manifest(base, key)[key]
    return [
        {"tokens": path.name, "semantics": (sem := path.with_suffix(".sgrd")).exists() and sem.name}
        for path in sorted(base.glob("*.tgrd"))
    ]


def iter_entries(
    base: Path, entries: list[dict], with_semantics: bool
) -> Iterator[tuple[TokenGrid, SemanticGrid | None]]:
    """Each manifest entry's token grid under base, and its "semantics" map
    when asked, read one entry at a time; entries that name no such paths
    raise ValidationError when reached."""
    if not isinstance(entries, list):
        raise ValidationError(f"{base}: manifest entries must be a list")
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("tokens"), str)
            and isinstance(entry.get("semantics") or "", str)
        ):
            raise ValidationError(
                f"{base}: manifest entry {i} must name its 'tokens' (and any 'semantics') file"
            )
        grid = read_token_grid(base / entry["tokens"])
        semantics = None
        if with_semantics and entry.get("semantics"):
            semantics = read_semantic_grid(base / entry["semantics"])
        yield grid, semantics


def load_corpus(
    bench_dir: str | Path, with_semantics: bool = True
) -> list[tuple[TokenGrid, SemanticGrid | None]]:
    base = Path(bench_dir)
    return list(iter_entries(base, load_manifest(base)["scenes"], with_semantics))


def load_exemplars(
    bench_dir: str | Path, style: str, with_semantics: bool = True
) -> list[tuple[TokenGrid, SemanticGrid | None]]:
    base = Path(bench_dir)
    exemplars = load_manifest(base, "exemplars")["exemplars"]
    if not isinstance(exemplars, dict):
        raise ValidationError(f"{base / 'manifest.json'}: 'exemplars' must map style names to lists")
    entries = exemplars.get(style)
    if not entries:
        raise ValidationError(f"{bench_dir}: no exemplars recorded for style {style!r}")
    return list(iter_entries(base, entries, with_semantics))


def load_grid_directory(
    directory: str | Path, with_semantics: bool = True, keep_semantics: bool | None = None
) -> list[GridRun]:
    """A corpus directory's `grid_entries` under "scenes", packed: runs of
    consecutive grids of one shape, codebook size and (kept) label count.

    Each file is read and checked as `iter_entries` reads it, maps too with
    `with_semantics`, and copied into its run's read-only arrays: tokens in
    `np.min_scalar_type(-K)` (one byte each up to K = 128) and, with
    `keep_semantics` (default `with_semantics`), labels in the label count's
    smallest type.  An empty directory raises at once.
    """
    entries = grid_entries(directory, "scenes")
    if entries == []:
        raise ValidationError(f"{directory}: no token grids found")
    keep = with_semantics if keep_semantics is None else keep_semantics
    runs, key = [], None
    for read, (grid, sem) in enumerate(iter_entries(Path(directory), entries, with_semantics)):
        sem = sem if keep else None
        if sem is not None:
            require_same_shape(grid, sem)
        found = (grid.tokens.shape, grid.codebook_size, sem and sem.label_count)
        if found != key:
            if key:
                runs.append(_packed_run(key, tokens, labels, filled))
            key, filled = found, 0
            tokens = np.empty((len(entries) - read, *key[0]), np.min_scalar_type(-key[1]))
            labels = sem and np.empty(tokens.shape, np.min_scalar_type(-key[2]))
        tokens[filled] = grid.tokens
        if sem is not None:
            labels[filled] = sem.labels
        filled += 1
    runs.append(_packed_run(key, tokens, labels, filled))
    return runs


def _packed_run(key: tuple, tokens: np.ndarray, labels: np.ndarray | None, filled: int) -> GridRun:
    """A run of the first `filled` grids read, copied out of arrays with room to spare."""
    tokens, labels = (a if a is None or filled == len(a) else a[:filled].copy() for a in (tokens, labels))
    return GridRun(TokenBatch(_readonly(tokens), key[1]), labels if labels is None else _readonly(labels), key[2])


def default_landscape_config() -> BenchmarkConfig:
    """Four styles on a 32-token codebook, two labels, overlapping windows.

    Style k draws label-0 tokens uniformly from an 8-wide window of the
    lower half of the codebook starting at 4k (wrapping within the half),
    and label-1 tokens from the mirrored window of the upper half.
    Adjacent styles share half a window; styles two apart are disjoint.
    """
    styles = []
    for k in range(4):
        support0 = [(4 * k + m) % 16 for m in range(8)]
        support1 = [16 + (4 * k + m) % 16 for m in range(8)]
        per_label = np.zeros((2, 32))
        for row, support in zip(per_label, (support0, support1)):
            row[support] = 1.0 / len(support)
        styles.append(StyleSpec(name=f"style{k}", per_label=per_label, coherence=0.6))
    layouts = (
        LayoutSpec(kind="horizon", min_row=6, max_row=16),
        LayoutSpec(kind="horizon", min_row=16, max_row=26),
        LayoutSpec(kind="bands", bands=2),
    )
    return BenchmarkConfig(
        name="landscape-2x4",
        codebook_size=32,
        label_count=2,
        height=32,
        width=32,
        corpus_size=2000,
        exemplars_per_style=8,
        seed=7,
        styles=tuple(styles),
        layouts=layouts,
    )


def spatial_contrast_config() -> BenchmarkConfig:
    """Two styles whose global token histograms are identical.

    Both fill half the grid from tokens [0, 8) and half from [8, 16); they
    differ only in which half of the grid gets which token range, so global
    statistics cannot tell them apart but per-cell statistics can.
    """
    low = np.zeros(16)
    low[:8] = 1.0 / 8
    high = low[::-1]
    styles = (
        StyleSpec(name="low-high", per_label=(low, high), coherence=0.5),
        StyleSpec(name="high-low", per_label=(high, low), coherence=0.5),
    )
    return BenchmarkConfig(
        name="spatial-swap-2",
        codebook_size=16,
        label_count=2,
        height=16,
        width=16,
        corpus_size=1000,
        exemplars_per_style=10,
        seed=11,
        styles=styles,
        layouts=(LayoutSpec(kind="bands", bands=2),),
    )
