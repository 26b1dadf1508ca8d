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
position's draws are independent of grid traversal order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CategoricalDistribution,
    SemanticGrid,
    TokenGrid,
    ValidationError,
)
from .formats import dump_json, load_json, read_semantic_grid, read_token_grid, write_semantic_grid, write_token_grid
from .rng import seed_key, split_seed, unit_draw, unit_draws_for_counters
from .sampler import index_from_unit, inverse_cdf_rows

LAYOUT_KINDS = ("horizon", "bands", "constant")

# Stream indices under a benchmark seed.
_STREAM_ASSIGN = 0
_STREAM_LAYOUT = 1
_STREAM_SCENES = 2
_STREAM_EXEMPLARS = 3


@dataclass(frozen=True)
class StyleSpec:
    """Named per-label token distributions with left-copy coherence."""

    name: str
    per_label: tuple[CategoricalDistribution, ...]
    coherence: float = 0.0

    def __post_init__(self) -> None:
        # The name is the style's exemplar directory under <out>/exemplars.
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ValidationError(
                f"style name {name!r} must be a non-empty string usable as one directory name"
            )
        if not self.per_label:
            raise ValidationError(f"style {self.name!r} has no label distributions")
        object.__setattr__(self, "per_label", tuple(self.per_label))
        size = self.per_label[0].codebook_size
        for dist in self.per_label:
            if dist.codebook_size != size:
                raise ValidationError(
                    f"style {self.name!r} mixes codebook sizes"
                )
        if not (0.0 <= self.coherence < 1.0):
            raise ValidationError(
                f"coherence must lie in [0, 1), got {self.coherence}"
            )

    @property
    def codebook_size(self) -> int:
        return self.per_label[0].codebook_size

    @property
    def label_count(self) -> int:
        return len(self.per_label)


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
            raise ValidationError(
                f"unknown layout kind {self.kind!r}; choose from {LAYOUT_KINDS}"
            )
        if self.kind == "bands" and (self.bands is None or self.bands < 1):
            raise ValidationError("bands layout requires bands >= 1")
        if self.kind == "constant" and (self.label is None or self.label < 0):
            raise ValidationError("constant layout requires a label >= 0")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for key in ("min_row", "max_row", "bands", "label"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @staticmethod
    def from_dict(payload: dict) -> "LayoutSpec":
        if "kind" not in payload:
            raise ValidationError("layout entry: missing key 'kind'")
        known = {"kind", "min_row", "max_row", "bands", "label"}
        extra = set(payload) - known
        if extra:
            raise ValidationError(f"layout entry: unknown key {sorted(extra)[0]!r}")
        return LayoutSpec(**{
            key: value if key == "kind" or value is None else int(value)
            for key, value in payload.items()
        })


def realize_layout(
    layout: LayoutSpec, height: int, width: int, label_count: int, seed: int
) -> SemanticGrid:
    rows = np.arange(height)
    if layout.kind == "horizon":
        if label_count < 2:
            raise ValidationError("horizon layout requires at least 2 labels")
        lo = 1 if layout.min_row is None else layout.min_row
        hi = height - 1 if layout.max_row is None else layout.max_row
        if not (0 <= lo <= hi <= height):
            raise ValidationError(
                f"horizon range [{lo}, {hi}] invalid for height {height}"
            )
        u = unit_draw(seed_key(seed), 0)
        split = min(lo + int(u * (hi - lo + 1)), hi)
        row_labels = np.where(rows < split, 0, 1)
    elif layout.kind == "bands":
        row_labels = ((rows * layout.bands) // height) % label_count
    else:
        if layout.label >= label_count:
            raise ValidationError(
                f"constant layout label {layout.label} out of range "
                f"(label count {label_count})"
            )
        row_labels = np.full(height, layout.label)
    labels = np.repeat(row_labels[:, None], width, axis=1)
    return SemanticGrid(height, width, label_count, labels)


def generate_scene(
    style: StyleSpec,
    layout: LayoutSpec,
    height: int,
    width: int,
    seed: int,
) -> tuple[TokenGrid, SemanticGrid]:
    """Realize a layout and fill it with style-drawn tokens.

    Both draws are consumed at every position, including column 0 and
    positions whose left neighbor has a different label, so the stream
    stays aligned with position indices regardless of layout content.
    """
    semantics = realize_layout(layout, height, width, style.label_count, split_seed(seed, 0))
    key = seed_key(split_seed(seed, 1))
    n = height * width
    counters = np.arange(n, dtype=np.uint64)
    u_coherence = unit_draws_for_counters(key, counters * np.uint64(2))
    u_token = unit_draws_for_counters(key, counters * np.uint64(2) + np.uint64(1))

    probs = np.stack([dist.probs for dist in style.per_label])
    cumulative = np.cumsum(probs, axis=1)
    fresh = inverse_cdf_rows(probs, cumulative, semantics.flat, u_token)

    tokens = fresh.reshape(height, width)
    labels = semantics.labels
    copy = np.zeros((height, width), dtype=bool)
    if width > 1:
        coherent = u_coherence.reshape(height, width)[:, 1:] < style.coherence
        copy[:, 1:] = (labels[:, 1:] == labels[:, :-1]) & coherent
    for col in range(1, width):
        tokens[:, col] = np.where(copy[:, col], tokens[:, col - 1], tokens[:, col])

    return TokenGrid(height, width, style.codebook_size, tokens), semantics


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
    dists = []
    for j, entry in enumerate(raw):
        if "probs" in entry:
            probs = np.asarray(entry["probs"], dtype=float)
            if probs.shape != (codebook_size,):
                raise ValidationError(
                    f"style {name!r} label {j}: probs length {probs.shape[0]} "
                    f"!= codebook size {codebook_size}"
                )
            if not np.all(np.isfinite(probs)):
                raise ValidationError(
                    f"style {name!r} label {j}: probs contain non-finite entries"
                )
            total = probs.sum()
            if total <= 0:
                raise ValidationError(f"style {name!r} label {j}: zero total mass")
            dists.append(CategoricalDistribution(codebook_size, probs / total))
        elif "support" in entry:
            support = [int(t) for t in entry["support"]]
            if not support:
                raise ValidationError(f"style {name!r} label {j}: empty support")
            probs = np.zeros(codebook_size)
            for token in support:
                if not (0 <= token < codebook_size):
                    raise ValidationError(
                        f"style {name!r} label {j}: support token {token} "
                        f"out of range for codebook size {codebook_size}"
                    )
                probs[token] += 1.0
            dists.append(CategoricalDistribution(codebook_size, probs / probs.sum()))
        else:
            raise ValidationError(
                f"style {name!r} label {j}: needs either 'probs' or 'support'"
            )
    return StyleSpec(
        name=name,
        per_label=tuple(dists),
        coherence=float(payload.get("coherence", 0.0)),
    )


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
            "codebook_size": self.codebook_size,
            "label_count": self.label_count,
            "height": self.height,
            "width": self.width,
            "corpus_size": self.corpus_size,
            "exemplars_per_style": self.exemplars_per_style,
            "seed": self.seed,
            "styles": [
                {
                    "name": s.name,
                    "coherence": s.coherence,
                    "per_label": [
                        {"probs": [float(p) for p in d.probs]} for d in s.per_label
                    ],
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
        for key in (
            "name",
            "codebook_size",
            "label_count",
            "height",
            "width",
            "corpus_size",
            "exemplars_per_style",
            "seed",
            "styles",
            "layouts",
        ):
            if key not in payload:
                raise ValidationError(f"benchmark config: missing key {key!r}")
        try:
            size = int(payload["codebook_size"])
            label_count = int(payload["label_count"])
            styles = tuple(
                _style_from_dict(entry, size, label_count) for entry in payload["styles"]
            )
            layouts = tuple(LayoutSpec.from_dict(entry) for entry in payload["layouts"])
            weights = payload.get("mixture_weights")
            return BenchmarkConfig(
                name=str(payload["name"]),
                codebook_size=size,
                label_count=label_count,
                height=int(payload["height"]),
                width=int(payload["width"]),
                corpus_size=int(payload["corpus_size"]),
                exemplars_per_style=int(payload["exemplars_per_style"]),
                seed=int(payload["seed"]),
                styles=styles,
                layouts=layouts,
                mixture_weights=None if weights is None else tuple(weights),
            )
        except ValidationError:
            raise
        except (AttributeError, TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
            raise ValidationError(f"benchmark config: malformed ({exc})") from exc


def _warn_on_similar_styles(styles: tuple[StyleSpec, ...]) -> None:
    # Guidance and classification both rely on styles being tellable apart;
    # flag pairs whose best-separated label distribution still mostly overlaps.
    for i in range(len(styles)):
        for j in range(i + 1, len(styles)):
            a, b = styles[i], styles[j]
            sep = max(
                0.5 * np.abs(da.probs - db.probs).sum()
                for da, db in zip(a.per_label, b.per_label)
            )
            if sep < 0.5:
                warnings.warn(
                    f"styles {a.name!r} and {b.name!r} have similar per-label "
                    f"token distributions (max total variation {sep:.3f}); "
                    "style experiments may be inconclusive"
                )


def make_benchmark(config: BenchmarkConfig, out_dir: str | Path) -> dict:
    """Write corpus scenes, per-style exemplars, and a manifest.

    Returns the manifest dict; rerunning with the same config reproduces
    every output byte for byte.
    """
    _warn_on_similar_styles(config.styles)
    out = Path(out_dir)
    (out / "corpus").mkdir(parents=True, exist_ok=True)

    weights = config.mixture_weights
    if weights is None:
        weights = tuple(1.0 / len(config.styles) for _ in config.styles)
    weight_arr = np.asarray(weights, dtype=float)
    weight_arr = weight_arr / weight_arr.sum()
    weight_cum = np.cumsum(weight_arr)

    assign_key = seed_key(split_seed(config.seed, _STREAM_ASSIGN))
    layout_key = seed_key(split_seed(config.seed, _STREAM_LAYOUT))
    scene_base = split_seed(config.seed, _STREAM_SCENES)
    exemplar_base = split_seed(config.seed, _STREAM_EXEMPLARS)

    scenes = []
    for i in range(config.corpus_size):
        style_idx = index_from_unit(weight_arr, weight_cum, unit_draw(assign_key, i))
        layout_idx = min(
            int(unit_draw(layout_key, i) * len(config.layouts)),
            len(config.layouts) - 1,
        )
        scene_seed = split_seed(scene_base, i)
        grid, semantics = generate_scene(
            config.styles[style_idx],
            config.layouts[layout_idx],
            config.height,
            config.width,
            scene_seed,
        )
        tokens_rel = f"corpus/scene_{i:05d}.tgrd"
        sem_rel = f"corpus/scene_{i:05d}.sgrd"
        write_token_grid(out / tokens_rel, grid)
        write_semantic_grid(out / sem_rel, semantics)
        scenes.append(
            {
                "tokens": tokens_rel,
                "semantics": sem_rel,
                "style": config.styles[style_idx].name,
                "seed": scene_seed,
            }
        )

    exemplars: dict = {}
    for s, style in enumerate(config.styles):
        style_dir = out / "exemplars" / style.name
        style_dir.mkdir(parents=True, exist_ok=True)
        style_base = split_seed(exemplar_base, s)
        entries = []
        for e in range(config.exemplars_per_style):
            seed = split_seed(style_base, e)
            layout = config.layouts[e % len(config.layouts)]
            grid, semantics = generate_scene(
                style, layout, config.height, config.width, seed
            )
            tokens_rel = f"exemplars/{style.name}/ex_{e:02d}.tgrd"
            sem_rel = f"exemplars/{style.name}/ex_{e:02d}.sgrd"
            write_token_grid(out / tokens_rel, grid)
            write_semantic_grid(out / sem_rel, semantics)
            entries.append({"tokens": tokens_rel, "semantics": sem_rel, "seed": seed})
        exemplars[style.name] = entries

    manifest = {
        "name": config.name,
        "codebook_size": config.codebook_size,
        "label_count": config.label_count,
        "height": config.height,
        "width": config.width,
        "seed": config.seed,
        "style_names": [s.name for s in config.styles],
        "scenes": scenes,
        "exemplars": exemplars,
    }
    dump_json(out / "manifest.json", manifest)
    return manifest


def load_manifest(bench_dir: str | Path) -> dict:
    path = Path(bench_dir) / "manifest.json"
    if not path.exists():
        raise ValidationError(f"{bench_dir}: no manifest.json")
    manifest = load_json(path)
    if not isinstance(manifest, dict) or "scenes" not in manifest:
        raise ValidationError(f"{path}: manifest has no 'scenes' list")
    return manifest


def read_entries(
    base: Path, entries: list[dict], with_semantics: bool
) -> list[tuple[TokenGrid, SemanticGrid | None]]:
    """Each manifest entry's token grid under base, and its "semantics" map
    when asked; entries that name no such paths raise ValidationError."""
    if not isinstance(entries, list):
        raise ValidationError(f"{base}: manifest entries must be a list")
    out = []
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
        out.append((grid, semantics))
    return out


def load_corpus(
    bench_dir: str | Path, with_semantics: bool = True
) -> list[tuple[TokenGrid, SemanticGrid | None]]:
    base = Path(bench_dir)
    return read_entries(base, load_manifest(base)["scenes"], with_semantics)


def load_exemplars(
    bench_dir: str | Path, style: str, with_semantics: bool = True
) -> list[tuple[TokenGrid, SemanticGrid | None]]:
    base = Path(bench_dir)
    entries = load_manifest(base).get("exemplars", {}).get(style)
    if not entries:
        raise ValidationError(f"{bench_dir}: no exemplars recorded for style {style!r}")
    return read_entries(base, entries, with_semantics)


def load_grid_directory(
    directory: str | Path, with_semantics: bool = True
) -> list[tuple[TokenGrid, SemanticGrid | None]]:
    """Load a corpus from a manifest if present, else by sorted *.tgrd glob.

    Without a manifest, a grid's semantic map is the sibling file with the
    .sgrd suffix when it exists.
    """
    base = Path(directory)
    if (base / "manifest.json").exists():
        return load_corpus(base, with_semantics)
    paths = sorted(base.glob("*.tgrd"))
    if not paths:
        raise ValidationError(f"{directory}: no token grids found")
    entries = []
    for path in paths:
        sem_path = path.with_suffix(".sgrd")
        entries.append({"tokens": path.name, "semantics": sem_path.exists() and sem_path.name})
    return read_entries(base, entries, with_semantics)


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
        per_label = []
        for support in (support0, support1):
            probs = np.zeros(32)
            probs[support] = 1.0 / len(support)
            per_label.append(CategoricalDistribution(32, probs))
        styles.append(
            StyleSpec(name=f"style{k}", per_label=tuple(per_label), coherence=0.6)
        )
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
    high = np.zeros(16)
    high[8:] = 1.0 / 8
    low_dist = CategoricalDistribution(16, low)
    high_dist = CategoricalDistribution(16, high)
    styles = (
        StyleSpec(name="low-high", per_label=(low_dist, high_dist), coherence=0.5),
        StyleSpec(name="high-low", per_label=(high_dist, low_dist), coherence=0.5),
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
