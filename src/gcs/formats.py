"""On-disk formats: binary token/semantic grids and distribution JSON files.

Binary grid layout (little-endian throughout):

    bytes 0-3   magic, ASCII "TGRD" (token grid) or "SGRD" (semantic grid)
    bytes 4-5   format version, uint16, must be 1
    bytes 6-7   reserved, written as 0
    bytes 8-19  height, width, codebook_size (or label_count), three uint32
    then        height * width uint32 values, row-major

Readers reject wrong magic, unsupported versions, and payloads whose length
does not match the header exactly.  JSON files use sorted keys and indent 2
so that rewriting identical data yields identical bytes; floats are encoded
with shortest round-trip decimal representation, so probabilities survive a
save/load cycle bit-exactly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    CategoricalDistribution,
    FormatError,
    SemanticGrid,
    TokenGrid,
    ValidationError,
)

GRID_VERSION = 1
_HEADER = struct.Struct("<4sHHIII")
_TOKEN_MAGIC = b"TGRD"
_LABEL_MAGIC = b"SGRD"
_U32_MAX = 2**32 - 1


def token_grid_to_bytes(grid: TokenGrid) -> bytes:
    return _grid_to_bytes(
        _TOKEN_MAGIC, grid.height, grid.width, grid.codebook_size, grid.tokens
    )


def semantic_grid_to_bytes(grid: SemanticGrid) -> bytes:
    return _grid_to_bytes(
        _LABEL_MAGIC, grid.height, grid.width, grid.label_count, grid.labels
    )


def _grid_to_bytes(
    magic: bytes, height: int, width: int, vocab: int, values: np.ndarray
) -> bytes:
    if vocab > _U32_MAX or height > _U32_MAX or width > _U32_MAX:
        raise ValidationError("grid header field exceeds uint32 range")
    header = _HEADER.pack(magic, GRID_VERSION, 0, height, width, vocab)
    body = np.ascontiguousarray(values, dtype="<u4").tobytes()
    return header + body


def _grid_from_bytes(data: bytes, magic: bytes, what: str):
    if len(data) < _HEADER.size:
        raise FormatError(f"truncated {what} file: {len(data)} bytes is too short")
    found, version, _reserved, height, width, vocab = _HEADER.unpack_from(data)
    if found != magic:
        raise FormatError(f"bad magic {found!r}: not a {what} file")
    if version != GRID_VERSION:
        raise FormatError(f"unsupported {what} version {version} (expected 1)")
    if height < 1 or width < 1:
        raise FormatError(f"{what} header has non-positive dimensions {height}x{width}")
    expected = _HEADER.size + 4 * height * width
    if len(data) != expected:
        raise FormatError(
            f"{what} payload is {len(data)} bytes, header implies {expected}"
        )
    values = np.frombuffer(data, dtype="<u4", offset=_HEADER.size).astype(np.int64)
    return height, width, vocab, values


def token_grid_from_bytes(data: bytes) -> TokenGrid:
    height, width, vocab, values = _grid_from_bytes(data, _TOKEN_MAGIC, "TGRD")
    return TokenGrid(height=height, width=width, codebook_size=vocab, tokens=values)


def semantic_grid_from_bytes(data: bytes) -> SemanticGrid:
    height, width, vocab, values = _grid_from_bytes(data, _LABEL_MAGIC, "SGRD")
    return SemanticGrid(height=height, width=width, label_count=vocab, labels=values)


def write_token_grid(path: str | Path, grid: TokenGrid) -> None:
    Path(path).write_bytes(token_grid_to_bytes(grid))


def read_token_grid(path: str | Path) -> TokenGrid:
    return token_grid_from_bytes(Path(path).read_bytes())


def write_semantic_grid(path: str | Path, grid: SemanticGrid) -> None:
    Path(path).write_bytes(semantic_grid_to_bytes(grid))


def read_semantic_grid(path: str | Path) -> SemanticGrid:
    return semantic_grid_from_bytes(Path(path).read_bytes())


def dump_json(path: str | Path, payload: Any) -> None:
    """Write JSON deterministically: sorted keys, indent 2, trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def distribution_to_dict(dist: CategoricalDistribution) -> dict:
    return {
        "codebook_size": dist.codebook_size,
        "probs": [float(p) for p in dist.probs],
        "source_mass": float(dist.source_mass),
    }


def distribution_from_dict(payload: dict) -> CategoricalDistribution:
    for key in ("codebook_size", "probs", "source_mass"):
        if key not in payload:
            raise FormatError(f"distribution JSON is missing key {key!r}")
    try:
        return CategoricalDistribution(
            codebook_size=int(payload["codebook_size"]),
            probs=np.asarray(payload["probs"], dtype=np.float64),
            source_mass=float(payload["source_mass"]),
        )
    except ValidationError as exc:
        raise FormatError(f"distribution JSON violates invariants: {exc}") from exc


def regional_to_dict(regional: "RegionalDistributions") -> dict:
    return {
        "kind": "regional",
        "label_count": regional.label_count,
        "per_label": [
            None if dist is None else distribution_to_dict(dist)
            for dist in regional.per_label
        ],
        "per_label_mass": [float(m) for m in regional.per_label_mass],
    }


def regional_from_dict(payload: dict) -> "RegionalDistributions":
    from .distributions import RegionalDistributions

    for key in ("label_count", "per_label", "per_label_mass"):
        if key not in payload:
            raise FormatError(f"regional stats JSON is missing key {key!r}")
    try:
        return RegionalDistributions(
            label_count=int(payload["label_count"]),
            per_label=tuple(
                None if entry is None else distribution_from_dict(entry)
                for entry in payload["per_label"]
            ),
            per_label_mass=tuple(float(m) for m in payload["per_label_mass"]),
        )
    except ValidationError as exc:
        raise FormatError(f"regional stats JSON violates invariants: {exc}") from exc


def spatial_to_dict(spatial: "SpatialDistributions") -> dict:
    return {
        "kind": "spatial",
        "cell_rows": spatial.cell_rows,
        "cell_cols": spatial.cell_cols,
        "per_cell": [
            [distribution_to_dict(dist) for dist in row] for row in spatial.per_cell
        ],
    }


def spatial_from_dict(payload: dict) -> "SpatialDistributions":
    from .distributions import SpatialDistributions

    for key in ("cell_rows", "cell_cols", "per_cell"):
        if key not in payload:
            raise FormatError(f"spatial stats JSON is missing key {key!r}")
    try:
        return SpatialDistributions(
            cell_rows=int(payload["cell_rows"]),
            cell_cols=int(payload["cell_cols"]),
            per_cell=tuple(
                tuple(distribution_from_dict(entry) for entry in row)
                for row in payload["per_cell"]
            ),
        )
    except ValidationError as exc:
        raise FormatError(f"spatial stats JSON violates invariants: {exc}") from exc


def write_stats(path: str | Path, stats) -> None:
    """Write a global, regional, or spatial statistics file.

    The payload is self-describing via its "kind" field so consumers can
    infer the guidance mode from the file alone.
    """
    from .distributions import RegionalDistributions, SpatialDistributions

    if isinstance(stats, CategoricalDistribution):
        payload = {"kind": "global", **distribution_to_dict(stats)}
    elif isinstance(stats, RegionalDistributions):
        payload = regional_to_dict(stats)
    elif isinstance(stats, SpatialDistributions):
        payload = spatial_to_dict(stats)
    else:
        raise ValidationError(f"cannot serialize statistics of type {type(stats).__name__}")
    dump_json(path, payload)


def read_stats(path: str | Path):
    """Read a statistics file, dispatching on its declared or implied kind."""
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    kind = payload.get("kind")
    if kind is None:
        if "per_cell" in payload:
            kind = "spatial"
        elif "per_label" in payload:
            kind = "regional"
        elif "probs" in payload:
            kind = "global"
        else:
            raise FormatError(f"{path}: cannot tell what kind of statistics this is")
    if kind == "global":
        return distribution_from_dict(payload)
    if kind == "regional":
        return regional_from_dict(payload)
    if kind == "spatial":
        return spatial_from_dict(payload)
    raise FormatError(f"{path}: unknown statistics kind {kind!r}")
