"""On-disk formats: binary token/semantic grids and statistics JSON files.

Binary grid layout (little-endian throughout):

    bytes 0-3   magic, ASCII "TGRD" (token grid) or "SGRD" (semantic grid)
    bytes 4-5   format version, uint16, must be 1
    bytes 6-7   reserved, written as 0
    bytes 8-19  height, width, codebook_size (or label_count), three uint32
    then        height * width uint32 values, row-major

Readers reject wrong magic, unsupported versions, a codebook size or label
count above `GRID_VOCAB_LIMIT`, and payloads whose length does not match the
header exactly.  JSON files use sorted keys and indent 2
so that rewriting identical data yields identical bytes; floats are encoded
with shortest round-trip decimal representation, so probabilities survive a
save/load cycle bit-exactly.

Statistics files declare their "kind": "global" (one distribution entry),
"regional" (one entry per label, None for unobserved labels, with the label
count and per-label masses repeated alongside) or "spatial" (cell rows of
entries).  An entry holds a codebook size, a probability list and a source
mass.  Every kind reads into, and is written from, one
`ScopedDistributions` whose layout is the kind (a (rows, cols) tiling for
"spatial"), so a one-label regional file and a 1x1 spatial file each keep
their kind.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any

import numpy as np

from .core import MALFORMED_JSON, FormatError, SemanticGrid, TokenGrid, ValidationError, unique_keys
from .distributions import COUNT_CELL_LIMIT, ScopedDistributions

GRID_VERSION = 1
_HEADER = struct.Struct("<4sHHIII")
_TOKEN_MAGIC = b"TGRD"
_LABEL_MAGIC = b"SGRD"
_U32_MAX = 2**32 - 1
# Largest codebook size or label count a grid file may declare, on write and
# on read: histograms size their arrays by it.
GRID_VOCAB_LIMIT = 2**20


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
    if height > _U32_MAX or width > _U32_MAX:
        raise ValidationError("grid header field exceeds uint32 range")
    _check_vocab(vocab, magic.decode())
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
    _check_vocab(vocab, what)
    expected = _HEADER.size + 4 * height * width
    if len(data) != expected:
        raise FormatError(
            f"{what} payload is {len(data)} bytes, header implies {expected}"
        )
    # The grid's constructor makes the one int64 copy of these values.
    return height, width, vocab, np.frombuffer(data, dtype="<u4", offset=_HEADER.size)


def _check_vocab(vocab: int, what: str) -> None:
    if vocab > GRID_VOCAB_LIMIT:
        raise FormatError(
            f"{what} vocabulary {vocab} exceeds the format limit {GRID_VOCAB_LIMIT}"
        )


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
        return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def scoped_to_dict(stats: ScopedDistributions) -> dict:
    """The v1 layout of the statistics' kind."""
    entries = [
        {"codebook_size": probs.size, "probs": probs.tolist(), "source_mass": mass}
        if present else None
        for probs, mass, present in zip(stats.probs, stats.masses.tolist(), stats.present)
    ]
    if stats.kind == "global":
        return {"kind": "global", **entries[0]}
    if stats.kind == "regional":
        return {
            "kind": "regional",
            "label_count": len(entries),
            "per_label": entries,
            "per_label_mass": stats.masses.tolist(),
        }
    rows, cols = stats.cells
    return {
        "kind": "spatial",
        "cell_rows": rows,
        "cell_cols": cols,
        "per_cell": [entries[r * cols:(r + 1) * cols] for r in range(rows)],
    }


def _same_json(found, expected) -> bool:
    """`found == expected`, where an int in `expected` matches only a JSON
    integer and a float only a JSON number; a bool is neither."""
    if type(expected) is dict:
        return type(found) is dict and found.keys() == expected.keys() and all(
            _same_json(found[key], value) for key, value in expected.items()
        )
    if type(expected) is list:
        return type(found) is list and len(found) == len(expected) and all(map(_same_json, found, expected))
    kinds = (int, float) if type(expected) is float else (type(expected),)
    return type(found) in kinds and found == expected


def scoped_from_dict(payload: dict, kind: str) -> ScopedDistributions:
    """Read any v1 layout.  Every field must be exactly what the decoded
    entries imply, redundant ones (codebook size, label count, masses, cell
    rows) too, with integers as JSON integers and probabilities and masses
    as JSON numbers."""
    if kind == "global":
        entries, layout = [payload], "global"
    elif kind == "regional":
        entries, layout = payload["per_label"], "regional"
    else:
        entries = [entry for row in payload["per_cell"] for entry in row]
        layout = (int(payload["cell_rows"]), int(payload["cell_cols"]))
    sizes = sorted({len(entry["probs"]) for entry in entries if entry is not None})
    if len(sizes) != 1:
        raise ValidationError(
            f"scopes mix codebook sizes {sizes}" if sizes else "no scope carries a distribution"
        )
    if len(entries) * sizes[0] > COUNT_CELL_LIMIT:
        raise ValidationError(
            f"{len(entries)} scopes x {sizes[0]} tokens exceeds the limit {COUNT_CELL_LIMIT}"
        )
    probs = np.zeros((len(entries), sizes[0]))
    masses = np.zeros(len(entries))
    for j, entry in enumerate(entries):
        if entry is not None:
            probs[j], masses[j] = entry["probs"], float(entry["source_mass"])
    stats = ScopedDistributions(probs, masses, layout)
    for key, value in sorted(scoped_to_dict(stats).items()):
        if key != "kind" and not _same_json(payload[key], value):
            raise ValidationError(f"{key} does not match the entries in value or JSON type")
    return stats


def write_stats(path: str | Path, stats: ScopedDistributions) -> None:
    """Write a statistics file.

    The payload is self-describing via its "kind" field so consumers can
    infer the guidance mode from the file alone.
    """
    if not isinstance(stats, ScopedDistributions):
        raise ValidationError(f"cannot serialize statistics of type {type(stats).__name__}")
    dump_json(path, scoped_to_dict(stats))


def read_stats(path: str | Path) -> ScopedDistributions:
    """Read a statistics file, dispatching on its declared or implied kind.

    Any malformed payload, whatever its shape, is a `FormatError`.
    """
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
    if kind not in ("global", "regional", "spatial"):
        raise FormatError(f"{path}: unknown statistics kind {kind!r}")
    try:
        return scoped_from_dict(payload, kind)
    except FormatError:
        raise
    except ValidationError as exc:
        raise FormatError(f"{path}: {kind} stats JSON violates invariants: {exc}") from exc
    except KeyError as exc:
        raise FormatError(f"{path}: {kind} statistics are missing key {exc}") from exc
    except MALFORMED_JSON as exc:
        raise FormatError(f"{path}: malformed {kind} statistics ({exc})") from exc
