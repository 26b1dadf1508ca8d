import numpy as np
import pytest

from gcs.core import FormatError, SemanticGrid, TokenGrid, ValidationError
from gcs.distributions import histogram_from_grid
from gcs.formats import (
    GRID_VOCAB_LIMIT,
    dump_json,
    load_json,
    read_semantic_grid,
    read_stats,
    read_token_grid,
    semantic_grid_to_bytes,
    token_grid_from_bytes,
    token_grid_to_bytes,
    write_semantic_grid,
    write_stats,
    write_token_grid,
)

from conftest import global_stats, scoped


GRID = TokenGrid(2, 2, 4, [[0, 1], [2, 3]])

# 20-byte header (magic, version, reserved, dims) + row-major uint32 payload.
GRID_BYTES = (
    b"TGRD"
    + b"\x01\x00"
    + b"\x00\x00"
    + b"\x02\x00\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00"
    + b"\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00"
)


class TestBinaryGrids:
    def test_frozen_byte_layout(self):
        assert token_grid_to_bytes(GRID) == GRID_BYTES
        assert token_grid_from_bytes(GRID_BYTES) == GRID

    def test_token_file_round_trip(self, tmp_path, grid_factory):
        grid = grid_factory(5, 3, 17)
        path = tmp_path / "g.tgrd"
        write_token_grid(path, grid)
        assert read_token_grid(path) == grid

    def test_semantic_file_round_trip(self, tmp_path):
        sem = SemanticGrid(3, 4, 3, np.arange(12).reshape(3, 4) % 3)
        path = tmp_path / "g.sgrd"
        write_semantic_grid(path, sem)
        assert read_semantic_grid(path) == sem

    def test_magic_distinguishes_grid_kinds(self):
        sem = SemanticGrid(2, 2, 4, [[0, 1], [2, 3]])
        assert semantic_grid_to_bytes(sem)[:4] == b"SGRD"
        with pytest.raises(FormatError) as exc:
            token_grid_from_bytes(semantic_grid_to_bytes(sem))
        assert "bad magic" in str(exc.value)

    def test_vocabulary_is_capped_both_ways(self):
        declared = GRID_BYTES[:16] + (GRID_VOCAB_LIMIT + 1).to_bytes(4, "little")
        with pytest.raises(FormatError, match="exceeds the format limit"):
            token_grid_from_bytes(declared + GRID_BYTES[20:])
        with pytest.raises(FormatError, match="exceeds the format limit"):
            token_grid_to_bytes(TokenGrid(1, 1, GRID_VOCAB_LIMIT + 1, [0]))
        with pytest.raises(FormatError, match="exceeds the format limit"):
            semantic_grid_to_bytes(SemanticGrid(1, 1, GRID_VOCAB_LIMIT + 1, [0]))
        widest = TokenGrid(1, 1, GRID_VOCAB_LIMIT, [GRID_VOCAB_LIMIT - 1])
        assert token_grid_from_bytes(token_grid_to_bytes(widest)) == widest

    def test_unsupported_version(self):
        data = GRID_BYTES[:4] + b"\x02\x00" + GRID_BYTES[6:]
        with pytest.raises(FormatError) as exc:
            token_grid_from_bytes(data)
        assert "unsupported" in str(exc.value)

    def test_truncated_header(self):
        with pytest.raises(FormatError) as exc:
            token_grid_from_bytes(GRID_BYTES[:10])
        assert "too short" in str(exc.value)

    def test_payload_length_must_match_header(self):
        with pytest.raises(FormatError) as exc:
            token_grid_from_bytes(GRID_BYTES[:-4])
        assert "header implies" in str(exc.value)
        with pytest.raises(FormatError):
            token_grid_from_bytes(GRID_BYTES + b"\x00" * 4)

    def test_zero_dimension_rejected(self):
        data = GRID_BYTES[:8] + b"\x00\x00\x00\x00" + GRID_BYTES[12:20]
        with pytest.raises(FormatError) as exc:
            token_grid_from_bytes(data)
        assert "non-positive dimensions" in str(exc.value)

    def test_out_of_range_payload_value(self):
        # Header says codebook 4 but the payload carries a 7.
        bad = GRID_BYTES[:-4] + b"\x07\x00\x00\x00"
        with pytest.raises(ValidationError):
            token_grid_from_bytes(bad)


class TestDistributionJson:
    def test_round_trip_is_bit_exact(self, tmp_path):
        d = global_stats(np.array([1, 1, 1]) / 3.0, mass=9.0)
        path = tmp_path / "d.json"
        write_stats(path, d)
        back = read_stats(path)
        assert (back.kind, list(back.masses)) == ("global", [9.0])
        assert back.probs.tobytes() == d.probs.tobytes()

    def test_missing_key_is_named(self, tmp_path):
        path = tmp_path / "d.json"
        dump_json(path, {"kind": "global", "probs": [0.5, 0.5], "source_mass": 1.0})
        with pytest.raises(FormatError) as exc:
            read_stats(path)
        assert "missing key 'codebook_size'" in str(exc.value)

    def test_invalid_probs_reported_as_format_error(self, tmp_path):
        path = tmp_path / "d.json"
        write_stats(path, global_stats([0.5, 0.5]))
        dump_json(path, {**load_json(path), "probs": [0.9, 0.5]})
        with pytest.raises(FormatError) as exc:
            read_stats(path)
        assert "violates invariants" in str(exc.value)

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(FormatError) as exc:
            read_stats(path)
        assert "expected a JSON object" in str(exc.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        with pytest.raises(FormatError) as exc:
            load_json(path)
        assert "invalid JSON" in str(exc.value)


class TestDumpJson:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(a, {"z": 1, "a": [1.5, 2]})
        dump_json(b, {"a": [1.5, 2], "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")
        assert a.read_text().index('"a"') < a.read_text().index('"z"')


class TestStatsFiles:
    def test_global_round_trip(self, tmp_path):
        d = histogram_from_grid(TokenGrid(1, 4, 3, [0, 0, 0, 1]), 0.5)
        path = tmp_path / "stats.json"
        write_stats(path, d)
        assert load_json(path)["kind"] == "global"
        back = read_stats(path)
        assert back.kind == "global"
        assert back == d

    def test_regional_round_trip_with_absent_label(self, tmp_path):
        reg = scoped(([0.5, 0.25, 0.25], None), [4.0, 0.0])
        path = tmp_path / "stats.json"
        write_stats(path, reg)
        payload = load_json(path)
        assert (payload["label_count"], payload["per_label_mass"]) == (2, [4.0, 0.0])
        back = read_stats(path)
        assert back.kind == "regional" and back.cells is None
        assert list(back.present) == [True, False]
        assert back == reg
        assert list(back.masses) == [4.0, 0.0]

    def test_spatial_round_trip(self, tmp_path):
        spat = scoped(([0.75, 0.25],) * 2, [8.0, 8.0], (1, 2))
        path = tmp_path / "stats.json"
        write_stats(path, spat)
        assert len(load_json(path)["per_cell"]) == 1
        back = read_stats(path)
        assert back.kind == "spatial"
        assert back.cells == (1, 2)
        assert back == spat

    def test_kind_inferred_when_absent(self, tmp_path):
        reg = scoped(([0.5, 0.5],), [2.0])
        path = tmp_path / "stats.json"
        write_stats(path, reg)
        payload = load_json(path)
        del payload["kind"]
        dump_json(path, payload)
        assert read_stats(path) == reg

    @pytest.mark.parametrize("kind", ["global", "spatial"])
    def test_global_and_spatial_kinds_inferred_when_absent(self, tmp_path, kind):
        stats = {
            "global": lambda: global_stats([0.25, 0.75], 4.0),
            "spatial": lambda: scoped(([0.75, 0.25], [0.5, 0.5]), [8.0, 8.0], (2, 1)),
        }[kind]()
        path = tmp_path / "stats.json"
        write_stats(path, stats)
        payload = load_json(path)
        del payload["kind"]
        dump_json(path, payload)
        back = read_stats(path)
        assert back.kind == kind
        assert back == stats

    def test_invalid_global_probs(self, tmp_path):
        path = tmp_path / "stats.json"
        write_stats(path, global_stats([0.5, 0.5]))
        payload = load_json(path)
        payload["probs"] = [0.9, 0.5]
        dump_json(path, payload)
        with pytest.raises(FormatError) as exc:
            read_stats(path)
        assert "violates invariants" in str(exc.value)

    def test_regional_mixed_codebooks_rejected(self, tmp_path):
        path = tmp_path / "stats.json"
        per_label = [[0.5, 0.5], [0.5, 0.25, 0.25]]
        dump_json(path, {
            "kind": "regional", "label_count": 2, "per_label_mass": [1.0, 1.0],
            "per_label": [
                {"codebook_size": len(probs), "probs": probs, "source_mass": 0.0}
                for probs in per_label
            ],
        })
        with pytest.raises(FormatError) as exc:
            read_stats(path)
        assert "mix codebook sizes" in str(exc.value)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "stats.json"
        dump_json(path, {"kind": "sideways"})
        with pytest.raises(FormatError) as exc:
            read_stats(path)
        assert "unknown statistics kind" in str(exc.value)

    def test_undeclarable_payload(self, tmp_path):
        path = tmp_path / "stats.json"
        dump_json(path, {"codebook_size": 2})
        with pytest.raises(FormatError):
            read_stats(path)

    def test_unserializable_stats(self, tmp_path):
        with pytest.raises(ValidationError):
            write_stats(tmp_path / "x.json", object())


# Fields equal in value to what the entries imply, in another JSON type.
ONE_LABEL = scoped(([0.5, 0.5],), [1.0])
TWO_CELLS = scoped(([0.5, 0.5],) * 2, [1.0, 1.0], (1, 2))
MISTYPED_FIELDS = {
    "probs-bools": (global_stats([1.0, 0.0], 1.0), "probs", [True, False]),
    "source_mass-true": (global_stats([0.5, 0.5], 1.0), "source_mass", True),
    "codebook_size-float": (global_stats([0.5, 0.5], 1.0), "codebook_size", 2.0),
    "per_label_mass-true": (ONE_LABEL, "per_label_mass", [True]),
    "label_count-true": (ONE_LABEL, "label_count", True),
    "entry-codebook_size-float": (
        ONE_LABEL, "per_label", [{"codebook_size": 2.0, "probs": [0.5, 0.5], "source_mass": 1.0}]
    ),
    "cell_rows-true": (TWO_CELLS, "cell_rows", True),
    "cell_rows-float": (TWO_CELLS, "cell_rows", 1.0),
}


@pytest.mark.parametrize("stats, key, value", MISTYPED_FIELDS.values(), ids=MISTYPED_FIELDS)
def test_mistyped_stats_fields_are_format_errors(tmp_path, stats, key, value):
    path = tmp_path / "stats.json"
    write_stats(path, stats)
    payload = load_json(path)
    assert payload[key] == value
    dump_json(path, {**payload, key: value})
    with pytest.raises(FormatError, match=f"{key} does not match the entries in value or JSON type"):
        read_stats(path)


def test_stats_numbers_may_be_json_integers(tmp_path):
    # Probabilities and masses are JSON numbers: an integer reads as its float.
    path = tmp_path / "stats.json"
    stats = global_stats([1.0, 0.0], 3.0)
    write_stats(path, stats)
    dump_json(path, {**load_json(path), "probs": [1, 0], "source_mass": 3})
    assert read_stats(path) == stats
