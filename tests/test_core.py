import numpy as np
import pytest

from gcs.core import (
    GridRun,
    SemanticGrid,
    TokenBatch,
    TokenGrid,
    ValidationError,
    check_rows,
    require_same_shape,
)
from gcs.world import StyleSpec, _style_from_dict


class TestTokenGrid:
    def test_round_values_survive(self):
        g = TokenGrid(2, 3, 5, [[0, 1, 2], [3, 4, 0]])
        assert g.tokens.shape == (2, 3)
        assert g.tokens.dtype == np.int64
        assert list(g.flat) == [0, 1, 2, 3, 4, 0]

    def test_flat_input_reshaped(self):
        g = TokenGrid(2, 2, 4, [0, 1, 2, 3])
        assert g.tokens[1, 0] == 2

    def test_out_of_range_token_names_position(self):
        with pytest.raises(ValidationError) as exc:
            TokenGrid(2, 2, 4, [[0, 1], [2, 4]])
        assert "token 4 out of range at (1, 1)" in str(exc.value)
        assert "codebook size is 4" in str(exc.value)

    def test_negative_token_rejected(self):
        with pytest.raises(ValidationError):
            TokenGrid(1, 2, 4, [[0, -1]])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            TokenGrid(2, 2, 4, [0, 1, 2])
        assert "expected 4 (2x2), got 3" in str(exc.value)

    def test_bad_dimensions(self):
        with pytest.raises(ValidationError):
            TokenGrid(0, 2, 4, [])
        with pytest.raises(ValidationError):
            TokenGrid(2, 0, 4, [])

    def test_tokens_are_readonly(self):
        g = TokenGrid(1, 2, 4, [0, 1])
        with pytest.raises(ValueError):
            g.tokens[0, 0] = 3

    def test_non_integer_value_names_position(self):
        for value in (0.5, 1.9, -0.5, np.nan, np.inf):
            with pytest.raises(ValidationError) as exc:
                TokenGrid(2, 2, 4, np.array([0.0, 1.0, 2.0, value]))
            assert str(exc.value) == f"token {value} at (1, 1) is not an integer"
        g = TokenGrid(2, 2, 4, np.zeros(4))  # integral floats are integers
        assert g.tokens.dtype == np.int64 and g == TokenGrid(2, 2, 4, [0, 0, 0, 0])
        assert TokenGrid(1, 2, 4, np.array([True, False])).tokens.tolist() == [[1, 0]]

    def test_equality_is_by_value(self):
        a = TokenGrid(1, 2, 4, [0, 1])
        b = TokenGrid(1, 2, 4, [0, 1])
        c = TokenGrid(1, 2, 4, [0, 2])
        assert a == b
        assert a != c
        assert a != TokenGrid(1, 2, 5, [0, 1])


class TestTokenBatch:
    TOKENS = np.arange(12).reshape(3, 2, 2) % 5

    def test_items_are_the_single_grids(self):
        batch = TokenBatch(self.TOKENS, 5)
        grids = [TokenGrid(2, 2, 5, block) for block in self.TOKENS]
        assert len(batch) == 3
        assert list(batch) == grids
        assert batch[1] == grids[1] and batch[-1] == grids[2]
        assert isinstance(batch[0], TokenGrid)
        with pytest.raises(IndexError):
            batch[3]

    def test_slices_are_batches(self):
        batch = TokenBatch(self.TOKENS, 5)
        assert batch[:2] == TokenBatch(self.TOKENS[:2], 5)
        assert batch[::-2] == TokenBatch(self.TOKENS[[2, 0]], 5)
        assert len(batch[3:]) == 0

    def test_equality_is_by_value(self):
        batch = TokenBatch(self.TOKENS, 5)
        assert batch == TokenBatch(self.TOKENS.copy(), 5)
        assert batch != TokenBatch(self.TOKENS, 6)
        assert batch != TokenBatch(self.TOKENS[:2], 5)
        assert batch != list(batch)

    def test_out_of_range_token_names_grid_position(self):
        tokens = self.TOKENS.copy()
        tokens[1, 1, 0] = 7
        with pytest.raises(ValidationError) as exc:
            TokenBatch(tokens, 5)
        assert "token 7 out of range at (1, 0); codebook size is 5" in str(exc.value)
        with pytest.raises(ValidationError, match="codebook size must be >= 2"):
            TokenBatch(np.zeros((2, 1, 1), dtype=np.int64), 1)
        with pytest.raises(ValidationError, match="must be 3-D"):
            TokenBatch(self.TOKENS[0], 5)

    def test_tokens_are_read_only(self):
        tokens = self.TOKENS.copy()
        batch = TokenBatch(tokens, 5)
        tokens[0, 0, 0] = 4  # a writable input is copied
        assert batch[0].tokens[0, 0] == 0
        assert not batch.tokens.flags.writeable
        with pytest.raises(ValueError):
            batch.tokens[0, 0, 0] = 1
        owner = np.zeros((4, 3), dtype=np.int64)
        owner.setflags(write=False)
        view = TokenBatch(owner.T.reshape(3, 2, 2), 5)  # a read-only one is kept
        assert np.shares_memory(view.tokens, owner)
        assert not view.tokens.base.flags.writeable

    def test_integer_types_are_kept(self):
        for dtype in (np.int8, np.int16, np.int32, np.uint8):
            batch = TokenBatch(self.TOKENS.astype(dtype), 5)
            assert batch.tokens.dtype == dtype and batch[1:].tokens.dtype == dtype
            assert batch[0].tokens.dtype == np.int64 and batch[0] == TokenGrid(2, 2, 5, self.TOKENS[0])
        narrow = self.TOKENS.astype(np.int8)
        narrow.setflags(write=False)
        assert TokenBatch(narrow, 5).tokens is narrow  # read-only: kept, not copied
        assert np.shares_memory(TokenBatch(narrow, 5)[::2].tokens, narrow)

    def test_non_integer_values_are_named(self):
        tokens = self.TOKENS.astype(np.float64)
        batch = TokenBatch(tokens, 5)  # integral floats become int64
        assert batch.tokens.dtype == np.int64 and batch == TokenBatch(self.TOKENS, 5)
        tokens[2, 0, 1] = 2.5
        with pytest.raises(ValidationError, match=r"^token 2.5 at \(0, 1\) is not an integer$"):
            TokenBatch(tokens, 5)


class TestSemanticGrid:
    def test_label_out_of_range(self):
        with pytest.raises(ValidationError) as exc:
            SemanticGrid(1, 2, 2, [[0, 2]])
        assert "label 2 out of range at (0, 1)" in str(exc.value)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="labels length mismatch: expected 4"):
            SemanticGrid(2, 2, 2, [0, 1, 0])

    def test_non_integer_label_names_position(self):
        with pytest.raises(ValidationError, match=r"^label 1.5 at \(0, 1\) is not an integer$"):
            SemanticGrid(1, 2, 2, [0.0, 1.5])
        assert SemanticGrid(1, 2, 2, [0.0, 1.0]).labels.tolist() == [[0, 1]]

    def test_single_label_allowed(self):
        g = SemanticGrid(2, 2, 1, [[0, 0], [0, 0]])
        assert g.label_count == 1


class TestGridRun:
    def test_labels_are_checked(self):
        grids = TokenBatch(np.zeros((2, 2, 3), dtype=np.int8), 4)
        labels = np.ones((2, 2, 3), dtype=np.int8)
        labels.setflags(write=False)
        assert GridRun(grids, labels, 2).labels is labels
        assert GridRun(grids).labels is None
        bad = {
            "writable": (labels.copy(), 2),
            "shape": (labels[:1], 2),
            "range": (labels, 1),
            "float": (labels.astype(float), 2),
            "no-count": (labels, None),
        }
        for name, (values, count) in bad.items():
            values.setflags(write=name == "writable")
            with pytest.raises(ValidationError, match="run labels must be"):
                GridRun(grids, values, count)


class TestRequireSameShape:
    def test_match(self):
        g = TokenGrid(2, 3, 4, np.zeros((2, 3), dtype=int))
        s = SemanticGrid(2, 3, 2, np.zeros((2, 3), dtype=int))
        require_same_shape(g, s)

    def test_mismatch(self):
        g = TokenGrid(2, 3, 4, np.zeros((2, 3), dtype=int))
        s = SemanticGrid(3, 2, 2, np.zeros((3, 2), dtype=int))
        with pytest.raises(ValidationError) as exc:
            require_same_shape(g, s)
        assert "grid is 2x3 but semantic map is 3x2" in str(exc.value)


def categorical(probs, mass=0.0):
    """Whether one probability row with its mass passes `check_rows`."""
    return bool(check_rows(np.array([probs], dtype=float), np.array([mass]))[0])


class TestCategoricalDistribution:
    # A categorical distribution is one row that `check_rows` accepts.
    def test_accepts_probabilities(self):
        assert categorical([0.5, 0.25, 0.25])
        assert not categorical([0.0, 0.0])  # an absent scope, not a distribution

    def test_rejects_drifted_mass(self):
        with pytest.raises(ValidationError) as exc:
            categorical([0.6, 0.5])
        assert "outside 1 +/-" in str(exc.value)

    def test_tiny_drift_tolerated(self):
        assert categorical([0.5 + 4e-10, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            categorical([1.5, -0.5])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            categorical([float("nan"), 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError, match="K >= 2"):
            categorical([1.0])
        with pytest.raises(ValidationError, match="mixes codebook sizes"):
            StyleSpec("s", ([0.5, 0.5], [0.5, 0.25, 0.25]))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            categorical([0.5, 0.5], mass=-1.0)
        with pytest.raises(ValidationError, match=r"outside 1 \+/-"):
            categorical([0.0, 0.0], mass=1.0)  # observed, yet no distribution

    def test_value_equality(self):
        a = StyleSpec("s", [[0.5, 0.5]])
        assert a == StyleSpec("s", np.array([[0.5, 0.5]]))
        assert a != StyleSpec("s", [[0.25, 0.75]])
        assert a != StyleSpec("t", [[0.5, 0.5]])
        assert not a.per_label.flags.writeable


def style_row(weights):
    """A one-label style's row from a "probs" entry of a benchmark config."""
    return _style_from_dict({"name": "s", "per_label": [{"probs": weights}]}, len(weights), 1).per_label[0]


class TestNormalize:
    # A style's "probs" entry is where weights are scaled into a distribution.
    def test_simple_ratio(self):
        assert list(style_row([2.0, 1.0, 1.0])) == [0.5, 0.25, 0.25]

    def test_single_entry_rejected(self):
        with pytest.raises(ValidationError) as exc:
            style_row([5.0])
        assert "K >= 2" in str(exc.value)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValidationError) as exc:
            style_row([0.0, 0.0, 0.0])
        assert "zero total mass" in str(exc.value)

    def test_negative_weight_named(self):
        with pytest.raises(ValidationError) as exc:
            style_row([1.0, -2.0, 2.0])
        assert "probs entry -2.0 at index 1" in str(exc.value)

    def test_scale_invariance(self):
        w = np.array([0.3, 1.7, 2.0, 0.01])
        a = style_row(w)
        b = style_row(w * 1e6)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValidationError):
            _style_from_dict({"name": "s", "per_label": [{"probs": np.ones((2, 2))}]}, 2, 1)
