import itertools
import json
import tracemalloc

import numpy as np
import pytest

from gcs import prior
from gcs.core import GridRun, SemanticGrid, TokenBatch, TokenGrid, ValidationError
from gcs.distributions import histogram_from_grid
from gcs.guidance import LikelihoodTable, global_likelihood_table
from gcs.prior import (
    BOUNDARY,
    DEFAULT_CONTEXT,
    MarkovGridPrior,
    load_model,
    parse_context_template,
    save_model,
    train_markov_prior,
    validate_context_template,
)
from gcs.sampler import SamplingConfig, exact_sequence_distribution

from conftest import random_grid, random_semantics

LEFT = ((0, -1),)
FOUR_SLOTS = parse_context_template("left,above,above-left,above-right")


def table(model):
    """The model's states as {(context, label or None): {token: count}}."""
    out = {}
    for ctx, label, row in zip(model.contexts.tolist(), model.labels.tolist(), model.counts):
        tokens = np.flatnonzero(row)
        out[tuple(ctx), None if label < 0 else label] = dict(zip(tokens.tolist(), row[tokens].tolist()))
    return out


def brute_force_counts(pairs, context, conditional):
    """Reference counter: one dictionary update per corpus position."""
    counts = {}
    for grid, sem in pairs:
        for row in range(grid.height):
            for col in range(grid.width):
                ctx = tuple(
                    int(grid.tokens[row + dr, col + dc])
                    if 0 <= row + dr < grid.height and 0 <= col + dc < grid.width
                    else BOUNDARY
                    for dr, dc in context
                )
                label = int(sem.labels[row, col]) if conditional else None
                tokens = counts.setdefault((ctx, label), {})
                token = int(grid.tokens[row, col])
                tokens[token] = tokens.get(token, 0) + 1
    return counts


def chunk_sizes(pairs):
    """Grids per training chunk of a list corpus."""
    blocks = prior._blocks([grid for grid, _ in pairs])[2]
    return [len(tokens) for tokens, _ in prior._chunks(blocks, prior._CHUNK_POSITIONS)]


def packed(pairs):
    """The pairs as `load_grid_directory` packs them: runs of one shape,
    tokens and labels in their vocabularies' smallest types."""
    runs = []
    for _, run in itertools.groupby(pairs, lambda pair: pair[0].tokens.shape):
        grids, maps = zip(*run)
        size, count = grids[0].codebook_size, maps[0].label_count
        tokens = np.stack([grid.tokens for grid in grids]).astype(np.min_scalar_type(-size))
        labels = np.stack([sem.labels for sem in maps]).astype(np.min_scalar_type(-count))
        labels.setflags(write=False)
        runs.append(GridRun(TokenBatch(tokens, size), labels, count))
    return runs


class TestContextTemplates:
    def test_parse_names(self):
        assert parse_context_template("left,above") == ((0, -1), (-1, 0))
        assert parse_context_template(" left , above-right ") == ((0, -1), (-1, 1))

    def test_parse_unknown_name(self):
        with pytest.raises(ValidationError) as exc:
            parse_context_template("left,diagonal")
        assert "unknown context offset 'diagonal'" in str(exc.value)
        assert "above-left" in str(exc.value)

    def test_parse_empty(self):
        with pytest.raises(ValidationError):
            parse_context_template(" , ")

    def test_offsets_must_precede_in_raster_order(self):
        with pytest.raises(ValidationError) as exc:
            validate_context_template(((0, 1),))
        assert "not strictly earlier" in str(exc.value)
        with pytest.raises(ValidationError):
            validate_context_template(((1, 0),))

    def test_duplicate_offset(self):
        with pytest.raises(ValidationError) as exc:
            validate_context_template(((0, -1), (0, -1)))
        assert "duplicate" in str(exc.value)

    def test_above_right_is_legal(self):
        assert validate_context_template(((-1, 1),)) == ((-1, 1),)

    def test_empty_template_rejected(self, rng):
        with pytest.raises(ValidationError, match="empty context template"):
            validate_context_template(())
        with pytest.raises(ValidationError, match="empty context template"):
            train_markov_prior([random_grid(rng, 3, 3, 4)], context=())
        with pytest.raises(ValidationError, match="empty context template"):
            MarkovGridPrior(codebook_size=4, context=())


class TestConstruction:
    def test_codebook_too_small(self):
        with pytest.raises(ValidationError):
            MarkovGridPrior(codebook_size=1)

    def test_conditional_needs_label_count(self):
        with pytest.raises(ValidationError):
            MarkovGridPrior(codebook_size=4, conditional=True)

    def test_count_key_must_match_template(self):
        with pytest.raises(ValidationError):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, contexts=[[0, 1]], counts=np.ones((1, 4))
            )
        with pytest.raises(ValidationError):
            MarkovGridPrior(codebook_size=4, context=LEFT, contexts=[[0]], counts=np.ones(4))
        for token in (4, -2):  # would alias another context's packed code
            with pytest.raises(ValidationError):
                MarkovGridPrior(
                    codebook_size=4, context=LEFT, contexts=[[token]], counts=np.ones((1, 4))
                )

    def test_label_slot_must_match_flag(self):
        with pytest.raises(ValidationError):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, contexts=[[0]], labels=[1], counts=np.ones((1, 4))
            )
        with pytest.raises(ValidationError):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, conditional=True, label_count=2,
                contexts=[[0]], counts=np.ones((1, 4)),
            )
        with pytest.raises(ValidationError):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, conditional=True, label_count=2,
                contexts=[[0]], labels=[2], counts=np.ones((1, 4)),
            )

    def test_counts_must_be_non_negative(self):
        with pytest.raises(ValidationError, match="counts must be >= 0"):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, contexts=[[0]], counts=[[3, -1, 0, 0]]
            )

    @pytest.mark.parametrize(
        "counts", [[2**62] * 4, [2**63 - 1, 2, 0, 0]], ids=["four-2**62", "max-plus-2"]
    )
    def test_count_totals_must_fit_int64(self, counts):
        with pytest.raises(ValidationError, match="state 1 overflow int64"):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, contexts=[[0], [1]], counts=[[1, 0, 0, 0], counts]
            )
        MarkovGridPrior(codebook_size=4, context=LEFT, contexts=[[0]], counts=[[2**63 - 1, 0, 0, 0]])

    def test_states_must_be_distinct(self):
        with pytest.raises(ValidationError, match="appears more than once"):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, contexts=[[0], [1], [0]], counts=np.ones((3, 4))
            )
        with pytest.raises(ValidationError, match="appears more than once"):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, conditional=True, label_count=2,
                contexts=[[0], [0]], labels=[1, 1], counts=np.ones((2, 4)),
            )
        MarkovGridPrior(
            codebook_size=4, context=LEFT, conditional=True, label_count=2,
            contexts=[[0], [0]], labels=[0, 1], counts=np.ones((2, 4)),
        )

    def test_empty_state_without_smoothing(self):
        with pytest.raises(ValidationError, match="zero observations with zero smoothing"):
            MarkovGridPrior(
                codebook_size=4, context=LEFT, smoothing_alpha=0.0,
                contexts=[[0]], counts=np.zeros((1, 4)),
            )


class TestTraining:
    def test_single_pair_counts(self):
        model = train_markov_prior(
            [TokenGrid(1, 2, 5, [3, 3])], context=LEFT, smoothing_alpha=0.0
        )
        assert table(model) == {((BOUNDARY,), None): {3: 1}, ((3,), None): {3: 1}}

    def test_duplicated_corpus_doubles_counts(self):
        grid = TokenGrid(1, 2, 5, [3, 3])
        once = train_markov_prior([grid], context=LEFT)
        twice = train_markov_prior([grid, grid], context=LEFT)
        assert np.array_equal(twice.contexts, once.contexts)
        assert np.array_equal(twice.counts, 2 * once.counts)
        a = once.distribution_for_context((3,), None)
        b = twice.distribution_for_context((3,), None)
        assert not np.array_equal(a.probs, b.probs)  # smoothing washes out slower

    def test_count_ratios(self):
        corpus = [
            TokenGrid(1, 2, 4, [2, 0]),
            TokenGrid(1, 2, 4, [2, 0]),
            TokenGrid(1, 2, 4, [2, 1]),
        ]
        model = train_markov_prior(corpus, context=LEFT, smoothing_alpha=0.0)
        d = model.distribution_for_context((2,), None)
        assert np.allclose(d.probs, [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-15)
        start = model.distribution_for_context((BOUNDARY,), None)
        assert start.probs.tolist() == [[0.0, 0.0, 1.0, 0.0]]

    def test_unseen_context_smoothing(self):
        model = train_markov_prior([TokenGrid(1, 2, 4, [0, 0])], context=LEFT)
        d = model.distribution_for_context((3,), None)
        assert np.allclose(d.probs, 0.25)

    def test_unseen_context_without_smoothing_fails(self):
        model = train_markov_prior(
            [TokenGrid(1, 2, 4, [0, 0])], context=LEFT, smoothing_alpha=0.0
        )
        with pytest.raises(ValidationError) as exc:
            model.distribution_for_context((3,), None)
        assert "never observed" in str(exc.value)

    def test_unseen_contexts_share_one_distribution(self):
        # One smoothed row past the trained states covers every unseen
        # context, so the matrix grows with the states, not the contexts asked.
        model = train_markov_prior([TokenGrid(1, 2, 4, [0, 0])], context=LEFT)
        unseen = len(model.counts)
        assert model.state_of((2,), None) == model.state_of((3,), None) == unseen
        assert model.state_of((0,), None) < unseen
        assert model.smoothed.shape == (unseen + 1, 4)
        a = model.distribution_for_context((2,), None)
        assert a == model.distribution_for_context((3,), None)
        assert a != model.distribution_for_context((0,), None)
        assert (a.kind, a.masses.tolist()) == ("global", [0.0])

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            train_markov_prior([])

    def test_mixed_codebooks(self):
        with pytest.raises(ValidationError):
            train_markov_prior([TokenGrid(1, 2, 4, [0, 0]), TokenGrid(1, 2, 5, [0, 0])])

    def test_conditional_requires_semantics(self):
        with pytest.raises(ValidationError):
            train_markov_prior([TokenGrid(1, 2, 4, [0, 0])], conditional=True)

    def test_conditional_mass_stays_in_label_vocabulary(self):
        # Label 0 emits only {0, 1}, label 1 only {2, 3}; smoothing leaks a
        # computable alpha fraction outside each vocabulary and nothing more.
        grid = TokenGrid(2, 2, 4, [[0, 1], [2, 3]])
        sem = SemanticGrid(2, 2, 2, [[0, 0], [1, 1]])
        alpha = 0.5
        model = train_markov_prior(
            [(grid, sem)] * 8, context=LEFT, conditional=True, smoothing_alpha=alpha
        )
        d = model.distribution_for_context((BOUNDARY,), 0)
        n = float(model.counts[model.state_of((BOUNDARY,), 0)].sum())
        expected_in = (n + 2 * alpha) / (n + 4 * alpha)
        assert abs(float(d.probs[0, :2].sum()) - expected_in) < 1e-12
        d1 = model.distribution_for_context((BOUNDARY,), 1)
        assert float(d1.probs[0, 2:].sum()) > 0.8

    def test_training_is_deterministic(self, rng):
        corpus = [random_grid(rng, 4, 4, 5) for _ in range(10)]
        a = train_markov_prior(corpus)
        b = train_markov_prior(corpus)
        assert table(a) == table(b)

    def test_counting_matches_brute_force(self, rng):
        self.check_counting(rng, [6])

    @pytest.mark.parametrize(
        "chunk, sizes", [(1, [1] * 6), (120, [4, 2])], ids=["one-grid", "partial-last"]
    )
    def test_counting_matches_brute_force_across_chunks(self, rng, monkeypatch, chunk, sizes):
        monkeypatch.setattr(prior, "_CHUNK_POSITIONS", chunk)
        self.check_counting(rng, sizes)

    @staticmethod
    def check_counting(rng, sizes):
        """Every corpus, template and `conditional` against the brute-force
        counter; `sizes` are the grids per chunk of each 6-grid corpus."""
        # K = 5400 with a label and K = 70000 overflow int64 part way
        # through the code, so those cases re-rank before the last digits;
        # the ranks must agree across chunks.
        wide = [
            TokenGrid(2, 3, 70000, [[20310, 56752, 53778], [776, 1, 2]]),
            TokenGrid(2, 3, 70000, [[0, 0, 0], [0, 3, 4]]),
        ]
        corpora = [[(grid, random_semantics(rng, 2, 3, 2)) for grid in wide]]
        for size, height, width in ((7, 5, 6), (5400, 6, 5), (70000, 4, 7)):
            corpora.append([
                (random_grid(rng, height, width, size), random_semantics(rng, height, width, 3))
                for _ in range(6)
            ])
            assert chunk_sizes(corpora[-1]) == sizes
        # A change of grid shape starts a new chunk.
        shapes = ((5, 6), (3, 4)) * 3
        mixed = [(random_grid(rng, h, w, 7), random_semantics(rng, h, w, 3)) for h, w in shapes]
        assert len(chunk_sizes(mixed)) == 6
        for pairs in corpora + [mixed]:
            for context in (LEFT, DEFAULT_CONTEXT, FOUR_SLOTS):
                for conditional in (False, True):
                    model = train_markov_prior(pairs, context, conditional)
                    assert table(model) == brute_force_counts(pairs, context, conditional)
                    assert table(train_markov_prior(packed(pairs), context, conditional)) == table(model)
                    keys = list(zip(model.contexts.tolist(), model.labels.tolist()))
                    assert keys == sorted(keys)  # model-JSON order

    def test_counting_memory_does_not_grow_with_the_corpus(self):
        # With the corpus loaded, training adds about 5 MiB for either
        # corpus; one np.unique over every position added 17.6 MiB for the
        # 1,000 grids.
        rng = np.random.default_rng(5)
        for count in (250, 1000):
            corpus = [random_grid(rng, 32, 32, 32) for _ in range(count)]
            tracemalloc.start()
            try:
                train_markov_prior(corpus)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (count, peak)


class TestStates:
    """`MarkovGridPrior.states` against the exact-tuple `state_of` dict."""

    # Packed slot-first, (53778, 20310, 56752, 776) wraps int64 onto the code
    # of the all-zero context, a trained state; packed slot-last, so does
    # (776, 56752, 20310, 53778), as in test_wide_context_codes_do_not_alias.
    WIDE = [
        TokenGrid(2, 3, 70000, [[20310, 56752, 53778], [776, 1, 2]]),
        TokenGrid(2, 3, 70000, [[0, 0, 0], [0, 3, 4]]),
    ]

    def model(self, rng, size, context, conditional, alpha):
        grids = [random_grid(rng, 5, 6, size) for _ in range(8)]
        grids += self.WIDE if size == 70000 else []
        pairs = [(g, random_semantics(rng, g.height, g.width, 2)) for g in grids]
        return train_markov_prior(pairs, context, conditional, smoothing_alpha=alpha)

    def batch(self, rng, model, n=400):
        """Trained contexts, random ones (boundary included) and aliasing ones."""
        size, slots = model.codebook_size, len(model.context)
        trained = model.contexts[rng.integers(0, len(model.contexts), n)]
        drawn = rng.integers(BOUNDARY, size, (n, slots))
        drawn[: n // 4, rng.integers(0, slots)] = BOUNDARY
        edge = np.full((1, slots), BOUNDARY)
        rows = [trained, drawn, edge, np.zeros((1, slots), dtype=np.int64)]
        if size == 70000:
            rows.append(np.array([[53778, 20310, 56752, 776], [776, 56752, 20310, 53778]]))
        return np.concatenate(rows)

    @pytest.mark.parametrize("conditional", [False, True], ids=["plain", "conditional"])
    @pytest.mark.parametrize(
        "size, context",
        [(8, DEFAULT_CONTEXT), (600, DEFAULT_CONTEXT), (70000, FOUR_SLOTS)],
        ids=["dense", "sorted", "re-ranked"],
    )
    def test_matches_state_of(self, rng, size, context, conditional):
        model = self.model(rng, size, context, conditional, alpha=0.5)
        batch = self.batch(rng, model)
        labels = [0, 1, 2, 7, -1] if conditional else [None]  # 2 and up: no such label
        for label in labels:
            got = model.states(list(batch.T), label)
            assert got.tolist() == [model.state_of(tuple(c), label) for c in batch.tolist()]
            if label in (0, 1, None):
                assert 0 < np.count_nonzero(got == len(model.counts)) < len(got)

    @pytest.mark.parametrize(
        "size, context", [(8, DEFAULT_CONTEXT), (70000, FOUR_SLOTS)], ids=["dense", "re-ranked"]
    )
    def test_unseen_without_smoothing_raises_as_state_of(self, rng, size, context):
        model = self.model(rng, size, context, conditional=True, alpha=0.0)
        seen = list(model.contexts[:1].T)
        label = int(model.labels[0])
        assert model.states(seen, label).tolist() == [0]
        known = set(map(tuple, model.contexts[model.labels == label].tolist()))
        unseen = next(c for c in itertools.product(range(size), repeat=len(context)) if c not in known)
        with pytest.raises(ValidationError) as scalar:
            model.state_of(unseen, label)
        columns = [np.array([c[0], token]) for c, token in zip(seen, unseen)]
        with pytest.raises(ValidationError) as batch:
            model.states(columns, label)
        assert str(batch.value) == str(scalar.value)
        assert "never observed" in str(batch.value)


class TestContextAt:
    def test_boundary_marking(self):
        model = MarkovGridPrior(codebook_size=4)
        # Default template is (left, above); origin sees two boundaries.
        assert model.context_at([], 2, 2, 0, 0) == (BOUNDARY, BOUNDARY)
        assert model.context_at([3], 2, 2, 0, 1) == (3, BOUNDARY)
        assert model.context_at([3, 1], 2, 2, 1, 0) == (BOUNDARY, 3)
        assert model.context_at([3, 1, 2], 2, 2, 1, 1) == (2, 1)


class TestNextDistribution:
    def test_position_must_be_next_unfilled(self):
        model = MarkovGridPrior(codebook_size=4)
        with pytest.raises(ValidationError) as exc:
            model.next_distribution([0, 1], 2, 2, (0, 1))
        assert "first unfilled raster position" in str(exc.value)

    def test_conditional_needs_semantics(self):
        model = MarkovGridPrior(codebook_size=4, conditional=True, label_count=2)
        with pytest.raises(ValidationError):
            model.next_distribution([], 2, 2, (0, 0))

    def test_locality(self):
        # Positions outside the context template cannot influence a step.
        model = train_markov_prior(
            [TokenGrid(2, 2, 4, [[0, 1], [2, 3]])], context=LEFT
        )
        a = model.next_distribution([0, 1, 2], 2, 2, (1, 1))
        b = model.next_distribution([3, 0, 2], 2, 2, (1, 1))
        assert np.array_equal(a.probs, b.probs)


class TestExactSequenceDistribution:
    def test_single_cell_uniform(self):
        model = MarkovGridPrior(codebook_size=2)
        dist = exact_sequence_distribution(model, 1, 1)
        assert dist == {(0,): 0.5, (1,): 0.5}

    def test_guided_two_cells(self):
        model = MarkovGridPrior(codebook_size=2)
        table = LikelihoodTable([[1.0, 3.0]], (1, 1))
        dist = exact_sequence_distribution(model, 1, 2, config=SamplingConfig(guidance=table))
        assert abs(dist[(1, 1)] - 0.5625) < 1e-12

    def test_tempered_and_truncated_chain(self):
        # The oracle runs the sampler's whole step pipeline: guided to
        # (0.2, 0.3, 0.5), tempered at 0.5 to (4, 9, 25) / 38, top-2 keeps 1 and 2.
        model = MarkovGridPrior(codebook_size=3)
        table = LikelihoodTable([[2.0, 3.0, 5.0]], (1, 1))
        config = SamplingConfig(guidance=table, temperature=0.5, top_k=2)
        dist = exact_sequence_distribution(model, 1, 1, config=config)
        assert dist.keys() == {(1,), (2,)}
        assert abs(dist[(2,)] - 25 / 34) < 1e-12

    def test_total_mass_is_one(self, rng):
        corpus = [random_grid(rng, 2, 2, 3) for _ in range(5)]
        model = train_markov_prior(corpus)
        dist = exact_sequence_distribution(model, 2, 2)
        assert len(dist) == 81
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_support_respects_hard_zeros(self):
        model = train_markov_prior(
            [TokenGrid(1, 2, 3, [0, 1])], context=LEFT, smoothing_alpha=0.0
        )
        dist = exact_sequence_distribution(model, 1, 2)
        assert dist == {(0, 1): 1.0}

    def test_state_limit(self):
        model = MarkovGridPrior(codebook_size=10)
        with pytest.raises(ValidationError) as exc:
            exact_sequence_distribution(model, 3, 3)
        assert "exact-enumeration limit" in str(exc.value)


class TestModelIO:
    def build(self, rng):
        corpus = [
            (random_grid(rng, 4, 5, 6), random_semantics(rng, 4, 5, 2))
            for _ in range(5)
        ]
        return train_markov_prior(corpus, conditional=True, smoothing_alpha=0.25)

    def test_round_trip(self, tmp_path, rng):
        model = self.build(rng)
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert back.codebook_size == model.codebook_size
        assert back.context == model.context
        assert back.conditional and back.label_count == 2
        assert back.smoothing_alpha == 0.25
        for name in ("contexts", "labels", "counts", "smoothed"):
            assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_save_is_deterministic(self, tmp_path, rng):
        model = self.build(rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, model)
        save_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("batch", [2, 1024])
    @pytest.mark.parametrize("kind", ["default", "conditional", "4-slot", "single-state", "no-state"])
    def test_saved_bytes_are_one_json_dump(self, tmp_path, rng, monkeypatch, kind, batch):
        # Entries are encoded a batch at a time; the file is still the one
        # sorted, indent-2 dump of the whole payload.
        monkeypatch.setattr(prior, "_SAVE_ENTRIES", batch)
        corpus = [(random_grid(rng, 5, 6, 7), random_semantics(rng, 5, 6, 3)) for _ in range(4)]
        model = {
            "default": lambda: train_markov_prior(corpus),
            "conditional": lambda: train_markov_prior(corpus, conditional=True, smoothing_alpha=0.25),
            "4-slot": lambda: train_markov_prior(corpus, FOUR_SLOTS),
            "single-state": lambda: train_markov_prior([TokenGrid(1, 1, 3, [2])], LEFT, smoothing_alpha=0),
            "no-state": lambda: MarkovGridPrior(4, LEFT),
        }[kind]()
        order = np.lexsort((model.labels, *model.contexts.T[::-1]))
        tables = []
        for ctx, label, row in zip(model.contexts[order].tolist(), model.labels[order].tolist(), model.counts[order]):
            tokens = np.flatnonzero(row > 0)
            tables.append({
                "context": ["B" if t == BOUNDARY else t for t in ctx],
                "label": None if label < 0 else label,
                "counts": dict(zip(map(str, tokens.tolist()), row[tokens].tolist())),
            })
        payload = {
            "codebook_size": model.codebook_size,
            "context": [[dr, dc] for dr, dc in model.context],
            "conditional": model.conditional,
            "label_count": model.label_count,
            "smoothing_alpha": model.smoothing_alpha,
            "tables": tables,
        }
        path = tmp_path / "model.json"
        save_model(path, model)
        assert len(tables) == {"single-state": 1, "no-state": 0}.get(kind, len(model.counts))
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_boundary_serialized_symbolically(self, tmp_path):
        model = train_markov_prior([TokenGrid(1, 2, 4, [0, 0])], context=LEFT)
        path = tmp_path / "model.json"
        save_model(path, model)
        assert '"B"' in path.read_text()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{oops")
        with pytest.raises(ValidationError) as exc:
            load_model(path)
        assert "invalid model JSON" in str(exc.value)

    def test_malformed_payload(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"codebook_size": 4}\n')
        with pytest.raises(ValidationError) as exc:
            load_model(path)
        assert "malformed model JSON" in str(exc.value)

    def test_empty_template(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, train_markov_prior([TokenGrid(1, 2, 4, [0, 0])], context=LEFT))
        payload = json.loads(path.read_text())
        payload["context"] = []
        payload["tables"] = [{"context": [], "label": None, "counts": {"0": 2}}]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="malformed model JSON.*empty context template"):
            load_model(path)

    @pytest.mark.parametrize(
        "entry",
        [{"context": [0, 1], "label": None, "counts": {"0": 1}},
         {"context": [0], "label": None, "counts": {"9": 1}},
         {"context": [1], "label": None, "counts": {"-1": 5}},
         {"context": [1], "label": None, "counts": {"0": -3}},
         {"context": ["B"], "label": None, "counts": {"1": 2}},
         {"context": [1], "label": None, "counts": {"01": 2}},
         {"context": [1], "label": None, "counts": {"1": 2.5}},
         {"context": [1], "label": None, "counts": {"1": True}},
         {"context": [1.0], "label": None, "counts": {"1": 2}},
         {"context": ["1"], "label": None, "counts": {"1": 2}},
         {"context": [1], "label": None, "counts": []}],
        ids=["context-width", "token-range", "negative-token", "negative-count", "duplicate-state",
             "padded-key", "float-count", "bool-count", "float-context", "text-context",
             "counts-list"],
    )
    def test_malformed_table(self, tmp_path, entry):
        path = tmp_path / "model.json"
        model = train_markov_prior([TokenGrid(1, 2, 4, [0, 0])], context=LEFT)
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["tables"].append(entry)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="malformed model JSON"):
            load_model(path)


def test_prior_matches_unigram_when_contextless_corpus(rng=None):
    # A 1x1-grid corpus has boundary-only contexts, so the model's start
    # distribution must equal the corpus histogram.
    grids = [TokenGrid(1, 1, 3, [t]) for t in (0, 0, 1, 2, 2, 2)]
    model = train_markov_prior(grids, context=LEFT, smoothing_alpha=0.0)
    d = model.distribution_for_context((BOUNDARY,), None)
    pooled = np.array([2, 1, 3]) / 6.0
    assert np.allclose(d.probs, pooled, atol=1e-15)
