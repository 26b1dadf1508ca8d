import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gcs.core import SemanticGrid, TokenGrid, ValidationError
from gcs.distributions import histogram_from_grid
from gcs.metrics import total_variation
from gcs.world import (
    BenchmarkConfig,
    LayoutSpec,
    StyleSpec,
    default_landscape_config,
    generate_scenes,
    load_corpus,
    load_exemplars,
    load_grid_directory,
    load_manifest,
    make_benchmark,
    spatial_contrast_config,
)
from gcs.formats import dump_json, read_token_grid, write_semantic_grid, write_token_grid

from conftest import global_stats

SRC = str(Path(__file__).resolve().parents[1] / "src")


def generate_scene(style, layout, height, width, seed):
    """One scene, as `generate_scenes` draws it for (style, layout, seed)."""
    return next(generate_scenes([style], [layout], height, width, [seed]))


def dist(probs):
    """One label's probability row."""
    return np.array(probs, dtype=float)


def disjoint_styles(coherence=0.0):
    a = StyleSpec(
        "low", (dist([0.7, 0.3, 0.0, 0.0]), dist([0.4, 0.6, 0.0, 0.0])), coherence
    )
    b = StyleSpec(
        "high", (dist([0.0, 0.0, 0.7, 0.3]), dist([0.0, 0.0, 0.4, 0.6])), coherence
    )
    return a, b


def realize_layout(layout, height, width, label_count, seed):
    """The label map `generate_scene` draws for `layout` at this scene seed."""
    style = StyleSpec("flat", (dist([0.5, 0.5]),) * label_count)
    return generate_scene(style, layout, height, width, seed)[1]


def small_config(corpus_size=40, exemplars=2, height=8, width=8):
    return BenchmarkConfig(
        name="mini",
        codebook_size=4,
        label_count=2,
        height=height,
        width=width,
        corpus_size=corpus_size,
        exemplars_per_style=exemplars,
        seed=5,
        styles=disjoint_styles(0.3),
        layouts=(LayoutSpec("horizon"), LayoutSpec("bands", bands=2)),
    )


class TestStyleSpec:
    def test_properties(self):
        style = disjoint_styles()[0]
        assert style.codebook_size == 4
        assert style.label_count == 2

    def test_coherence_bounds(self):
        with pytest.raises(ValidationError):
            StyleSpec("x", (dist([0.5, 0.5]),), coherence=1.0)
        with pytest.raises(ValidationError):
            StyleSpec("x", (dist([0.5, 0.5]),), coherence=-0.1)

    def test_mixed_codebooks(self):
        with pytest.raises(ValidationError):
            StyleSpec("x", (dist([0.5, 0.5]), dist([0.4, 0.3, 0.3])))

    def test_empty_name(self):
        with pytest.raises(ValidationError):
            StyleSpec("", (dist([0.5, 0.5]),))

    def test_all_zero_label_row(self):
        with pytest.raises(ValidationError, match="'z' has an all-zero label distribution"):
            StyleSpec("z", (dist([0.5, 0.5]), dist([0.0, 0.0])))


class TestLayoutSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            LayoutSpec("diagonal")

    def test_bands_requires_count(self):
        with pytest.raises(ValidationError):
            LayoutSpec("bands")

    def test_constant_requires_label(self):
        with pytest.raises(ValidationError):
            LayoutSpec("constant")

    def test_dict_round_trip(self):
        layout = LayoutSpec("horizon", min_row=2, max_row=6)
        assert LayoutSpec.from_dict(layout.to_dict()) == layout

    def test_from_dict_missing_kind(self):
        with pytest.raises(ValidationError) as exc:
            LayoutSpec.from_dict({"bands": 2})
        assert "missing key 'kind'" in str(exc.value)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValidationError) as exc:
            LayoutSpec.from_dict({"kind": "bands", "bands": 2, "stripes": 3})
        assert "unknown key 'stripes'" in str(exc.value)


class TestRealizeLayout:
    def test_constant(self):
        sem = realize_layout(LayoutSpec("constant", label=1), 3, 4, 2, seed=0)
        assert np.all(sem.labels == 1)

    def test_constant_label_range(self):
        with pytest.raises(ValidationError):
            realize_layout(LayoutSpec("constant", label=2), 3, 4, 2, seed=0)

    def test_bands_partition(self):
        sem = realize_layout(LayoutSpec("bands", bands=2), 4, 3, 2, seed=0)
        assert sem.labels[:, 0].tolist() == [0, 0, 1, 1]

    def test_bands_cycle_through_labels(self):
        sem = realize_layout(LayoutSpec("bands", bands=3), 6, 2, 2, seed=0)
        assert sem.labels[:, 0].tolist() == [0, 0, 1, 1, 0, 0]

    def test_horizon_split_row_within_range(self):
        for seed in range(30):
            sem = realize_layout(
                LayoutSpec("horizon", min_row=2, max_row=5), 8, 4, 2, seed=seed
            )
            col = sem.labels[:, 0]
            split = int(np.argmax(col == 1))
            assert 2 <= split <= 5
            assert np.all(col[:split] == 0) and np.all(col[split:] == 1)
            # Rows are homogeneous under every built-in layout.
            assert np.all(sem.labels == col[:, None])

    def test_horizon_needs_two_labels(self):
        with pytest.raises(ValidationError):
            realize_layout(LayoutSpec("horizon"), 8, 4, 1, seed=0)

    def test_horizon_bad_range(self):
        with pytest.raises(ValidationError):
            realize_layout(LayoutSpec("horizon", min_row=5, max_row=2), 8, 4, 2, seed=0)

    def test_deterministic(self):
        a = realize_layout(LayoutSpec("horizon"), 8, 4, 2, seed=3)
        b = realize_layout(LayoutSpec("horizon"), 8, 4, 2, seed=3)
        assert a == b


class TestGenerateScene:
    def test_deterministic(self):
        style = disjoint_styles(0.4)[0]
        layout = LayoutSpec("horizon")
        a = generate_scene(style, layout, 8, 8, seed=11)
        b = generate_scene(style, layout, 8, 8, seed=11)
        assert a[0] == b[0] and a[1] == b[1]

    def test_one_hot_style_fills_constant(self):
        style = StyleSpec("flat", (dist([0.0] * 5 + [1.0]),), coherence=0.0)
        grid, _ = generate_scene(style, LayoutSpec("constant", label=0), 4, 6, seed=2)
        assert np.all(grid.tokens == 5)

    def test_marginals_match_style(self):
        # With coherence 0 every token is a fresh draw, so the empirical
        # histogram of a 64x64 scene tracks the style distribution closely.
        target = dist([0.4, 0.3, 0.2, 0.1])
        style = StyleSpec("plain", (target,), coherence=0.0)
        layout = LayoutSpec("constant", label=0)
        for seed in range(20):
            grid, _ = generate_scene(style, layout, 64, 64, seed=seed)
            hist = histogram_from_grid(grid, smoothing_alpha=0.0)
            assert total_variation(hist, global_stats(target)) <= 0.05

    def test_coherence_raises_left_copy_rate(self):
        smooth = StyleSpec("s", (dist([0.25] * 4),), coherence=0.8)
        rough = StyleSpec("r", (dist([0.25] * 4),), coherence=0.0)
        layout = LayoutSpec("constant", label=0)

        def copy_rate(style):
            grid, _ = generate_scene(style, layout, 32, 32, seed=1)
            t = grid.tokens
            return float((t[:, 1:] == t[:, :-1]).mean())

        assert copy_rate(smooth) > copy_rate(rough) + 0.3

    def test_disjoint_styles_are_separable(self):
        # Module contract: styles with disjoint supports yield scene
        # histograms at total variation >= 0.9 on 64x64 grids.
        a, b = disjoint_styles(0.2)
        layout = LayoutSpec("bands", bands=2)
        grid_a, _ = generate_scene(a, layout, 64, 64, seed=0)
        grid_b, _ = generate_scene(b, layout, 64, 64, seed=0)
        tv = total_variation(
            histogram_from_grid(grid_a, 0.0), histogram_from_grid(grid_b, 0.0)
        )
        assert tv >= 0.9


class TestGenerateScenes:
    def test_mixed_batch_equals_scenes_drawn_alone(self):
        a, b = disjoint_styles(0.5)
        layouts = [LayoutSpec("horizon"), LayoutSpec("bands", bands=3), LayoutSpec("constant", label=1)]
        jobs = [(a, layouts[0], 4), (b, layouts[1], 4), (a, layouts[2], 2**64 + 3), (b, layouts[0], 99)]
        styles, layout_list, seeds = zip(*jobs * 3)
        batch = list(generate_scenes(styles, layout_list, 9, 7, seeds))
        assert len(batch) == 12
        for (style, layout, seed), (grid, semantics) in zip(jobs * 3, batch):
            alone = generate_scene(style, layout, 9, 7, seed)
            assert grid == alone[0] and semantics == alone[1]

    def test_chunks_match_scenes_drawn_alone(self):
        # 100x100 grids put six scenes in a chunk, so 13 scenes span three.
        a, b = disjoint_styles(0.7)
        styles = [a, b] * 6 + [a]
        layouts = [LayoutSpec("horizon")] * 13
        batch = list(generate_scenes(styles, layouts, 100, 100, range(13)))
        for seed in (0, 5, 6, 12):
            assert batch[seed][0] == generate_scene(styles[seed], layouts[seed], 100, 100, seed)[0]

    def test_no_scenes(self):
        assert list(generate_scenes([], [], 4, 4, [])) == []

    def test_mixed_codebooks_rejected(self):
        small = StyleSpec("s", (dist([0.5, 0.5]),))
        large = StyleSpec("l", (dist([0.25] * 4),))
        layout = LayoutSpec("constant", label=0)
        with pytest.raises(ValidationError):
            next(generate_scenes([small, large], [layout] * 2, 2, 2, [0, 1]))


def test_import_leaves_the_sampling_stack_unloaded():
    # The world generator picks its tokens with the inverse-CDF search in
    # `rng`, so a process that only builds worlds compiles and imports no
    # sampler, prior or guidance.
    script = "import sys, gcs.world; print(*(m in sys.modules for m in ('gcs.sampler', 'gcs.prior', 'gcs.guidance')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "False", "False"]


def _tree_sha256(path):
    digest = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(item.relative_to(path)).encode() + b"\0")
        digest.update(item.read_bytes())
    return digest.hexdigest()


# sha256 of make_benchmark's output tree (relative paths and bytes) for
# worlds the CLI golden hashes do not reach; 64x64 grids span three chunks.
PINNED_WORLDS = {
    "constant-layout": (
        dict(layouts=(LayoutSpec("constant", label=1),), seed=1),
        "cf54d589224173b6553319de0866566466b8315e98bfa6b6c7a100ffe7af0f4c",
    ),
    "zero-weight": (
        dict(mixture_weights=(0.0, 1.0), seed=2),
        "eeaec89cfcf5a86dff3da0e3891b28f7825f43d83ffb4a89336eb299309388e1",
    ),
    "width-1": (
        dict(width=1, seed=3),
        "572c21ddb1515ce17de5b04bb86b552f20ada1ae3ba3f677357e8c7bbd9e4559",
    ),
    "height-1": (
        dict(height=1, layouts=(LayoutSpec("bands", bands=2), LayoutSpec("constant", label=1)), seed=4),
        "eb0ebdcf99d68ac3f1c2e48c1ec4a20b954dcb228958b45943786ec627c06d80",
    ),
    "coherence-0": (
        dict(styles=disjoint_styles(0.0), seed=6),
        "d09aa13db925a9016106139e5f34b83af52f36622b3e922abdfa934d45a270d9",
    ),
    "three-chunks": (
        dict(height=64, width=64, seed=8),
        "39004c84fb38b7c8ef4d60583edacd7cc4d2ba189996fb1a6d1972b3006b89e6",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_WORLDS))
def test_pinned_world_hashes(name, tmp_path):
    fields, expected = PINNED_WORLDS[name]
    make_benchmark(replace(small_config(), **fields), tmp_path)
    assert _tree_sha256(tmp_path) == expected


class TestBenchmarkConfig:
    def test_dict_round_trip(self):
        config = small_config()
        again = BenchmarkConfig.from_dict(config.to_dict())
        assert again == config

    def test_dict_round_trip_with_mixture_weights(self):
        config = replace(small_config(), mixture_weights=(1.0, 3.0))
        payload = config.to_dict()
        assert payload["mixture_weights"] == [1.0, 3.0]
        assert BenchmarkConfig.from_dict(payload) == config

    @pytest.mark.parametrize(
        "change, message",
        [({"codebook_size": 8}, "'low' codebook size 4 != benchmark codebook size 8"),
         ({"label_count": 3}, "'low' has 2 label distributions; benchmark declares 3")],
        ids=["codebook-size", "label-count"],
    )
    def test_constructor_rejects_styles_of_another_shape(self, change, message):
        with pytest.raises(ValidationError, match=message):
            replace(small_config(), **change)

    def test_missing_key_named(self):
        payload = small_config().to_dict()
        del payload["corpus_size"]
        with pytest.raises(ValidationError) as exc:
            BenchmarkConfig.from_dict(payload)
        assert "missing key 'corpus_size'" in str(exc.value)

    def test_support_shorthand(self):
        payload = small_config().to_dict()
        payload["styles"][0]["per_label"] = [{"support": [0, 1]}, {"support": [1]}]
        config = BenchmarkConfig.from_dict(payload)
        assert config.styles[0].per_label.tolist() == [[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]

    def test_empty_support_rejected(self):
        payload = small_config().to_dict()
        payload["styles"][0]["per_label"][0] = {"support": []}
        with pytest.raises(ValidationError) as exc:
            BenchmarkConfig.from_dict(payload)
        assert "empty support" in str(exc.value)

    def test_zero_mass_probs_rejected(self):
        payload = small_config().to_dict()
        payload["styles"][0]["per_label"][0] = {"probs": [0.0, 0.0, 0.0, 0.0]}
        with pytest.raises(ValidationError) as exc:
            BenchmarkConfig.from_dict(payload)
        assert "zero total mass" in str(exc.value)

    def test_style_codebook_must_match(self):
        payload = small_config().to_dict()
        payload["styles"][0]["per_label"][0] = {"probs": [0.5, 0.5]}
        with pytest.raises(ValidationError):
            BenchmarkConfig.from_dict(payload)

    def test_duplicate_style_names(self):
        a, _ = disjoint_styles()
        with pytest.raises(ValidationError):
            BenchmarkConfig(
                name="dup",
                codebook_size=4,
                label_count=2,
                height=4,
                width=4,
                corpus_size=4,
                exemplars_per_style=1,
                seed=0,
                styles=(a, a),
                layouts=(LayoutSpec("bands", bands=2),),
            )

    def test_mixture_weight_validation(self):
        base = small_config().to_dict()
        base["mixture_weights"] = [1.0]
        with pytest.raises(ValidationError):
            BenchmarkConfig.from_dict(base)
        base["mixture_weights"] = [-1.0, 2.0]
        with pytest.raises(ValidationError):
            BenchmarkConfig.from_dict(base)


class TestMakeBenchmark:
    def test_outputs_and_manifest(self, tmp_path):
        config = small_config()
        manifest = make_benchmark(config, tmp_path)
        assert manifest == load_manifest(tmp_path)
        assert len(manifest["scenes"]) == 40
        assert set(manifest["style_names"]) == {"low", "high"}
        first = read_token_grid(tmp_path / manifest["scenes"][0]["tokens"])
        assert (first.height, first.width) == (8, 8)
        assert len(manifest["exemplars"]["low"]) == 2

    def test_byte_identical_rerun(self, tmp_path):
        config = small_config(corpus_size=6, exemplars=1)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        make_benchmark(config, a_dir)
        make_benchmark(config, b_dir)
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()

    def test_single_scene_benchmark(self, tmp_path):
        config = small_config(corpus_size=1, exemplars=1)
        manifest = make_benchmark(config, tmp_path)
        assert len(manifest["scenes"]) == 1

    def test_equal_mixture_proportions(self, tmp_path):
        # Binomial(1000, 0.5) keeps each style's count inside [400, 600]
        # with overwhelming probability; the fixed seed freezes one outcome.
        config = small_config(corpus_size=1000, height=4, width=4)
        manifest = make_benchmark(config, tmp_path)
        counts = {"low": 0, "high": 0}
        for scene in manifest["scenes"]:
            counts[scene["style"]] += 1
        assert 400 <= counts["low"] <= 600
        assert 400 <= counts["high"] <= 600

    def test_similar_styles_warn(self, tmp_path):
        a = StyleSpec("a", (dist([0.5, 0.5, 0.0, 0.0]), dist([0.5, 0.5, 0.0, 0.0])))
        b = StyleSpec("b", (dist([0.45, 0.55, 0.0, 0.0]), dist([0.5, 0.5, 0.0, 0.0])))
        config = BenchmarkConfig(
            name="twins",
            codebook_size=4,
            label_count=2,
            height=4,
            width=4,
            corpus_size=2,
            exemplars_per_style=1,
            seed=0,
            styles=(a, b),
            layouts=(LayoutSpec("bands", bands=2),),
        )
        with pytest.warns(UserWarning, match="similar per-label"):
            make_benchmark(config, tmp_path)


class TestLoaders:
    def test_corpus_round_trip(self, tmp_path):
        config = small_config(corpus_size=5, exemplars=1)
        manifest = make_benchmark(config, tmp_path)
        corpus = load_corpus(tmp_path)
        assert len(corpus) == 5
        grid, sem = corpus[0]
        assert grid == read_token_grid(tmp_path / manifest["scenes"][0]["tokens"])
        assert sem is not None and (sem.height, sem.width) == (8, 8)

    def test_exemplars_by_style(self, tmp_path):
        make_benchmark(small_config(corpus_size=2, exemplars=3), tmp_path)
        exemplars = load_exemplars(tmp_path, "low")
        assert len(exemplars) == 3
        with pytest.raises(ValidationError) as exc:
            load_exemplars(tmp_path, "nosuch")
        assert "no exemplars recorded" in str(exc.value)

    def test_corpus_needs_a_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="no manifest.json"):
            load_corpus(tmp_path)

    def test_exemplars_must_be_an_object(self, tmp_path):
        dump_json(tmp_path / "manifest.json", {"scenes": [], "exemplars": [{"tokens": "a.tgrd"}]})
        with pytest.raises(ValidationError, match="'exemplars' must map style names to lists"):
            load_exemplars(tmp_path, "low")

    def test_directory_without_manifest(self, tmp_path, grid_factory):
        grids = [grid_factory(4, 4, 6) for _ in range(3)]
        for i, grid in enumerate(grids):
            write_token_grid(tmp_path / f"g{i}.tgrd", grid)
        loaded = load_grid_directory(tmp_path)
        assert unpacked(loaded) == [(grid, None) for grid in grids]
        assert [run.labels for run in loaded] == [None]

    def test_directory_semantics_siblings(self, tmp_path, grid_factory, rng):
        from conftest import random_semantics

        grid = grid_factory(4, 4, 6)
        sem = random_semantics(rng, 4, 4, 2)
        write_token_grid(tmp_path / "g0.tgrd", grid)
        write_semantic_grid(tmp_path / "g0.sgrd", sem)
        assert unpacked(load_grid_directory(tmp_path)) == [(grid, sem)]
        bare = load_grid_directory(tmp_path, with_semantics=False)
        assert unpacked(bare) == [(grid, None)]

    def test_streamed_directory_matches_loaded(self, tmp_path):
        # The packed runs hold the grids and maps `load_corpus` reads, in order.
        make_benchmark(small_config(corpus_size=5, exemplars=1), tmp_path)
        packed = load_grid_directory(tmp_path)
        assert len(packed) == 1 and unpacked(packed) == load_corpus(tmp_path)
        bare = unpacked(load_grid_directory(tmp_path, with_semantics=False))
        assert bare == load_corpus(tmp_path, with_semantics=False)
        checked = load_grid_directory(tmp_path, keep_semantics=False)
        assert unpacked(checked) == bare

    def test_stream_reads_each_file_when_reached(self, tmp_path, grid_factory):
        # Files are read in entry order; the first bad one fails the load.
        write_token_grid(tmp_path / "g0.tgrd", grid_factory(4, 4, 6))
        (tmp_path / "g1.tgrd").write_bytes(b"TGRD")
        (tmp_path / "g2.tgrd").write_bytes(b"XGRD" + bytes(20))
        with pytest.raises(ValidationError, match="^truncated TGRD file: 4 bytes is too short$"):
            load_grid_directory(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValidationError) as exc:
            load_grid_directory(tmp_path)
        assert "no token grids found" in str(exc.value)

    def test_runs_split_where_shape_or_maps_change(self, tmp_path, rng):
        # Bare directory: a run ends where the grid shape, the codebook size,
        # the label count or the presence of a sibling map changes.
        from conftest import random_grid, random_semantics

        layout = [((4, 4), 6, 2), ((4, 4), 6, 2), ((3, 5), 6, 2), ((4, 4), 6, None),
                  ((4, 4), 6, 3), ((4, 4), 6, 3), ((4, 4), 9, 3)]
        expected = []
        for i, (shape, size, labels) in enumerate(layout):
            grid = random_grid(rng, *shape, size)
            sem = None if labels is None else random_semantics(rng, *shape, labels)
            write_token_grid(tmp_path / f"g{i}.tgrd", grid)
            if sem is not None:
                write_semantic_grid(tmp_path / f"g{i}.sgrd", sem)
            expected.append((grid, sem))
        packed = load_grid_directory(tmp_path)
        assert [len(run.grids) for run in packed] == [2, 1, 1, 2, 1]
        assert unpacked(packed) == expected
        bare = load_grid_directory(tmp_path, with_semantics=False)
        assert [len(run.grids) for run in bare] == [2, 1, 3, 1]
        assert unpacked(bare) == [(grid, None) for grid, _ in expected]
        for run in packed + bare:
            assert not run.grids.tokens.flags.writeable
            assert run.labels is None or not run.labels.flags.writeable

    def test_a_map_of_another_shape_is_refused(self, tmp_path, grid_factory, rng):
        from conftest import random_semantics

        write_token_grid(tmp_path / "g0.tgrd", grid_factory(4, 4, 6))
        write_semantic_grid(tmp_path / "g0.sgrd", random_semantics(rng, 4, 3, 2))
        with pytest.raises(ValidationError, match="^grid is 4x4 but semantic map is 4x3$"):
            load_grid_directory(tmp_path)
        # A map read only to be checked need not match its grid.
        assert len(load_grid_directory(tmp_path, keep_semantics=False)) == 1

    @pytest.mark.parametrize("size, labels, tokens_type, labels_type", [
        (2, 1, np.int8, np.int8), (128, 128, np.int8, np.int8),
        (129, 129, np.int16, np.int16), (32769, 300, np.int32, np.int16),
    ])
    def test_run_types_follow_the_vocabularies(self, tmp_path, rng, size, labels, tokens_type, labels_type):
        from conftest import random_semantics

        grid = TokenGrid(2, 3, size, [[0, 1, size - 1], [size - 2, 0, 1]])
        sem = random_semantics(rng, 2, 3, labels)
        write_token_grid(tmp_path / "g0.tgrd", grid)
        write_semantic_grid(tmp_path / "g0.sgrd", sem)
        (run,) = load_grid_directory(tmp_path)
        assert run.grids.tokens.dtype == tokens_type and run.labels.dtype == labels_type
        assert unpacked([run]) == [(grid, sem)]


def unpacked(runs):
    """A packed corpus as the (grid, semantics) pairs `load_corpus` returns."""
    pairs = []
    for run in runs:
        for i, grid in enumerate(run.grids):
            sem = None if run.labels is None else SemanticGrid(grid.height, grid.width, run.label_count, run.labels[i])
            pairs.append((grid, sem))
    return pairs


class TestBuiltinConfigs:
    def test_landscape_shape(self):
        config = default_landscape_config()
        assert len(config.styles) == 4
        assert config.codebook_size == 32
        assert config.label_count == 2
        assert (config.height, config.width) == (32, 32)
        assert config.corpus_size == 2000
        assert config.seed == 7

    def test_landscape_styles_are_distinguishable(self, tmp_path, recwarn):
        # Adjacent style windows overlap by half, giving TV 0.5 exactly:
        # distinguishable enough that no similarity warning fires.
        config = default_landscape_config()
        a, b = config.styles[0], config.styles[1]
        tv = total_variation(global_stats(a.per_label[0]), global_stats(b.per_label[0]))
        assert abs(tv - 0.5) < 1e-12
        make_benchmark(
            BenchmarkConfig.from_dict({**config.to_dict(), "corpus_size": 1}),
            tmp_path,
        )
        assert not [w for w in recwarn if "similar" in str(w.message)]

    def test_spatial_contrast_shape(self):
        config = spatial_contrast_config()
        assert len(config.styles) == 2
        assert config.codebook_size == 16
        assert config.seed == 11
        # The two styles share their global token histogram; only the
        # arrangement across labels differs.
        a, b = config.styles
        assert np.allclose(a.per_label.mean(axis=0), b.per_label.mean(axis=0), atol=1e-12)
        assert total_variation(global_stats(a.per_label[0]), global_stats(b.per_label[0])) == 1.0
