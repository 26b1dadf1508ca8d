import glob
import hashlib
import json
import re
import shlex
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gcs.prior
from gcs.cli import main
from gcs.core import SemanticGrid, TokenGrid
from gcs.distributions import (
    COUNT_CELL_LIMIT,
    DRAW_LIMIT,
    ScopedDistributions,
    average_distributions,
    histogram_by_cell,
    histogram_by_region,
    histogram_from_grid,
)
from gcs.formats import (
    GRID_VOCAB_LIMIT,
    dump_json,
    load_json,
    read_stats,
    read_token_grid,
    token_grid_to_bytes,
    write_semantic_grid,
    write_token_grid,
    write_stats,
)
from gcs.prior import MODEL_CELL_LIMIT, load_model, save_model, train_markov_prior
from gcs.rng import split_seed
from gcs.sampler import SamplingConfig, sample_grid
from gcs.world import BenchmarkConfig, LayoutSpec, StyleSpec, default_landscape_config, make_benchmark

from conftest import random_grid, random_semantics
from test_world import small_config


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One generated benchmark shared by the pipeline tests."""
    base = tmp_path_factory.mktemp("world")
    config_path = base / "config.json"
    dump_json(config_path, small_config(corpus_size=30, exemplars=3).to_dict())
    out = base / "bench"
    assert main(["gen-world", "--config", str(config_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(world, tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    model = base / "model.json"
    stats = base / "dataset.json"
    style = base / "style.json"
    corpus = world / "corpus"
    assert main(["train-prior", "--corpus", str(corpus), "--out", str(model)]) == 0
    assert (
        main(["dataset-stats", "--corpus", str(corpus), "--out", str(stats), "--k", "50"])
        == 0
    )
    exemplar = world / "exemplars" / "low" / "ex_00.tgrd"
    assert main(["style-stats", str(exemplar), "--out", str(style)]) == 0
    return {"model": model, "dataset": stats, "style": style}


class TestGenWorld:
    def test_writes_manifest_and_reports(self, world):
        assert (world / "manifest.json").exists()
        assert (world / "corpus" / "scene_00000.tgrd").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = tmp_path / "config.json"
        dump_json(config_path, small_config(corpus_size=4, exemplars=1).to_dict())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-world", "--config", str(config_path), "--out", str(a)]) == 0
        assert main(["gen-world", "--config", str(config_path), "--out", str(b)]) == 0
        rel = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert rel
        for r in rel:
            assert (a / r).read_bytes() == (b / r).read_bytes()

    def test_malformed_config_syntax(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["gen-world", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_config_missing_key_is_named(self, tmp_path, capsys):
        payload = small_config().to_dict()
        del payload["corpus_size"]
        bad = tmp_path / "bad.json"
        dump_json(bad, payload)
        assert main(["gen-world", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "missing key 'corpus_size'" in capsys.readouterr().err

    def test_config_and_preset_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "gen-world",
                    "--config",
                    "x.json",
                    "--preset",
                    "landscape-2x4",
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
        assert exc.value.code == 2

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen-world", "--preset", "nope", "--out", str(tmp_path / "o")])

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        out = blocker / "bench"
        assert (
            main(["gen-world", "--preset", "landscape-2x4", "--out", str(out)]) == 3
        )
        assert "I/O error" in capsys.readouterr().err


class TestTrainPrior:
    def test_model_written(self, trained, capsys):
        payload = load_json(trained["model"])
        assert payload["codebook_size"] == 4
        assert payload["conditional"] is False

    def test_retraining_is_byte_identical(self, world, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        corpus = str(world / "corpus")
        assert main(["train-prior", "--corpus", corpus, "--out", str(a)]) == 0
        assert main(["train-prior", "--corpus", corpus, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_conditional_training(self, world, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            [
                "train-prior",
                "--corpus",
                str(world / "corpus"),
                "--out",
                str(out),
                "--conditional",
                "--context",
                "left",
            ]
        )
        assert rc == 0
        payload = load_json(out)
        assert payload["conditional"] is True
        assert payload["context"] == [[0, -1]]

    def test_conditional_needs_semantics(self, tmp_path, rng, capsys):
        bare = tmp_path / "corpus"
        bare.mkdir()
        for i in range(3):
            write_token_grid(bare / f"g{i}.tgrd", random_grid(rng, 4, 4, 4))
        out = tmp_path / "model.json"
        rc = main(
            ["train-prior", "--corpus", str(bare), "--out", str(out), "--conditional"]
        )
        assert rc == 2
        assert "semantic map" in capsys.readouterr().err

    def test_unknown_context_offset(self, world, tmp_path, capsys):
        rc = main(
            [
                "train-prior",
                "--corpus",
                str(world / "corpus"),
                "--out",
                str(tmp_path / "m.json"),
                "--context",
                "left,diagonal",
            ]
        )
        assert rc == 2
        assert "unknown context offset" in capsys.readouterr().err

    def test_empty_corpus_dir(self, tmp_path, capsys):
        empty = tmp_path / "corpus"
        empty.mkdir()
        rc = main(
            ["train-prior", "--corpus", str(empty), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "no token grids found" in capsys.readouterr().err

    def test_conditional_label_counts_must_agree(self, tmp_path, rng, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, labels in enumerate((2, 3)):
            write_token_grid(corpus / f"g{i}.tgrd", random_grid(rng, 4, 4, 4))
            write_semantic_grid(corpus / f"g{i}.sgrd", random_semantics(rng, 4, 4, labels))
        rc = main(["train-prior", "--corpus", str(corpus), "--out", str(tmp_path / "m.json"), "--conditional"])
        assert rc == 2
        assert "training corpus mixes label counts" in capsys.readouterr().err

    def test_refuses_a_model_too_large_to_load(self, world, tmp_path, monkeypatch, capsys):
        # The bound load_model applies holds at training time too, checked
        # before the (states x codebook size) counts are allocated.
        monkeypatch.setattr(gcs.prior, "MODEL_CELL_LIMIT", 64)
        out = tmp_path / "model.json"
        assert main(["train-prior", "--corpus", str(world / "corpus"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"error: \d+ states x 4 tokens exceeds the limit 64$", err.strip())
        assert not out.exists()


class TestDatasetStats:
    def test_global_stats(self, trained):
        stats = read_stats(trained["dataset"])
        assert stats.kind == "global"
        assert stats.codebook_size == 4

    def test_regional_and_spatial_variants(self, world, tmp_path):
        corpus = str(world / "corpus")
        reg_path = tmp_path / "reg.json"
        spat_path = tmp_path / "spat.json"
        assert (
            main(
                [
                    "dataset-stats",
                    "--corpus",
                    corpus,
                    "--out",
                    str(reg_path),
                    "--k",
                    "20",
                    "--by-region",
                ]
            )
            == 0
        )
        reg = read_stats(reg_path)
        assert reg.kind == "regional" and reg.cells is None
        assert (
            main(
                [
                    "dataset-stats",
                    "--corpus",
                    corpus,
                    "--out",
                    str(spat_path),
                    "--k",
                    "20",
                    "--by-cell",
                    "2x2",
                ]
            )
            == 0
        )
        stats = read_stats(spat_path)
        assert stats.kind == "spatial"
        assert stats.cells == (2, 2)

    def test_by_region_needs_semantics(self, tmp_path, rng, capsys):
        bare = tmp_path / "corpus"
        bare.mkdir()
        write_token_grid(bare / "g.tgrd", random_grid(rng, 4, 4, 4))
        rc = main(
            [
                "dataset-stats",
                "--corpus",
                str(bare),
                "--out",
                str(tmp_path / "s.json"),
                "--by-region",
            ]
        )
        assert rc == 2
        assert "semantic map for every corpus grid" in capsys.readouterr().err

    @staticmethod
    def mapped_corpus(tmp_path, rng):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(3):
            write_token_grid(corpus / f"g{i}.tgrd", random_grid(rng, 4, 4, 4))
            write_semantic_grid(corpus / f"g{i}.sgrd", random_semantics(rng, 4, 4, 2))
        return corpus

    @pytest.mark.parametrize("mode", [[], ["--by-cell", "2x2"]], ids=["global", "by-cell"])
    def test_corrupt_semantic_map_fails_every_mode(self, tmp_path, rng, capsys, mode):
        # Global and per-cell runs keep no semantic map but still read and
        # validate every one.
        corpus = self.mapped_corpus(tmp_path, rng)
        (corpus / "g1.sgrd").write_bytes((corpus / "g1.sgrd").read_bytes()[:-2])
        out = tmp_path / "d.json"
        rc = main(["dataset-stats", "--corpus", str(corpus), "--out", str(out), "--k", "5", *mode])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SGRD ")
        assert not out.exists()

    def test_by_region_rejects_a_grid_without_map(self, tmp_path, rng, capsys):
        corpus = self.mapped_corpus(tmp_path, rng)
        (corpus / "g1.sgrd").unlink()
        argv = ["dataset-stats", "--corpus", str(corpus), "--out", str(tmp_path / "d.json")]
        assert main(argv) == 0
        assert main(argv + ["--by-region"]) == 2
        assert "semantic map for every corpus grid" in capsys.readouterr().err

    def test_bad_tiling_string(self, world, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "dataset-stats",
                    "--corpus",
                    str(world / "corpus"),
                    "--out",
                    str(tmp_path / "s.json"),
                    "--by-cell",
                    "2by2",
                ]
            )
        assert exc.value.code == 2

    def test_oversized_k_notes_to_stderr(self, world, tmp_path, capsys):
        rc = main(
            [
                "dataset-stats",
                "--corpus",
                str(world / "corpus"),
                "--out",
                str(tmp_path / "s.json"),
                "--k",
                "500",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "exceeds the corpus size" in err

    def test_seed_precedence(self, world, tmp_path, monkeypatch):
        corpus = str(world / "corpus")

        def run(path, *extra):
            assert (
                main(
                    ["dataset-stats", "--corpus", corpus, "--out", str(path), "--k", "9"]
                    + list(extra)
                )
                == 0
            )
            return path.read_bytes()

        flagged = run(tmp_path / "a.json", "--seed", "9")
        monkeypatch.setenv("GCS_SEED", "9")
        from_env = run(tmp_path / "b.json")
        assert from_env == flagged
        monkeypatch.setenv("GCS_SEED", "3")
        overridden = run(tmp_path / "c.json", "--seed", "9")
        assert overridden == flagged
        default_seed = run(tmp_path / "d.json", "--seed", "0")
        monkeypatch.delenv("GCS_SEED")
        bare = run(tmp_path / "e.json")
        assert bare == default_seed

    def test_invalid_seed_env(self, world, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GCS_SEED", "t7")
        rc = main(
            [
                "dataset-stats",
                "--corpus",
                str(world / "corpus"),
                "--out",
                str(tmp_path / "s.json"),
            ]
        )
        assert rc == 2
        assert "GCS_SEED must be an integer" in capsys.readouterr().err


class TestStyleStats:
    def test_single_exemplar_matches_library(self, world, trained):
        stats = read_stats(trained["style"])
        grid = read_token_grid(world / "exemplars" / "low" / "ex_00.tgrd")
        direct = histogram_from_grid(grid, 0.5)
        assert np.array_equal(stats.probs, direct.probs)

    def test_multiple_inputs_require_average(self, world, tmp_path, capsys):
        inputs = sorted(str(p) for p in (world / "exemplars" / "low").glob("*.tgrd"))
        assert len(inputs) > 1
        rc = main(["style-stats"] + inputs + ["--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "--average" in capsys.readouterr().err

    def test_average_combines_uniformly(self, world, tmp_path):
        paths = sorted((world / "exemplars" / "low").glob("*.tgrd"))
        out = tmp_path / "s.json"
        rc = main(
            ["style-stats"] + [str(p) for p in paths] + ["--out", str(out), "--average"]
        )
        assert rc == 0
        expected = average_distributions(
            [histogram_from_grid(read_token_grid(p), 0.5) for p in paths]
        )
        assert np.allclose(read_stats(out).probs, expected.probs, atol=1e-15)

    def test_by_region_reads_sgrd_sibling(self, world, tmp_path):
        exemplar = world / "exemplars" / "low" / "ex_00.tgrd"
        out = tmp_path / "s.json"
        assert main(["style-stats", str(exemplar), "--out", str(out), "--by-region"]) == 0
        stats = read_stats(out)
        assert isinstance(stats, ScopedDistributions) and stats.cells is None

    def test_by_region_missing_sibling(self, tmp_path, rng, capsys):
        lone = tmp_path / "g.tgrd"
        write_token_grid(lone, random_grid(rng, 4, 4, 4))
        rc = main(
            ["style-stats", str(lone), "--out", str(tmp_path / "s.json"), "--by-region"]
        )
        assert rc == 2
        assert "semantic map next to each input" in capsys.readouterr().err

    def test_mixed_codebooks_rejected(self, tmp_path, rng, capsys):
        a, b = tmp_path / "a.tgrd", tmp_path / "b.tgrd"
        write_token_grid(a, random_grid(rng, 4, 4, 4))
        write_token_grid(b, random_grid(rng, 4, 4, 6))
        rc = main(
            ["style-stats", str(a), str(b), "--out", str(tmp_path / "s.json"), "--average"]
        )
        assert rc == 2
        assert "codebook size mismatch" in capsys.readouterr().err


    def test_oversized_vocabulary_header_rejected(self, tmp_path, capsys):
        # 24 bytes declaring a 2**22-token codebook: one 1x1 grid.
        path = tmp_path / "huge.tgrd"
        path.write_bytes(
            b"TGRD\x01\x00\x00\x00" + (1).to_bytes(4, "little") * 2
            + (2**22).to_bytes(4, "little") + bytes(4)
        )
        out = tmp_path / "s.json"
        rc = main(["style-stats", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "exceeds the format limit" in err and "Traceback" not in err
        assert not out.exists()


def test_unconditional_training_reads_no_semantic_maps(tmp_path, rng, capsys):
    """A corrupt .sgrd fails `train-prior` only when it trains on labels."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        write_token_grid(corpus / f"g{i}.tgrd", random_grid(rng, 4, 4, 4))
        (corpus / f"g{i}.sgrd").write_bytes(b"SGRD-corrupt")
    argv = ["train-prior", "--corpus", str(corpus), "--out", str(tmp_path / "model.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--conditional"]) == 2
    err = capsys.readouterr().err
    assert "truncated SGRD file" in err and "Traceback" not in err


@pytest.mark.parametrize("command, vary, message", [
    ("train-prior", "codebook", "training corpus mixes codebook sizes"),
    ("train-prior --conditional", "labels", "training corpus mixes label counts"),
    ("dataset-stats --k 1", "codebook", "codebook size mismatch across grids: [4, 6]"),
    ("dataset-stats --k 1 --by-region", "labels", "scope layout mismatch across estimates"),
])
def test_mixed_corpus_vocabularies_are_refused(tmp_path, rng, capsys, command, vary, message):
    # A grid of another codebook size or label count packs into a run of its
    # own; the commands refuse the mix whichever grids they draw.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, (size, labels) in enumerate(((4, 2), (6, 2) if vary == "codebook" else (4, 3))):
        write_token_grid(corpus / f"g{i}.tgrd", random_grid(rng, 4, 4, size))
        write_semantic_grid(corpus / f"g{i}.sgrd", random_semantics(rng, 4, 4, labels))
    out = tmp_path / "out.json"
    assert main([*command.split(), "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_corpus_commands_hold_about_one_byte_per_token(tmp_path, capsys):
    # Packed runs keep a 32-token corpus at one byte per token: from 200 to
    # 800 32x32 grids, each command's traced peak grows by at most 3 bytes
    # per added token (int64 grids took more than 8).
    commands = {
        "train-prior": "train-prior --corpus {}/corpus --out {}/model.json",
        "dataset-stats": "dataset-stats --corpus {}/corpus --out {}/stats.json --seed 0",
    }
    config = default_landscape_config().to_dict()
    peaks = {}
    for size in (200, 200, 800):  # the first pass warms one-time allocations
        bench = tmp_path / str(size)
        if not bench.exists():
            make_benchmark(BenchmarkConfig.from_dict({**config, "corpus_size": size, "exemplars_per_style": 1}), bench)
        for name, command in commands.items():
            tracemalloc.start()
            try:
                assert main(command.format(bench, tmp_path).split()) == 0
                peaks[name, size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    capsys.readouterr()
    for name in commands:
        growth = (peaks[name, 800] - peaks[name, 200]) / (600 * 32 * 32)
        assert growth <= 3, (name, growth)


def test_evaluate_holds_about_one_byte_per_sample_token(tmp_path, capsys):
    # Sample sets are read packed: from 200 to 800 32x32 samples per set,
    # evaluate's traced peak grows by at most 4 bytes per added sample token
    # (lists of int64 grids took about 10).
    rng = np.random.default_rng(0)
    style = tmp_path / "style.json"
    write_stats(style, histogram_from_grid(random_grid(rng, 32, 32, 32), 0.5))
    peaks = {}
    for size in (200, 200, 800):  # the first pass warms one-time allocations
        sets = tmp_path / str(size)
        for name in ("guided", "plain"):
            if not (sets / name).exists():
                (sets / name).mkdir(parents=True)
                for i in range(size):
                    write_token_grid(sets / name / f"sample_{i:03d}.tgrd", random_grid(rng, 32, 32, 32))
        tracemalloc.start()
        try:
            argv = f"evaluate --guided {sets}/guided --unguided {sets}/plain --style-stats {style} --out {sets}/r.json"
            assert main(argv.split()) == 0
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    growth = (peaks[800] - peaks[200]) / (2 * 600 * 32 * 32)
    assert growth <= 4, growth


class TestSample:
    def test_unguided_baseline(self, trained, tmp_path, capsys):
        out = tmp_path / "samples"
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(out),
                "--no-guidance",
                "--height",
                "8",
                "--width",
                "8",
                "--n",
                "3",
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        assert "3 unguided samples" in capsys.readouterr().out
        manifest = load_json(out / "manifest.json")
        assert manifest["mode"] is None and manifest["count"] == 3
        assert [e["seed"] for e in manifest["samples"]] == [
            split_seed(1, i) for i in range(3)
        ]
        grids = [read_token_grid(out / e["tokens"]) for e in manifest["samples"]]
        assert all(g.codebook_size == 4 for g in grids)

    def test_default_sample_count_is_four(self, trained, tmp_path):
        out = tmp_path / "samples"
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(out),
                "--no-guidance",
                "--height",
                "4",
                "--width",
                "4",
            ]
        )
        assert rc == 0
        assert len(list(out.glob("sample_*.tgrd"))) == 4

    def test_oversized_batch_rejected(self, trained, tmp_path, capsys):
        out = tmp_path / "samples"
        rc = main(
            ["sample", "--model", str(trained["model"]), "--out", str(out), "--no-guidance",
             "--height", "1", "--width", "1", "--n", str(2**40)]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "over the limit" in err and "Traceback" not in err
        assert not out.exists()

    def test_guided_run_and_identity_equivalence(self, trained, tmp_path):
        # Style stats == dataset stats means identity guidance: the guided
        # samples must be byte-identical to the unguided baseline.
        guided = tmp_path / "guided"
        plain = tmp_path / "plain"
        common = [
            "--model",
            str(trained["model"]),
            "--height",
            "8",
            "--width",
            "8",
            "--n",
            "2",
            "--seed",
            "3",
        ]
        rc = main(
            [
                "sample",
                "--out",
                str(guided),
                "--style-stats",
                str(trained["dataset"]),
                "--dataset-stats",
                str(trained["dataset"]),
                "--lambda",
                "2.5",
            ]
            + common
        )
        assert rc == 0
        assert main(["sample", "--out", str(plain), "--no-guidance"] + common) == 0
        for i in range(2):
            name = f"sample_{i:03d}.tgrd"
            assert (guided / name).read_bytes() == (plain / name).read_bytes()

    def test_global_guidance_is_the_one_cell_tiling(self, world, trained, tmp_path):
        # Global and 1x1 statistics give one guidance vector; the sample
        # directories differ only in the manifest's recorded mode.
        exemplar = str(world / "exemplars" / "low" / "ex_00.tgrd")
        corpus = str(world / "corpus")
        outs = {}
        for mode, flags in (("global", []), ("spatial", ["--by-cell", "1x1"])):
            style, dataset, out = (tmp_path / f"{mode}-{name}" for name in ("style", "data", "out"))
            assert main(["style-stats", exemplar, "--out", str(style), *flags]) == 0
            assert main(["dataset-stats", "--corpus", corpus, "--out", str(dataset),
                         "--k", "50", *flags]) == 0
            assert main(["sample", "--model", str(trained["model"]), "--out", str(out),
                         "--style-stats", str(style), "--dataset-stats", str(dataset),
                         "--height", "8", "--width", "8", "--n", "6", "--seed", "5",
                         "--temperature", "0.8", "--top-k", "3"]) == 0
            outs[mode] = out
        names = sorted(p.name for p in outs["global"].iterdir())
        assert names == sorted(p.name for p in outs["spatial"].iterdir())
        for name in names:
            if name == "manifest.json":
                a, b = (load_json(outs[mode] / name) for mode in ("global", "spatial"))
                assert (a.pop("mode"), b.pop("mode")) == ("global", "spatial")
            else:
                a, b = ((outs[mode] / name).read_bytes() for mode in ("global", "spatial"))
            assert a == b, name

    def test_true_guidance_changes_samples(self, trained, tmp_path):
        guided = tmp_path / "guided"
        plain = tmp_path / "plain"
        common = [
            "--model",
            str(trained["model"]),
            "--height",
            "8",
            "--width",
            "8",
            "--n",
            "2",
            "--seed",
            "3",
        ]
        rc = main(
            [
                "sample",
                "--out",
                str(guided),
                "--style-stats",
                str(trained["style"]),
                "--dataset-stats",
                str(trained["dataset"]),
            ]
            + common
        )
        assert rc == 0
        assert main(["sample", "--out", str(plain), "--no-guidance"] + common) == 0
        assert any(
            (guided / f"sample_{i:03d}.tgrd").read_bytes()
            != (plain / f"sample_{i:03d}.tgrd").read_bytes()
            for i in range(2)
        )

    def test_rerun_is_byte_identical(self, trained, tmp_path):
        args = [
            "sample",
            "--model",
            str(trained["model"]),
            "--no-guidance",
            "--height",
            "6",
            "--width",
            "6",
            "--n",
            "2",
            "--seed",
            "8",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("sample_000.tgrd", "sample_001.tgrd", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_wide_codebook_samples_match_sequential(self, tmp_path, rng):
        # K = 200 draws into int16; every file holds the bytes of its grid's
        # own `sample_grid` run.
        save_model(tmp_path / "model.json", train_markov_prior([random_grid(rng, 5, 6, 200) for _ in range(3)]))
        model = load_model(tmp_path / "model.json")
        out = tmp_path / "samples"
        args = ["sample", "--model", str(tmp_path / "model.json"), "--out", str(out), "--no-guidance"]
        assert main(args + ["--height", "5", "--width", "6", "--n", "7", "--seed", "4"]) == 0
        for i in range(7):
            grid = sample_grid(model, 5, 6, config=SamplingConfig(seed=split_seed(4, i)))
            assert (out / f"sample_{i:03d}.tgrd").read_bytes() == token_grid_to_bytes(grid)

    def test_guidance_flags_are_exclusive(self, trained, tmp_path, capsys):
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(tmp_path / "s"),
                "--no-guidance",
                "--style-stats",
                str(trained["style"]),
                "--height",
                "4",
                "--width",
                "4",
            ]
        )
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_guidance_needs_both_stats(self, trained, tmp_path, capsys):
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(tmp_path / "s"),
                "--style-stats",
                str(trained["style"]),
                "--height",
                "4",
                "--width",
                "4",
            ]
        )
        assert rc == 2
        assert "both --style-stats and --dataset-stats" in capsys.readouterr().err

    def test_shape_required_without_semantics(self, trained, tmp_path, capsys):
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(tmp_path / "s"),
                "--no-guidance",
                "--height",
                "4",
            ]
        )
        assert rc == 2
        assert "--semantics or both --height and --width" in capsys.readouterr().err

    def test_mode_mismatch_between_stats(self, world, trained, tmp_path, capsys):
        reg = tmp_path / "reg.json"
        assert (
            main(
                [
                    "dataset-stats",
                    "--corpus",
                    str(world / "corpus"),
                    "--out",
                    str(reg),
                    "--k",
                    "10",
                    "--by-region",
                ]
            )
            == 0
        )
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(tmp_path / "s"),
                "--style-stats",
                str(trained["style"]),
                "--dataset-stats",
                str(reg),
                "--height",
                "4",
                "--width",
                "4",
            ]
        )
        assert rc == 2
        assert "style stats are global but dataset stats are regional" in (
            capsys.readouterr().err
        )

    def test_mode_assertion_flag(self, trained, tmp_path, capsys):
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(tmp_path / "s"),
                "--style-stats",
                str(trained["style"]),
                "--dataset-stats",
                str(trained["dataset"]),
                "--mode",
                "regional",
                "--height",
                "4",
                "--width",
                "4",
            ]
        )
        assert rc == 2
        assert "--mode regional does not match" in capsys.readouterr().err

    def test_semantics_drive_shape(self, world, tmp_path, rng):
        model_path = tmp_path / "cond.json"
        assert (
            main(
                [
                    "train-prior",
                    "--corpus",
                    str(world / "corpus"),
                    "--out",
                    str(model_path),
                    "--conditional",
                ]
            )
            == 0
        )
        sem_path = tmp_path / "map.sgrd"
        write_semantic_grid(sem_path, random_semantics(rng, 8, 8, 2))
        out = tmp_path / "samples"
        rc = main(
            [
                "sample",
                "--model",
                str(model_path),
                "--out",
                str(out),
                "--no-guidance",
                "--semantics",
                str(sem_path),
                "--n",
                "2",
            ]
        )
        assert rc == 0
        grid = read_token_grid(out / "sample_000.tgrd")
        assert (grid.height, grid.width) == (8, 8)

    def test_semantics_shape_conflict(self, trained, tmp_path, rng, capsys):
        sem_path = tmp_path / "map.sgrd"
        write_semantic_grid(sem_path, random_semantics(rng, 8, 8, 2))
        rc = main(
            [
                "sample",
                "--model",
                str(trained["model"]),
                "--out",
                str(tmp_path / "s"),
                "--no-guidance",
                "--semantics",
                str(sem_path),
                "--height",
                "5",
            ]
        )
        assert rc == 2
        assert "disagree" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("regional", "per_label", 5),
        ("global", "probs", "ab"),
        ("spatial", "per_cell", [[3]]),
        ("spatial", "per_cell", 7),
        ("global", "codebook_size", "x"),
        ("regional", "per_label_mass", ["x"]),
        ("regional", "label_count", None),
        ("regional", "per_label_mass", [99.0, 99.0]),
        ("global", "source_mass", 10**400),
        ("global", "probs", [10**400, 0, 0, 0]),
        ("spatial", "cell_rows", float("inf")),
    ],
    ids=["per_label-5", "probs-ab", "per_cell-nested-int", "per_cell-7", "codebook_size-x",
         "per_label_mass-x", "label_count-null", "per_label_mass-disagrees",
         "source_mass-10**400", "probs-10**400", "cell_rows-inf"],
)
def test_malformed_stats_json_is_a_format_error(
    trained, tmp_path, rng, capsys, kind, key, value
):
    grid = random_grid(rng, 4, 4, 4)
    stats = {
        "global": lambda: histogram_from_grid(grid),
        "regional": lambda: histogram_by_region(grid, random_semantics(rng, 4, 4, 2)),
        "spatial": lambda: histogram_by_cell([grid], 2, 2),
    }[kind]()
    bad = tmp_path / "bad.json"
    write_stats(bad, stats)
    dump_json(bad, {**load_json(bad), key: value})
    rc = main(
        ["sample", "--model", str(trained["model"]), "--out", str(tmp_path / "s"),
         "--style-stats", str(bad), "--dataset-stats", str(trained["dataset"]),
         "--height", "4", "--width", "4"]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_style_mass_must_be_a_json_number(trained, tmp_path, capsys):
    # A mass of true equals 1.0 in value; only the JSON number is accepted.
    style = tmp_path / "style.json"
    common = ["--model", str(trained["model"]), "--style-stats", str(style),
              "--dataset-stats", str(trained["dataset"]), "--height", "4", "--width", "4"]
    for mass, code in ((1.0, 0), (True, 2)):
        dump_json(style, {**load_json(trained["style"]), "source_mass": mass})
        assert main(["sample", "--out", str(tmp_path / str(mass)), *common]) == code
    assert "source_mass does not match the entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "counts",
    [{"-1": 5}, {"0": -3}, {"1": 3, "01": 4}, {"+1": 2}, {"0": 2.5}, {"0": True}, {"0": "2"}],
    ids=["negative-token", "negative-count", "padded-key", "signed-key", "float-count",
         "bool-count", "text-count"],
)
def test_malformed_model_counts_exit_2(tmp_path, capsys, counts):
    path = tmp_path / "bad.json"
    save_model(path, train_markov_prior([TokenGrid(1, 2, 4, [0, 1])]))
    payload = json.loads(path.read_text())
    payload["tables"][0]["counts"] = counts
    path.write_text(json.dumps(payload))
    rc = main(
        ["sample", "--model", str(path), "--no-guidance", "--height", "2", "--width", "2",
         "--out", str(tmp_path / "s")]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "malformed model JSON" in err and "Traceback" not in err


# Model fields set to a value no saved model holds: (path to the field, value).
HOSTILE_MODEL_FIELDS = {
    "codebook-2**31": (["codebook_size"], 2**31),
    "codebook-over-limit": (["codebook_size"], GRID_VOCAB_LIMIT + 1),
    "codebook-text": (["codebook_size"], "4"),
    "codebook-float": (["codebook_size"], 4.9),
    "label-count-float": (["label_count"], 2.9),
    "offset-float": (["context", 0, 1], -1.7),
    "conditional-number": (["conditional"], 0),
    "alpha-text": (["smoothing_alpha"], "0.5"),
    # alpha x codebook size overflows, or an offset overflows int64 indexing.
    "alpha-1e308": (["smoothing_alpha"], 1e308),
    "offset-2**70": (["context", 0], [-(2**70), 0]),
    "label-count-2**70": (["label_count"], 2**70),
    # Four counts of 2**62 total 2**64, past the int64 range.
    "counts-total-2**64": (["tables", 0, "counts"], {str(t): 2**62 for t in range(4)}),
}


@pytest.mark.parametrize("fault", ["empty-context", "duplicate-state", *HOSTILE_MODEL_FIELDS])
def test_malformed_model_states_exit_2(tmp_path, capsys, fault):
    path = tmp_path / "bad.json"
    save_model(path, train_markov_prior([TokenGrid(1, 2, 4, [0, 1])]))
    payload = json.loads(path.read_text())
    if fault == "empty-context":
        payload["context"] = []
        payload["tables"] = [{"context": [], "label": None, "counts": {"0": 3, "1": 1}}]
    elif fault == "duplicate-state":
        payload["tables"].append(dict(payload["tables"][0], counts={"2": 7}))
    else:
        (*parents, last), value = HOSTILE_MODEL_FIELDS[fault]
        node = payload
        for key in parents:
            node = node[key]
        node[last] = value
    path.write_text(json.dumps(payload))
    rc = main(
        ["sample", "--model", str(path), "--no-guidance", "--height", "2", "--width", "2",
         "--out", str(tmp_path / "s")]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "malformed model JSON" in err and "Traceback" not in err


def test_conditional_model_with_huge_label_count_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    corpus = [(TokenGrid(1, 2, 4, [0, 1]), SemanticGrid(1, 2, 2, [0, 1]))]
    save_model(path, train_markov_prior(corpus, conditional=True))
    payload = json.loads(path.read_text())
    payload["label_count"] = 2**70
    path.write_text(json.dumps(payload))
    write_semantic_grid(tmp_path / "map.sgrd", SemanticGrid(2, 2, 2, [0, 1, 1, 0]))
    rc = main(["sample", "--model", str(path), "--no-guidance", "--semantics",
               str(tmp_path / "map.sgrd"), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "malformed model JSON" in err and "label count" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    "train-prior --corpus corpus --out m.json",
    "dataset-stats --corpus corpus --out d.json --k 2",
    "dataset-stats --corpus corpus --out d.json --k 2 --by-region",
    "style-stats corpus/g0.tgrd --out s.json",
], ids=["train-prior", "dataset-stats", "dataset-stats-by-region", "style-stats"])
def test_overflowing_alpha_exits_2(tmp_path, monkeypatch, capsys, rng, command):
    # 4 tokens x 1e308 overflows every row total, which would zero every row.
    monkeypatch.chdir(tmp_path)
    Path("corpus").mkdir()
    for i in range(2):
        write_token_grid(f"corpus/g{i}.tgrd", random_grid(rng, 2, 3, 4))
        write_semantic_grid(f"corpus/g{i}.sgrd", random_semantics(rng, 2, 3, 2))
    rc = main([*command.split(), "--alpha", "1e308"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("what", ["model", "stats"])
def test_repeated_json_keys_exit_2(trained, tmp_path, capsys, what):
    # JSON would keep the last of two values; both readers refuse the file.
    bad = tmp_path / "bad.json"
    if what == "model":
        payload = json.loads(Path(trained["model"]).read_text())
        payload["tables"][0]["counts"] = {"0": 7}
        bad.write_text(json.dumps(payload).replace('{"0": 7}', '{"0": 7, "0": 1}'))
        flags = ["--model", str(bad), "--no-guidance"]
    else:
        text = json.dumps(load_json(trained["style"]))
        bad.write_text(text.replace("{", '{"kind": "spatial", ', 1))
        flags = ["--model", str(trained["model"]), "--style-stats", str(bad),
                 "--dataset-stats", str(trained["dataset"])]
    rc = main(["sample", *flags, "--height", "4", "--width", "4", "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "repeated key" in err and "Traceback" not in err


def test_oversized_model_exits_2_before_allocating(tmp_path, capsys):
    # 65 states of 2**20 tokens would need 512 MiB per (S, K) matrix.
    size = GRID_VOCAB_LIMIT
    states = MODEL_CELL_LIMIT // size + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "codebook_size": size,
        "context": [[0, -1]],
        "conditional": False,
        "label_count": None,
        "smoothing_alpha": 0.5,
        "tables": [{"context": [t], "label": None, "counts": {str(t): 1}} for t in range(states)],
    }))
    tracemalloc.start()
    try:
        rc = main(["sample", "--model", str(path), "--no-guidance", "--height", "2",
                   "--width", "2", "--out", str(tmp_path / "s")])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "exceeds the limit" in err and "Traceback" not in err
    assert peak < 4 * 2**20


@pytest.mark.parametrize("command", [
    "style-stats corpus/g0.tgrd --out s.json --by-region",
    "dataset-stats --corpus corpus --out d.json --k 1 --by-region",
])
def test_oversized_counts_exit_2_before_allocating(tmp_path, monkeypatch, capsys, command):
    # A 4x4 grid over 2**20 tokens with a map of 2**20 labels: per-label
    # counts would need a 2**20 x 2**20 array.
    size = GRID_VOCAB_LIMIT
    assert size * size > COUNT_CELL_LIMIT
    monkeypatch.chdir(tmp_path)
    Path("corpus").mkdir()
    positions = np.arange(16).reshape(4, 4)
    write_token_grid("corpus/g0.tgrd", TokenGrid(4, 4, size, positions * 65_000))
    write_semantic_grid("corpus/g0.sgrd", SemanticGrid(4, 4, size, positions * 7))
    tracemalloc.start()
    try:
        rc = main(command.split())
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "exceeds the limit" in err and "Traceback" not in err
    assert peak < 4 * 2**20


DROP = object()  # an edit that deletes the key


def _config_edited(edits) -> dict:
    """The small config's dict with each (path, value) edit applied."""
    payload = small_config(corpus_size=2, exemplars=1).to_dict()
    for path, value in edits:
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return payload


def _config_with(path, value) -> dict:
    return _config_edited([(path, value)])


HOSTILE_CONFIGS = {
    "height-text": (["height"], "x"),
    "height-null": (["height"], None),
    "styles-int": (["styles"], 5),
    "layouts-int-entry": (["layouts"], [5]),
    "probs-text": (["styles", 0, "per_label", 0, "probs"], "ab"),
    "per-label-int": (["styles", 0, "per_label"], 5),
    "support-text": (["styles", 0, "per_label", 0], {"support": ["x"]}),
    "coherence-text": (["styles", 0, "coherence"], "x"),
    "min-row-text": (["layouts", 0, "min_row"], "x"),
    "bands-text": (["layouts", 1, "bands"], "x"),
    "name-int": (["styles", 0, "name"], 5),
    "name-parent-dir": (["styles", 0, "name"], "../evil"),
    "name-dot-dot": (["styles", 0, "name"], ".."),
    "name-nested": (["styles", 0, "name"], "a/b"),
    "weights-nan": (["mixture_weights"], [float("nan"), 1.0]),
    "weights-inf": (["mixture_weights"], [float("inf"), 1.0]),
    "probs-inf": (["styles", 0, "per_label", 0, "probs"], [float("inf"), 1.0, 1.0, 1.0]),
    "probs-nan": (["styles", 0, "per_label", 0, "probs"], [float("nan"), 1.0, 1.0, 1.0]),
    "probs-negative": (["styles", 0, "per_label", 0, "probs"], [2.0, -1.0, 1.0, 1.0]),
    "height-float": (["height"], 4.7),
    "height-bool": (["height"], True),
    "codebook-size-text": (["codebook_size"], "4"),
    "min-row-float": (["layouts", 0, "min_row"], 1.5),
    "support-float": (["styles", 0, "per_label", 0], {"support": [1.0]}),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path, value", HOSTILE_CONFIGS.values(), ids=HOSTILE_CONFIGS)
def test_malformed_config_fields_exit_2(tmp_path, capsys, path, value):
    bad = tmp_path / "bad.json"
    dump_json(bad, _config_with(path, value))
    out = tmp_path / "out"
    assert main(["gen-world", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "evil").exists()


REJECTED_CONFIGS = {
    "label-count-0": ([(["label_count"], 0), (["styles", 0, "per_label"], [])], "has no label distributions"),
    "style-without-name": ([(["styles", 0, "name"], DROP)], "style entry: missing key 'name'"),
    "style-without-per-label": ([(["styles", 0, "per_label"], DROP)], "style 'low': missing key 'per_label'"),
    "one-label-row": ([(["styles", 0, "per_label"], [{"support": [0]}])],
                      "style 'low': expected 2 label distributions, got 1"),
    "support-out-of-range": ([(["styles", 0, "per_label", 0], {"support": [9]})],
                             "support token 9 out of range for codebook size 4"),
    "row-without-weights": ([(["styles", 0, "per_label", 0], {})], "needs either 'probs' or 'support'"),
    "corpus-size-0": ([(["corpus_size"], 0)], "height, width, and corpus_size must be positive"),
    "exemplars-0": ([(["exemplars_per_style"], 0)], "exemplars_per_style must be positive"),
    "no-styles": ([(["styles"], [])], "benchmark needs at least one style"),
    "no-layouts": ([(["layouts"], [])], "benchmark needs at least one layout"),
}


@pytest.mark.parametrize("edits, message", REJECTED_CONFIGS.values(), ids=REJECTED_CONFIGS)
def test_rejected_configs_name_the_fault(tmp_path, capsys, edits, message):
    bad = tmp_path / "bad.json"
    dump_json(bad, _config_edited(edits))
    assert main(["gen-world", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["dataset-stats --corpus {corpus}", "style-stats {exemplar}"])
def test_zero_cell_tiling_exits_2(world, tmp_path, capsys, command):
    argv = command.format(corpus=world / "corpus", exemplar=world / "exemplars" / "low" / "ex_00.tgrd").split()
    assert main([*argv, "--out", str(tmp_path / "s.json"), "--by-cell", "0x2"]) == 2
    assert "cell tiling must be positive" in capsys.readouterr().err


def test_zero_height_exits_2(trained, tmp_path, capsys):
    rc = main(["sample", "--model", str(trained["model"]), "--no-guidance",
               "--height", "0", "--width", "4", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "grid shape 0x4 must be positive" in capsys.readouterr().err


CORPUS_MANIFESTS = {
    "scenes-int": {"scenes": 5},
    "scenes-int-entry": {"scenes": [5]},
    "entry-without-tokens": {"scenes": [{"semantics": "scene.sgrd"}]},
    "tokens-int": {"scenes": [{"tokens": 5}]},
}


@pytest.mark.parametrize("command", ["train-prior", "dataset-stats"])
@pytest.mark.parametrize("manifest", CORPUS_MANIFESTS.values(), ids=CORPUS_MANIFESTS)
def test_malformed_corpus_manifest_exit_2(tmp_path, capsys, command, manifest):
    dump_json(tmp_path / "manifest.json", manifest)
    assert main([command, "--corpus", str(tmp_path), "--out", str(tmp_path / "out.json")]) == 2
    assert "manifest" in capsys.readouterr().err


SAMPLE_MANIFESTS = {
    "list": [{"tokens": "sample_000.tgrd"}],
    "samples-int": {"samples": 5},
    "samples-int-entry": {"samples": [5]},
    "entry-without-tokens": {"samples": [{"seed": 3}]},
}


@pytest.mark.parametrize("manifest", SAMPLE_MANIFESTS.values(), ids=SAMPLE_MANIFESTS)
def test_malformed_samples_manifest_exit_2(trained, tmp_path, capsys, manifest):
    guided = tmp_path / "guided"
    guided.mkdir()
    write_token_grid(guided / "sample_000.tgrd", TokenGrid(2, 2, 4, [0, 1, 2, 3]))
    dump_json(guided / "manifest.json", manifest)
    rc = main(["evaluate", "--guided", str(guided), "--unguided", str(guided),
               "--style-stats", str(trained["style"]), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("train-prior --corpus d --out m.json", "scenes"),
     ("dataset-stats --corpus d --out s.json", "scenes"),
     ("evaluate --guided d --unguided d --style-stats {style} --out r.json", "samples")],
    ids=["train-prior", "dataset-stats", "evaluate"],
)
def test_manifest_without_the_list_names_it(trained, tmp_path, monkeypatch, capsys, command, key):
    # Each directory reads one list; a manifest holding only the other one lacks it.
    monkeypatch.chdir(tmp_path)
    Path("d").mkdir()
    write_token_grid("d/g.tgrd", TokenGrid(2, 2, 4, [0, 1, 2, 3]))
    other = "samples" if key == "scenes" else "scenes"
    dump_json("d/manifest.json", {other: [{"tokens": "g.tgrd"}]})
    assert main(command.format(style=trained["style"]).split()) == 2
    assert f"manifest has no {key!r} list" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["x", [1], 1.5, True], ids=["text", "list", "float", "bool"])
def test_non_integer_sample_seed_exits_2(trained, tmp_path, capsys, seed):
    guided = tmp_path / "guided"
    guided.mkdir()
    write_token_grid(guided / "sample_000.tgrd", TokenGrid(2, 2, 4, [0, 1, 2, 3]))
    dump_json(guided / "manifest.json", {"samples": [{"tokens": "sample_000.tgrd", "seed": seed}]})
    rc = main(["evaluate", "--guided", str(guided), "--unguided", str(guided),
               "--style-stats", str(trained["style"]), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "sample seed" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def _support_styles():
    """The small config's styles, each label given as a one-token support."""
    styles = small_config(corpus_size=2, exemplars=1).to_dict()["styles"]
    for style in styles:
        style["per_label"] = [{"support": [0]} for _ in style["per_label"]]
    return styles


OVERSIZED_WORLDS = {
    "positions": {"height": 100_000, "width": 100_000},
    "corpus": {"corpus_size": 10**12},
    "exemplars": {"exemplars_per_style": 10**12},
    "codebook": {"codebook_size": 10**12, "styles": _support_styles()},
}


@pytest.mark.parametrize("fields", OVERSIZED_WORLDS.values(), ids=OVERSIZED_WORLDS)
def test_oversized_world_exits_2_before_allocating(tmp_path, capsys, fields):
    bad = tmp_path / "bad.json"
    dump_json(bad, {**small_config(corpus_size=2, exemplars=1).to_dict(), **fields})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = main(["gen-world", "--config", str(bad), "--out", str(out)])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and re.search("exceeds? the limit", err)
    assert "Traceback" not in err
    assert peak < 4 * 2**20
    assert not out.exists()


@pytest.mark.parametrize("k", [10**12, DRAW_LIMIT + 1])
def test_oversized_draw_count_exits_2_before_allocating(world, tmp_path, capsys, k):
    tracemalloc.start()
    try:
        rc = main(["dataset-stats", "--corpus", str(world / "corpus"),
                   "--out", str(tmp_path / "d.json"), "--k", str(k)])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: draw count must be in [1, {DRAW_LIMIT}], got {k}")
    assert "Traceback" not in err
    assert peak < 4 * 2**20


def _hostile_grid(kind: str, fault: str) -> bytes:
    """A 2x3 grid file (vocabulary 4) broken in one way."""
    magic = kind.upper().encode()
    version, height, width, vocab = 1, 2, 3, 4
    values = [0, 1, 2, 3, 0, 1]
    if fault == "bad-magic":
        magic = b"XGRD"
    elif fault == "bad-version":
        version = 2
    elif fault == "zero-dimensions":
        height = 0
    elif fault == "value-at-vocab":
        values[4] = vocab
    elif fault == "huge-header":
        height = width = 2**32 - 1
    elif fault == "vocab-over-limit":
        vocab = GRID_VOCAB_LIMIT + 1
    data = struct.pack("<4sHHIII", magic, version, 0, height, width, vocab)
    data += np.asarray(values, dtype="<u4").tobytes()
    return {"truncated": data[:-2], "short-header": data[:10]}.get(fault, data)


GRID_FAULTS = ["truncated", "short-header", "bad-magic", "bad-version", "zero-dimensions",
               "value-at-vocab", "huge-header", "vocab-over-limit"]
# Each command and the kinds of corpus/g1 file it reads.  The global and
# per-cell dataset-stats read the corpus's semantic maps too.
GRID_READERS = {
    "train-prior": ("train-prior --corpus corpus --out m.json", "tgrd"),
    "train-prior-conditional": ("train-prior --corpus corpus --out m.json --conditional",
                                "tgrd sgrd"),
    "dataset-stats": ("dataset-stats --corpus corpus --out d.json --k 5", "tgrd sgrd"),
    "dataset-stats-by-region": ("dataset-stats --corpus corpus --out d.json --k 5 --by-region",
                                "tgrd sgrd"),
    "dataset-stats-by-cell": ("dataset-stats --corpus corpus --out d.json --k 5 --by-cell 2x2",
                              "tgrd sgrd"),
    "style-stats": ("style-stats corpus/g1.tgrd --out s.json", "tgrd"),
    "style-stats-by-region": ("style-stats corpus/g1.tgrd --out s.json --by-region", "tgrd sgrd"),
    "sample": ("sample --model model.json --no-guidance --semantics corpus/g1.sgrd --out out",
               "sgrd"),
    "evaluate": ("evaluate --guided corpus --unguided corpus --style-stats style.json "
                 "--out r.json", "tgrd"),
    "evaluate-semantics": ("evaluate --guided corpus --unguided corpus --style-stats style.json "
                           "--semantics corpus/g1.sgrd --out r.json", "tgrd sgrd"),
}
GRID_READS = [(c, k) for c, (_, kinds) in GRID_READERS.items() for k in kinds.split()]


@pytest.mark.parametrize("command, kind", GRID_READS, ids=[f"{c}-{k}" for c, k in GRID_READS])
def test_hostile_grid_files_exit_2_or_3(tmp_path, monkeypatch, capsys, rng, command, kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    for i in range(3):
        write_token_grid(f"corpus/g{i}.tgrd", random_grid(rng, 2, 3, 4))
        write_semantic_grid(f"corpus/g{i}.sgrd", random_semantics(rng, 2, 3, 2))
    save_model("model.json", train_markov_prior([random_grid(rng, 2, 3, 4)]))
    write_stats("style.json", histogram_from_grid(random_grid(rng, 2, 3, 4)))
    argv = GRID_READERS[command][0].split()
    for fault in GRID_FAULTS:
        Path(f"corpus/g1.{kind}").write_bytes(_hostile_grid(kind, fault))
        assert main(argv) in (2, 3), fault
        assert capsys.readouterr().err.startswith(("error: ", "I/O error: ")), fault


class TestEvaluate:
    @pytest.fixture()
    def sample_dirs(self, trained, tmp_path):
        guided = tmp_path / "guided"
        plain = tmp_path / "plain"
        common = [
            "--model",
            str(trained["model"]),
            "--height",
            "8",
            "--width",
            "8",
            "--n",
            "4",
            "--seed",
            "2",
        ]
        assert (
            main(
                [
                    "sample",
                    "--out",
                    str(guided),
                    "--style-stats",
                    str(trained["style"]),
                    "--dataset-stats",
                    str(trained["dataset"]),
                    "--lambda",
                    "2",
                ]
                + common
            )
            == 0
        )
        assert main(["sample", "--out", str(plain), "--no-guidance"] + common) == 0
        return guided, plain

    def test_full_report(self, trained, sample_dirs, tmp_path, capsys):
        guided, plain = sample_dirs
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--guided",
                str(guided),
                "--unguided",
                str(plain),
                "--style-stats",
                str(trained["style"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "relative KL reduction" in stdout
        payload = load_json(out)
        assert payload["target"] == "style"
        assert isinstance(payload["kl_reduction"], float)
        assert len(payload["guided"]["samples"]) == 4
        assert payload["guided"]["samples"][0]["seed"] == split_seed(2, 0)
        assert out.with_suffix(".csv").exists()

    def test_identical_directories_report_zero(self, trained, sample_dirs, tmp_path):
        _, plain = sample_dirs
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--guided",
                str(plain),
                "--unguided",
                str(plain),
                "--style-stats",
                str(trained["style"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert load_json(out)["kl_reduction"] == 0.0

    def test_directories_without_manifest(self, trained, sample_dirs, tmp_path):
        # Without manifest.json the sorted *.tgrd files are the samples, and
        # no seed is known.
        reports = []
        for stripped in (False, True):
            if stripped:
                for directory in sample_dirs:
                    (directory / "manifest.json").unlink()
            out = tmp_path / f"report-{stripped}.json"
            rc = main(["evaluate", "--guided", str(sample_dirs[0]), "--unguided",
                       str(sample_dirs[1]), "--style-stats", str(trained["style"]),
                       "--out", str(out)])
            assert rc == 0
            reports.append(load_json(out))
        full, bare = reports
        for side in ("guided", "unguided"):
            assert all(entry["seed"] is not None for entry in full[side]["samples"])
            for entry in full[side]["samples"]:
                entry["seed"] = None
        assert bare == full

    def test_empty_sample_directory(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(
            [
                "evaluate",
                "--guided",
                str(empty),
                "--unguided",
                str(empty),
                "--style-stats",
                str(trained["style"]),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "no samples found" in capsys.readouterr().err

    def test_spatial_style_stats_collapse(self, world, trained, sample_dirs, tmp_path):
        guided, plain = sample_dirs
        spat = tmp_path / "spat.json"
        assert (
            main(
                [
                    "dataset-stats",
                    "--corpus",
                    str(world / "corpus"),
                    "--out",
                    str(spat),
                    "--k",
                    "10",
                    "--by-cell",
                    "2x2",
                ]
            )
            == 0
        )
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--guided",
                str(guided),
                "--unguided",
                str(plain),
                "--style-stats",
                str(spat),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert load_json(out)["target"] == "spat"


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def readme_walkthrough() -> list[list[str]]:
    """The README's walkthrough commands, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Pipeline walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GCS_SEED", raising=False)
    commands = readme_walkthrough()
    assert len(commands) == 7
    for argv in commands:
        assert argv[0] == "gcs"
        args = []
        for arg in argv[1:]:
            args.extend(sorted(glob.glob(arg)) if "*" in arg else [arg])
        try:
            rc = main(args)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 0, " ".join(argv)
    # The library snippet reads what the walkthrough wrote, and computes its statistics.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(snippet, "README.md", "exec"), names)
    assert names["dataset"] == read_stats("work/dataset.json")
    assert names["style"] == read_stats("work/style.json")


# sha256 of every artifact one guided CLI run writes on the `world` fixture:
# files by their bytes, directories by their relative paths and bytes.
GOLDEN_SHARED = {
    "bench": "2892b22ce286f8359ee3b8c474041db31ec8ce270ff64de6b9b04d427b9126ad",
    "model.json": "266e82993ca760af3182b0c2ffb95dfa420bd4f37f7ade90159508e763fd4c0e",
    "model-conditional.json": "671172d7424cc2d1f25eba01a26fa0dcb82e0a4834d0c2c040a9110a5dc006c8",
    "model-4slot.json": "0c8a2ccadb22b154575a97a9764978a2738c08670dff091b1633e1629f876fcf",
    "plain": "dc5dee9a8912be0f880a0b7bf953b399a0e9c7429a1b85e165f32b0d2d327af0",
}
GOLDEN_SHA256 = {
    "global": {
        "dataset.json": "f7bf1e7e1b599269877b402eef801b43994e5a72c8e0bf8ffbfe635727de4fda",
        "guided": "72943d75758dc5d328ac475978b3ffaa3f1b6ce008b50d832df2e2979f0b32ec",
        "report.csv": "028ee7629275eaa2b7fb98d0adf050e6d16124c139d83d8b2033d56dbbdd444a",
        "report.json": "e2cf9c3994beb785e5cb11fbfd97a2e93d6b8c3242d841fe693c172bcb18092d",
        "style.json": "7df75d006dc0f6ee31df9af2f7067db687918e3f612b36d0237473d4615096ac",
    },
    "regional": {
        "dataset.json": "24ecba89dbdcf187d8fb302b8ac4b769ab9f5e357b8c0ec3401487b96afcead7",
        "guided": "a7862cb22d16819e190877c908104f76435d664e28843d9dde1314ffc9c9cd1d",
        "report.csv": "15ec49d1d3c76b981cfb4c5c6b50102996744f2759183785a5a1fedee680e3d0",
        "report.json": "199ad7d390e299fb604e28e444d917d6a289197167602e2835b332ed1c6557c0",
        "style.json": "3d7038b86bced02444bae7457791398690cefdee1dd87efa1f5819ff9a4dafc4",
    },
    "spatial": {
        "dataset.json": "68518594469467b902f9a12d0375788651339fc80f115362842ee28626e3b214",
        "guided": "2a2d47e5533a0e61366dff24fad59141ebc8bd1e50cda8fd5d41ae1a5c84135c",
        "report.csv": "cd2235d400a35cf22cd7a27d020fb616e857cff10a10e24930f94fe2d5f67b1a",
        "report.json": "a41ab7a201cd4d793b68f7d1b4835f56c8e8688fc552be958dccc7ec440d387a",
        "style.json": "bffdfc616b2412d0b1de13e35daedf23795ca304d14a6ded26b8e3900650413b",
    },
}


def _sha256(path: Path) -> str:
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(item.relative_to(path)).encode() + b"\0")
        digest.update(item.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "mode, flags",
    [("global", []), ("regional", ["--by-region"]), ("spatial", ["--by-cell", "2x2"])],
    ids=["global", "regional", "spatial"],
)
def test_golden_artifact_hashes(world, tmp_path, monkeypatch, mode, flags):
    """The artifacts match the bytes earlier versions wrote, not just a rerun."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GCS_SEED", raising=False)
    (tmp_path / "bench").symlink_to(world)
    exemplars = sorted(glob.glob("bench/exemplars/low/*.tgrd"))
    semantics = "bench/exemplars/low/ex_00.sgrd"
    shape = ["--semantics", semantics, "--seed", "3"]
    for argv in (
        ["train-prior", "--corpus", "bench/corpus", "--out", "model.json"],
        ["train-prior", "--corpus", "bench/corpus", "--out", "model-conditional.json",
         "--conditional"],
        ["train-prior", "--corpus", "bench/corpus", "--out", "model-4slot.json",
         "--context", "left,above,above-left,above-right"],
        ["dataset-stats", "--corpus", "bench/corpus", "--out", "dataset.json",
         "--k", "50", "--seed", "0", *flags],
        ["style-stats", *exemplars, "--average", "--out", "style.json", *flags],
        ["sample", "--model", "model.json", "--out", "guided", "--style-stats",
         "style.json", "--dataset-stats", "dataset.json", *shape],
        ["sample", "--model", "model.json", "--out", "plain", "--no-guidance", *shape],
        ["evaluate", "--guided", "guided", "--unguided", "plain", "--style-stats",
         "style.json", "--semantics", semantics, "--out", "report.json"],
    ):
        assert main(argv) == 0, " ".join(argv)
    expected = {**GOLDEN_SHARED, **GOLDEN_SHA256[mode]}
    digests = {name: _sha256(tmp_path / name) for name in expected if name != "bench"}
    digests["bench"] = _sha256(world)
    assert digests == expected


def one_scope_artifacts(base: Path, flags: list[str]) -> tuple[str, dict]:
    """Guided sampling and evaluation from one-scope statistics: the sample
    manifest's mode and the sha256 of the stats files and the report.  Each
    stats file must also read back and write out to the same bytes."""
    rng = np.random.default_rng(16)
    corpus = base / "corpus"
    corpus.mkdir()
    for i in range(6):
        write_token_grid(corpus / f"g{i}.tgrd", random_grid(rng, 4, 5, 5))
        write_semantic_grid(corpus / f"g{i}.sgrd", SemanticGrid(4, 5, 1, np.zeros((4, 5))))
    names = {name: str(base / name) for name in (
        "model.json", "style.json", "dataset.json", "guided", "plain", "report.json", "copy.json"
    )}
    common = ["--model", names["model.json"], "--semantics", str(corpus / "g0.sgrd"),
              "--n", "3", "--seed", "2"]
    for argv in (
        ["train-prior", "--corpus", str(corpus), "--out", names["model.json"]],
        ["dataset-stats", "--corpus", str(corpus), "--out", names["dataset.json"],
         "--k", "9", "--seed", "1", *flags],
        ["style-stats", str(corpus / "g0.tgrd"), str(corpus / "g1.tgrd"), "--average",
         "--out", names["style.json"], *flags],
        ["sample", *common, "--out", names["guided"], "--style-stats", names["style.json"],
         "--dataset-stats", names["dataset.json"]],
        ["sample", *common, "--out", names["plain"], "--no-guidance"],
        ["evaluate", "--guided", names["guided"], "--unguided", names["plain"],
         "--style-stats", names["style.json"], "--semantics", str(corpus / "g0.sgrd"),
         "--out", names["report.json"]],
    ):
        assert main(argv) == 0, " ".join(argv)
    for name in ("style.json", "dataset.json"):
        write_stats(names["copy.json"], read_stats(names[name]))
        assert Path(names["copy.json"]).read_bytes() == Path(names[name]).read_bytes()
    digests = {name: _sha256(base / name) for name in ("style.json", "dataset.json", "report.json")}
    return load_json(base / "guided" / "manifest.json")["mode"], digests


# A global file, a regional file over one label and a 1x1 spatial file each
# hold one scope; the files keep their kind, so each guides and evaluates as
# the same mode.  Digests taken before statistics became one array type.
ONE_SCOPE_SHA256 = {
    "global": {
        "style.json": "372b9261e02c307f10ff429b66858f875df6e3c178c39ced7ceb929c976459b9",
        "dataset.json": "dc3ca0bce01afae57e389cfb42dc05cb67b724fa2acbb5e751a7a9e8345b7527",
        "report.json": "fae3aec7a48e8a525ca39e4dbb5dba5f09a8c919965160776f0ac17f86460cc6",
    },
    "regional": {
        "style.json": "15dad18a9eec3aab5091c7343a726fb3ffb8fbbf03ce4624e60a24d460e5070e",
        "dataset.json": "a1aa0963ace78c4ae7ab48cf114603e3bfb49cb48616476a9a24d18e79d80c44",
        "report.json": "fb3f6ad276c50519e2156382537e18d361ac5825f49c414de6eaf8b446ac93ab",
    },
    "spatial": {
        "style.json": "d2aeeb3e5f57269098e772a206c46ac7be77c92615fe167219e39d5999acf956",
        "dataset.json": "26c7a1a0719084bcd50451b75d6099f76f676a376da2cf0a834bd898efa4e45d",
        "report.json": "fae3aec7a48e8a525ca39e4dbb5dba5f09a8c919965160776f0ac17f86460cc6",
    },
}


@pytest.mark.parametrize(
    "mode, flags",
    [("global", []), ("regional", ["--by-region"]), ("spatial", ["--by-cell", "1x1"])],
    ids=["global", "regional-one-label", "spatial-1x1"],
)
def test_one_scope_stats_keep_their_kind(tmp_path, mode, flags):
    assert one_scope_artifacts(tmp_path, flags) == (mode, ONE_SCOPE_SHA256[mode])
