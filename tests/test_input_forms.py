"""Every counting entry point gives one answer for every input form: a list
of grids, a list of (grid, semantics) pairs, a `TokenBatch`, and the
`load_grid_directory` runs of the same files, with or without their maps."""

import numpy as np
import pytest

from gcs.core import SemanticGrid, TokenBatch, TokenGrid, ValidationError
from gcs.distributions import histogram_by_cell, histograms, monte_carlo_distribution
from gcs.formats import write_semantic_grid, write_token_grid
from gcs.metrics import StyleReference, guidance_report, report_to_dict, style_match_rate
from gcs.prior import parse_context_template, train_markov_prior
from gcs.world import load_grid_directory

SIZE, LABELS = 6, 3
# Mixed shapes: one shape returns after another, so the files pack into three runs.
MIXED = [(4, 5)] * 3 + [(3, 3)] * 2 + [(4, 5)] * 2
SAME = [(4, 5)] * 6


def make_forms(directory, shapes, seed) -> dict:
    """Each input form of one set of grids and maps, read back from files."""
    rng = np.random.default_rng(seed)
    grids = [TokenGrid(*shape, SIZE, rng.integers(0, SIZE, shape)) for shape in shapes]
    maps = [SemanticGrid(*shape, LABELS, rng.integers(0, LABELS, shape)) for shape in shapes]
    directory.mkdir()
    for i, (grid, sem) in enumerate(zip(grids, maps)):
        write_token_grid(directory / f"g{i}.tgrd", grid)
        write_semantic_grid(directory / f"g{i}.sgrd", sem)
    forms = {
        "grids": grids,
        "pairs": list(zip(grids, maps)),
        "runs": load_grid_directory(directory),
        "bare runs": load_grid_directory(directory, with_semantics=False),
        "maps": maps,
    }
    assert len(forms["runs"]) == len({*shapes}) + (shapes is MIXED)
    if len({*shapes}) == 1:
        forms["batch"] = TokenBatch(np.stack([grid.tokens for grid in grids]), SIZE)
    return forms


@pytest.fixture(scope="module", params=["mixed", "same"])
def forms(request, tmp_path_factory):
    shapes = MIXED if request.param == "mixed" else SAME
    return make_forms(tmp_path_factory.mktemp(request.param) / "set", shapes, 1)


def one_answer(answers: dict):
    """The answer every form gave; fails naming the first form that differs."""
    (first, expected), *rest = answers.items()
    for name, got in rest:
        assert got == expected, (name, first)
    return expected


def unmapped(forms) -> dict:
    """The forms that carry no maps."""
    return {name: forms[name] for name in ("grids", "bare runs", "batch") if name in forms}


class TestStatistics:
    def test_histograms(self, forms):
        one_answer({name: histograms(grids) for name, grids in unmapped(forms).items()})
        maps = forms["maps"]
        per_label = {name: histograms(grids, maps=maps) for name, grids in unmapped(forms).items()}
        per_label.update(pairs=histograms(forms["pairs"]), runs=histograms(forms["runs"]))
        assert one_answer(per_label)[0].kind == "regional"
        one_answer({name: histograms(forms[name], cells=(2, 2)) for name in forms if name != "maps"})

    def test_histogram_by_cell(self, forms):
        names = [name for name in forms if name != "maps"]
        if "batch" not in forms:  # a cell histogram pools grids of one shape
            for name in names:
                with pytest.raises(ValidationError, match="grids must share dimensions"):
                    histogram_by_cell(forms[name], 2, 3)
            return
        one_answer({name: histogram_by_cell(forms[name], 2, 3) for name in names})

    def test_monte_carlo_distribution(self, forms):
        def estimate(grids, **scoping):
            return monte_carlo_distribution(grids, 40, 0.5, seed=3, **scoping)

        one_answer({name: estimate(grids) for name, grids in unmapped(forms).items()})
        per_label = {name: estimate(grids, maps=forms["maps"]) for name, grids in unmapped(forms).items()}
        per_label.update(pairs=estimate(forms["pairs"]), runs=estimate(forms["runs"]))
        assert one_answer(per_label).kind == "regional"
        one_answer({name: estimate(forms[name], cells=(2, 2)) for name in forms if name != "maps"})


class TestTraining:
    @pytest.mark.parametrize(
        "template, conditional",
        [("left,above", False), ("left,above", True), ("left,above,above-left,above-right", False)],
        ids=["default", "conditional", "4-slot"],
    )
    def test_train_markov_prior(self, forms, template, conditional):
        context = parse_context_template(template)
        names = ["pairs", "runs"] if conditional else [name for name in forms if name != "maps"]
        tables = {}
        for name in names:
            model = train_markov_prior(forms[name], context, conditional)
            tables[name] = [model.contexts.tolist(), model.labels.tolist(), model.counts.tolist(),
                            model.smoothed.tolist(), model.label_count]
        one_answer(tables)


class TestMetrics:
    TARGET = StyleReference.from_stats("goal", histograms(
        [TokenGrid(4, 5, SIZE, np.arange(20) % SIZE)], 0.5, [SemanticGrid(4, 5, LABELS, np.arange(20) % LABELS)]
    )[0])

    @pytest.fixture(scope="class")
    def unguided(self, forms, tmp_path_factory):
        shapes = MIXED if "batch" not in forms else SAME
        return make_forms(tmp_path_factory.mktemp("unguided") / "set", shapes, 2)

    def test_guidance_report_with_one_map_per_grid(self, forms, unguided):
        maps, seeds = forms["maps"], range(len(forms["maps"]))
        reports = {
            name: report_to_dict(guidance_report(grids, unguided[name], self.TARGET, maps, guided_seeds=seeds))
            for name, grids in unmapped(forms).items()
        }
        assert one_answer(reports)["kl_reduction_per_label"]

    def test_guidance_report_with_one_shared_map(self, forms, unguided):
        sem = forms["maps"][0]
        if "batch" not in forms:  # a shared map fits grids of one shape
            for name, grids in unmapped(forms).items():
                with pytest.raises(ValidationError, match="grid is 3x3 but semantic map is 4x5"):
                    guidance_report(grids, unguided[name], self.TARGET, regions=sem)
            return
        reports = {
            name: report_to_dict(guidance_report(grids, unguided[name], self.TARGET, regions=sem))
            for name, grids in unmapped(forms).items()
        }
        assert one_answer(reports)["kl_reduction_per_label"]

    def test_style_match_rate(self, forms):
        grids = forms["grids"]
        refs = [StyleReference.from_stats(f"s{i}", histograms(grids[i : i + 1], 0.5, forms["maps"][i : i + 1])[0])
                for i in range(2)]
        global_refs = [StyleReference(ref.name, ref.distribution) for ref in refs]
        truth = ["s0", "s1"] * 3 + ["s0"] * (len(grids) - 6)
        one_answer({name: style_match_rate(forms[name], global_refs, 0.5, truth) for name in forms if name != "maps"})
        one_answer({name: style_match_rate(forms[name], refs, 0.5, truth) for name in ("pairs", "runs")})
