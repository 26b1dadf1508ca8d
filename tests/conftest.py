import numpy as np
import pytest

from gcs.core import SemanticGrid, TokenGrid
from gcs.distributions import ScopedDistributions
from gcs.guidance import scoped_likelihoods

# Criterion verdicts from test_acceptance.py, echoed after the test run so
# they stay visible even with output capture on.
_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_grid(rng, height, width, codebook_size) -> TokenGrid:
    return TokenGrid(
        height, width, codebook_size, rng.integers(0, codebook_size, (height, width))
    )


def random_semantics(rng, height, width, label_count) -> SemanticGrid:
    return SemanticGrid(
        height, width, label_count, rng.integers(0, label_count, (height, width))
    )


@pytest.fixture
def grid_factory(rng):
    def make(height=4, width=4, codebook_size=6):
        return random_grid(rng, height, width, codebook_size)

    return make


def global_stats(probs, mass=0.0) -> ScopedDistributions:
    """Global statistics holding one probability row."""
    return ScopedDistributions([probs], [mass], "global")


def scoped(dists, layout="regional") -> ScopedDistributions:
    """Statistics whose scopes hold the given distributions, None for an
    absent label."""
    size = next(d.codebook_size for d in dists if d is not None)
    probs = [np.zeros(size) if d is None else d.probs for d in dists]
    masses = [0.0 if d is None else d.source_mass for d in dists]
    return ScopedDistributions(probs, masses, layout)


def likelihood_vector(style, dataset, exponent=1.0):
    """The one guidance vector between two distributions: the table of
    their global statistics."""
    table = scoped_likelihoods(
        global_stats(style.probs), global_stats(dataset.probs), None, None, exponent
    )
    return table.scopes[0]
