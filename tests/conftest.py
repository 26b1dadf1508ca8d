import numpy as np
import pytest

from gcs.core import SemanticGrid, TokenGrid
from gcs.distributions import ScopedDistributions
from gcs.guidance import LikelihoodTable, scoped_likelihoods

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


def scoped(rows, masses=None, layout="regional") -> ScopedDistributions:
    """Statistics whose scopes hold the given probability rows, None for an
    absent label; every mass is 0 unless given."""
    size = len(next(row for row in rows if row is not None))
    probs = [np.zeros(size) if row is None else row for row in rows]
    return ScopedDistributions(probs, [0.0] * len(rows) if masses is None else masses, layout)


def likelihood_weights(style, dataset, exponent=1.0) -> np.ndarray:
    """The guidance weights between two probability rows: the one row of
    the table of their global statistics."""
    table = scoped_likelihoods(global_stats(style), global_stats(dataset), None, None, exponent)
    return table.weights[0]


def guidance_row(weights) -> np.ndarray:
    """One row of guidance weights as a `LikelihoodTable` stores it."""
    return LikelihoodTable([weights]).weights[0]
