"""Benchmark inputs derived from the workload seed.

The workload seed fixes the world seed, every sampling seed and the
request order; the program under test only ever sees what is generated
here.  Seed 0 reproduces the README walkthrough exactly: world seed 7 (the
`landscape-2x4` preset), sampling seed 1 and dataset-stats seed 0.

Run as a script, it writes the world config JSON for a workload seed; the
walkthrough's set-up does this in a child process so the benchmark process
itself never imports numpy before the timed passes.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
HEIGHT = WIDTH = 32
DRAWS = 700  # Monte-Carlo draws, the CLI default
SEED_POOL = 4  # distinct sampling seeds per small-batch kind


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; `quick` shrinks them for the self-test."""

    corpus_size: int | None  # None keeps the preset's 2,000 scenes
    exemplars_per_style: int | None
    walkthrough_n: int
    small_n: int
    bulk_guided_n: int
    bulk_unguided_n: int
    setup_reps: int


FULL = Sizes(None, None, 50, 4, 2000, 500, 3)
QUICK = Sizes(40, 2, 4, 2, 16, 8, 1)


@dataclass(frozen=True)
class Inputs:
    seed: int
    world_seed: int
    stats_seed: int
    sample_seed: int
    sizes: Sizes

    def _draw(self, *labels) -> int:
        return random.Random(":".join(map(str, ("gcs-perfbench", self.seed, *labels)))).randrange(1, 2**31)

    def request_seed(self, kind: str, slot: int = 0) -> int:
        """Sampling seed of a request kind; small-batch cycles through SEED_POOL slots."""
        return self._draw("request", kind, slot)

    def order(self, kinds, cycle: int) -> list:
        """The kinds of one request cycle, in their seeded order."""
        kinds = list(kinds)
        random.Random(self._draw("order", cycle)).shuffle(kinds)
        return kinds


def derive(seed: int, quick: bool) -> Inputs:
    world_seed, stats_seed, sample_seed = 7, 0, 1  # the README's values
    if seed != DEFAULT_SEED:
        rng = random.Random(f"gcs-perfbench:{seed}")
        world_seed, stats_seed, sample_seed = (rng.randrange(1, 2**31) for _ in range(3))
    return Inputs(seed, world_seed, stats_seed, sample_seed, QUICK if quick else FULL)


def world_config_dict(world_seed: int, sizes: Sizes) -> dict:
    """The `landscape-2x4` preset with the world seed (and quick sizes) swapped in."""
    from gcs.world import default_landscape_config

    payload = default_landscape_config().to_dict()
    payload["seed"] = world_seed
    if sizes.corpus_size is not None:
        payload["corpus_size"] = sizes.corpus_size
        payload["exemplars_per_style"] = sizes.exemplars_per_style
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="world config JSON to write")
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    payload = world_config_dict(args.world_seed, QUICK if args.quick else FULL)
    Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
