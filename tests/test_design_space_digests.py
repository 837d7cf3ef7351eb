"""Fixed-seed ``RunResult`` digests for the paper's design space.

Pins one digest per cell of the 3 x 4 batching x selection grid at the
default extractor, plus the ``jaccard`` and ``semantic`` extractors at the
default cell.  Any change to featurization, planning, batching, selection,
prompting or the simulated LLM that alters a run shows up here.

The digest is the e2e harness's: sha256 of the ``RunResult`` dataclass dumped
as sorted JSON.  Regenerate the golden file (only when a result change is
intended) with::

    PYTHONPATH=src python tests/test_design_space_digests.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.registry import load_dataset

GOLDEN = Path(__file__).parent / "golden" / "design_space_digests.json"

BATCHING = ("random", "similar", "diverse")
SELECTION = ("fixed", "topk-batch", "topk-question", "covering")
EXTRACTORS = ("jaccard", "semantic")


def cells() -> dict[str, BatcherConfig]:
    """Every pinned design-space point, keyed by a stable name."""
    grid = {
        f"{batching}+{selection}": BatcherConfig(
            batching=batching, selection=selection, seed=0, max_questions=60
        )
        for batching in BATCHING
        for selection in SELECTION
    }
    extractors = {
        f"diverse+covering/{extractor}": BatcherConfig(
            feature_extractor=extractor, seed=0, max_questions=60
        )
        for extractor in EXTRACTORS
    }
    return {**grid, **extractors}


def digest(result) -> str:
    """Content digest of a ``RunResult`` (exact floats, every field)."""
    text = json.dumps(asdict(result), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    dataset = load_dataset("beer", seed=7)
    return {name: digest(BatchER(config).run(dataset)) for name, config in cells().items()}


def test_golden_covers_every_cell():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cells())


@pytest.mark.parametrize("name", sorted(cells()))
def test_design_space_digest(name, beer_dataset):
    golden = json.loads(GOLDEN.read_text())
    assert digest(BatchER(cells()[name]).run(beer_dataset)) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
