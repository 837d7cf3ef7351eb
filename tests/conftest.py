"""Shared fixtures for the test suite.

Datasets are generated once per session at small scales so the whole suite
stays fast while still exercising realistic data.
"""

from __future__ import annotations

import pytest

from repro.data.registry import load_dataset
from repro.engine.faults import CrashingLLM
from repro.engines.registry import create_engine
from repro.features.structure_aware import StructureAwareExtractor
from repro.text.similarity import clear_similarity_memo

#: Every variable ``create_engine`` reads from the environment.
ENGINE_VARIABLES = (
    "REPRO_ENGINE",
    "REPRO_ENGINE_MODEL",
    "REPRO_ENGINE_BASE_URL",
    "REPRO_ENGINE_RPS",
    "REPRO_ENGINE_TPM",
    "REPRO_ENGINE_MAX_ATTEMPTS",
    "REPRO_ENGINE_TIMEOUT",
    "REPRO_ENGINE_JSON_SCHEMA",
)


@pytest.fixture(autouse=True)
def clean_engine_env(monkeypatch):
    """Keep every test hermetic: no engine selection leaks in from the shell."""
    for variable in ENGINE_VARIABLES:
        monkeypatch.delenv(variable, raising=False)


@pytest.fixture(autouse=True)
def cold_similarity_memo():
    """Start every test with an empty similarity memo, so that no test's
    outcome depends on which tests ran before it."""
    clear_similarity_memo()


@pytest.fixture(scope="session")
def beer_dataset():
    """The full-size (450-pair) Beer benchmark — small enough to use everywhere."""
    return load_dataset("beer", seed=7)


@pytest.fixture(scope="session")
def fz_dataset():
    """A scaled-down Fodors-Zagats benchmark."""
    return load_dataset("fz", seed=7, scale=0.5)


@pytest.fixture(scope="session")
def wa_dataset():
    """A small Walmart-Amazon benchmark (5 attributes, product domain)."""
    return load_dataset("wa", seed=7, scale=0.02)


@pytest.fixture(scope="session")
def beer_questions(beer_dataset):
    """The Beer test split as a list of questions."""
    return list(beer_dataset.splits.test)


@pytest.fixture(scope="session")
def beer_pool(beer_dataset):
    """The Beer train split as the unlabeled demonstration pool."""
    return list(beer_dataset.splits.train)


@pytest.fixture(scope="session")
def beer_extractor(beer_dataset):
    """Structure-aware (Levenshtein ratio) extractor for the Beer schema."""
    return StructureAwareExtractor(beer_dataset.attributes)


@pytest.fixture(scope="session")
def beer_question_features(beer_extractor, beer_questions):
    return beer_extractor.extract_matrix(beer_questions)


@pytest.fixture()
def checkpoint_dir(tmp_path):
    """A fresh per-test checkpoint root for engine crash/resume tests."""
    path = tmp_path / "checkpoints"
    path.mkdir()
    return path


@pytest.fixture()
def make_crashing_llm():
    """Factory building a deterministic :class:`CrashingLLM` for a config.

    The wrapped client is created exactly as the pipeline would create it
    (same model/seed/temperature), so successful calls are byte-identical to
    an unwrapped run and ``fail_at_call=k`` is the only difference.
    """

    def factory(config, fail_at_call: int) -> CrashingLLM:
        inner = create_engine(
            config.engine,
            model=config.model,
            seed=config.seed,
            temperature=config.temperature,
        )
        return CrashingLLM(inner, fail_at_call=fail_at_call)

    return factory


@pytest.fixture(scope="session")
def beer_pool_features(beer_extractor, beer_pool):
    return beer_extractor.extract_matrix(beer_pool)
