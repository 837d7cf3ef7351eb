"""The process-wide similarity memo of ``repro.text.similarity``.

The feature extractor and the simulated LLM both read per-attribute
similarities through it.  Its values must equal the scalar oracles whatever
it holds: cold, warm from an earlier run, or cleared part-way through a call
by its bound, and under concurrent callers.
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.registry import load_dataset
from repro.llm import SimulatedLLM
from repro.text import similarity
from repro.text.similarity import (
    clear_similarity_memo,
    jaccard_similarity,
    levenshtein_ratio,
    levenshtein_ratios,
    memoized_similarities,
    similarity_memo_size,
)


def _scalar_ratios(lefts, rights) -> np.ndarray:
    return np.array([levenshtein_ratio(left, right) for left, right in zip(lefts, rights)])


def _scalar_attribute_similarities(self, pairs):
    """The simulator's perception, one scalar ratio per present attribute."""
    profiles = []
    for pair in pairs:
        similarities = {}
        for attribute in sorted(set(pair.left) | set(pair.right)):
            left = pair.left.get(attribute, "").strip()
            right = pair.right.get(attribute, "").strip()
            if left and right:
                similarities[attribute] = levenshtein_ratio(left, right)
        profiles.append(similarities)
    return profiles


def _no_kernel(lefts, rights):
    raise AssertionError(f"{len(lefts)} value pairs missed a warm memo")


class _RecordingLLM(SimulatedLLM):
    """A simulated LLM that keeps every prompt it is asked."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.prompts: list[str] = []

    def _generate(self, prompt_text: str) -> str:
        self.prompts.append(prompt_text)
        return super()._generate(prompt_text)


@pytest.fixture(scope="module", params=[("beer", 1.0), ("ia", 0.5)], ids=["beer", "ia"])
def run_prompts(request) -> list[str]:
    """Every prompt of a fixed-seed BatchER run (ia has 8 attributes)."""
    name, scale = request.param
    dataset = load_dataset(name, seed=7, scale=scale)
    llm = _RecordingLLM(seed=0)
    BatchER(BatcherConfig(seed=0, max_questions=60), llm=llm).run(dataset)
    assert llm.prompts
    return llm.prompts


class TestSimulatedLLMReadsThroughTheMemo:
    def test_answers_are_byte_identical_cold_warm_and_bounded(self, run_prompts, monkeypatch):
        def answers() -> list[bytes]:
            llm = SimulatedLLM(seed=0)
            return [llm.complete(prompt).text.encode("utf-8") for prompt in run_prompts]

        with monkeypatch.context() as patch:
            patch.setattr(
                SimulatedLLM, "_attribute_similarities", _scalar_attribute_similarities
            )
            oracle = answers()
        assert similarity_memo_size() == 0, "the scalar oracle must bypass the memo"

        cold = []
        llm = SimulatedLLM(seed=0)
        for prompt in run_prompts:
            clear_similarity_memo()
            cold.append(llm.complete(prompt).text.encode("utf-8"))
        assert cold == oracle

        assert answers() == oracle
        # Warm: every ratio of the run is now memoized, and read from there.
        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_lane_ratios", _no_kernel)
            assert answers() == oracle

        # A bound below one prompt's value pairs clears the memo part-way.
        monkeypatch.setattr(similarity, "SIMILARITY_MEMO_SIZE", 8)
        clear_similarity_memo()
        assert answers() == oracle
        assert 0 < similarity_memo_size() <= 8


#: At least 5 distinct strings: their cross product has 25 or more pairs,
#: more than the bound of 16.
_pool = st.lists(
    st.text(alphabet="abc xyzABé", max_size=70), min_size=5, max_size=8, unique=True
)


class TestConcurrentMemo:
    @given(_pool, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_four_threads_agree_with_the_scalar_oracle_and_respect_the_bound(
        self, pool, shuffler
    ):
        pairs = [(left, right) for left in pool for right in pool]
        shuffler.shuffle(pairs)
        lefts = [left for left, _ in pairs]
        rights = [right for _, right in pairs]
        expected = _scalar_ratios(lefts, rights)
        bound = 16
        barrier = threading.Barrier(4)
        failures: list[str] = []

        def worker(offset: int) -> None:
            barrier.wait()
            for start in range(offset, len(pairs) + offset, 3):
                # Overlapping windows of the same pairs, from every thread.
                window = [(start + k) % len(pairs) for k in range(12)]
                got = levenshtein_ratios([lefts[i] for i in window], [rights[i] for i in window])
                if got.tobytes() != expected[window].tobytes():
                    failures.append(f"thread {offset}: wrong ratios for {window}")
                if similarity_memo_size() > bound:
                    failures.append(f"thread {offset}: memo past its bound")

        # Step cost 0: the misses of every window run through the lanes.  A
        # short switch interval interleaves the threads inside each call.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(
                similarity, "SIMILARITY_MEMO_SIZE", bound
            ), mock.patch.object(similarity, "_LANE_STEP_COST", 0):
                clear_similarity_memo()
                threads = [
                    threading.Thread(target=worker, args=(offset,)) for offset in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert similarity_memo_size() <= bound
        finally:
            sys.setswitchinterval(interval)
        assert not failures


class TestMemoKeys:
    def test_each_function_has_its_own_values(self):
        key = ("listen", "silent")
        lr = memoized_similarities("levenshtein_ratio", [key])
        jaccard = memoized_similarities("jaccard", [key])
        assert similarity_memo_size() == 2
        assert lr == [levenshtein_ratio(*key)] and jaccard == [jaccard_similarity(*key)]
        assert memoized_similarities("levenshtein_ratio", [key, key]) == lr * 2

    def test_keys_are_the_exact_strings(self):
        # Equal after normalisation, but distinct keys with equal values.
        ratios = levenshtein_ratios(["Kitten", " kitten "], ["sitting", "sitting"])
        assert similarity_memo_size() == 2
        assert ratios.tobytes() == _scalar_ratios(["Kitten"] * 2, ["sitting"] * 2).tobytes()

    def test_unknown_function_is_refused(self):
        with pytest.raises(KeyError):
            memoized_similarities("no-such-function", [("a", "b")])
