"""Micro-benchmarks of the core components (not tied to a paper artifact).

These time the individual substrates — string similarity, feature extraction,
DBSCAN clustering, the greedy set cover and a single simulated LLM call — so
performance regressions in the building blocks are caught independently of the
end-to-end experiment timings.
"""

import numpy as np

from repro.clustering.dbscan import DBSCAN
from repro.clustering.neighbors import NeighborGraph
from repro.data.registry import load_dataset
from repro.features.structure_aware import StructureAwareExtractor
from repro.llm.simulated import SimulatedLLM
from repro.prompting.batch import BatchPromptBuilder
from repro.selection.set_cover import greedy_set_cover
from repro.text.similarity import levenshtein_ratio
from repro.text.tokenizer import ApproxTokenizer


def test_levenshtein_ratio_speed(benchmark):
    left = "Samsung Professional LED TV QX-4821B with wall mount"
    right = "Samsung Professional LED Television QX-4821 wall mount kit"
    result = benchmark(levenshtein_ratio, left, right)
    assert 0.0 <= result <= 1.0


def test_tokenizer_speed(benchmark):
    tokenizer = ApproxTokenizer()
    text = " ".join(["title: Samsung LED TV QX-4821B, price: 499.99"] * 50)
    count = benchmark(tokenizer.count, text)
    assert count > 100


def test_structure_feature_extraction_speed(benchmark):
    dataset = load_dataset("wa", seed=7, scale=0.02)
    pairs = list(dataset.splits.test)[:64]
    extractor = StructureAwareExtractor(dataset.attributes)
    matrix = benchmark(extractor.extract_matrix, pairs)
    assert matrix.shape == (len(pairs), len(dataset.attributes))


def test_dbscan_speed(benchmark):
    rng = np.random.default_rng(0)
    features = rng.random((256, 5))
    clusterer = DBSCAN(min_samples=3)
    result = benchmark(clusterer.fit, features)
    assert len(result.labels) == 256


def test_greedy_set_cover_speed(benchmark):
    rng = np.random.default_rng(0)
    num_items, num_candidates = 200, 400
    degrees = rng.integers(1, 12, size=num_candidates)
    indptr = np.zeros(num_candidates + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(num_items, size=degree, replace=False)) for degree in degrees]
    )
    coverage = NeighborGraph(
        indptr=indptr, indices=indices.astype(np.int64), num_cols=num_items,
        radius=0.0, metric="euclidean", inclusive=False,
    )
    solution = benchmark(greedy_set_cover, coverage, coverage.transpose())
    assert solution.selected


def test_simulated_llm_batch_call_speed(benchmark):
    dataset = load_dataset("beer", seed=7)
    questions = list(dataset.splits.test)[:8]
    demonstrations = list(dataset.splits.train)[:8]
    prompt = BatchPromptBuilder(dataset.attributes).build(questions, demonstrations)
    llm = SimulatedLLM("gpt-3.5-03", seed=1)
    response = benchmark(llm.complete, prompt.text)
    assert response.prompt_tokens > 0
