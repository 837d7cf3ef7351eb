"""End-to-end ER pipeline: candidate pairs -> streaming resolution -> evaluation.

As in the paper, blocking is an upstream step: each dataset already comes as
a blocked candidate-pair set over its two tables.  This example shows the
serving pipeline a practitioner would run on such a set:

1. generate two dirty product tables (Walmart-Amazon style) with their
   labeled candidate pairs,
2. stream the test split's candidate pairs through a :class:`repro.Resolver`
   session (persistent demonstration pool, concurrent LLM dispatch) — the
   pairs carry no gold labels, exactly like production traffic,
3. report accuracy against the hidden gold labels, plus monetary cost.

Run with:  python examples/end_to_end_pipeline.py
"""

from repro import BatcherConfig, ConcurrentExecutor, Resolver, load_dataset
from repro.data.schema import MatchLabel
from repro.evaluation.metrics import evaluate_predictions


def main() -> None:
    dataset = load_dataset("wa", seed=7, scale=0.05)
    candidates = dataset.candidate_pairs
    print(
        f"Tables: {len(dataset.table_a)} records (Walmart side), "
        f"{len(dataset.table_b)} records (Amazon side); "
        f"{len(candidates)} candidate pairs, {candidates.match_count()} matches"
    )

    # Serve the labeled candidate set as an unlabeled stream: the resolver
    # only sees pair attributes, the gold labels stay hidden for scoring.
    config = BatcherConfig(batching="diverse", selection="covering", seed=1)
    resolver = Resolver.from_dataset(dataset, config, executor=ConcurrentExecutor(4))
    stream = [pair.without_label() for pair in dataset.splits.test]
    resolutions = list(resolver.resolve_iter(stream, chunk_size=64))

    gold = [pair.label for pair in dataset.splits.test]
    predicted = [resolution.label for resolution in resolutions]
    metrics = evaluate_predictions(gold, predicted)
    matches = sum(1 for label in predicted if label is MatchLabel.MATCH)
    print(
        f"\nResolver session on the candidate stream: {len(resolutions)} pairs, "
        f"{matches} predicted matches — F1 {metrics.f1:.2f} "
        f"(P {metrics.precision:.1f} / R {metrics.recall:.1f})"
    )
    cost = resolver.cost()
    print(
        f"Cost: API ${cost.api_cost:.3f} + labeling ${cost.labeling_cost:.3f} "
        f"for {resolver.num_labeled} labeled demonstrations "
        f"over {resolver.usage.num_calls} LLM calls"
    )


if __name__ == "__main__":
    main()
