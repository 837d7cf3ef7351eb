"""Tests for the LLM substrate: usage accounting, pricing, profiles and the simulated model."""

import pytest

from repro.data.schema import MatchLabel
from repro.engines.registry import create_engine
from repro.llm import (
    SimulatedLLM,
    UsageRecord,
    UsageTracker,
    available_models,
    get_pricing,
    get_profile,
    prompt_cost,
)
from repro.llm.pricing import usage_cost
from repro.prompting.batch import BatchPromptBuilder
from repro.prompting.parser import parse_batch_answers, parse_standard_answer
from repro.prompting.standard import StandardPromptBuilder


@pytest.fixture(scope="module")
def beer_prompt_parts(beer_dataset):
    questions = list(beer_dataset.splits.test)[:8]
    demos = list(beer_dataset.splits.train)[:8]
    return beer_dataset.attributes, questions, demos


class TestUsageTracker:
    def test_accumulates_tokens(self):
        tracker = UsageTracker()
        tracker.add(UsageRecord("gpt-3.5-03", prompt_tokens=100, completion_tokens=10))
        tracker.add(UsageRecord("gpt-3.5-03", prompt_tokens=50, completion_tokens=5))
        assert tracker.num_calls == 2
        assert tracker.prompt_tokens == 150
        assert tracker.completion_tokens == 15
        assert tracker.total_tokens == 165

    def test_reset(self):
        tracker = UsageTracker()
        tracker.add(UsageRecord("gpt-4", 10, 1))
        tracker.reset()
        assert tracker.num_calls == 0
        assert tracker.total_tokens == 0


class TestPricing:
    def test_gpt4_is_about_10x_gpt35(self):
        gpt35 = get_pricing("gpt-3.5-03")
        gpt4 = get_pricing("gpt-4")
        assert gpt4.prompt_price_per_1k == pytest.approx(10 * gpt35.prompt_price_per_1k)

    def test_prompt_cost_formula(self):
        assert prompt_cost("gpt-4", prompt_tokens=1000) == pytest.approx(0.01)
        assert prompt_cost("gpt-3.5-03", prompt_tokens=1000, completion_tokens=1000) == pytest.approx(0.003)

    def test_usage_cost(self):
        tracker = UsageTracker()
        tracker.add(UsageRecord("gpt-3.5-03", 2000, 0))
        assert usage_cost("gpt-3.5-03", tracker) == pytest.approx(0.002)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="no pricing"):
            get_pricing("gpt-99")


class TestProfiles:
    def test_all_models_have_profiles_and_pricing(self):
        for model in available_models():
            profile = get_profile(model)
            assert profile.name == model
            get_pricing(model)

    def test_capability_ordering(self):
        assert get_profile("gpt-4").perception_noise < get_profile("gpt-3.5-03").perception_noise
        assert get_profile("gpt-3.5-03").perception_noise < get_profile("gpt-3.5-06").perception_noise
        assert get_profile("llama2-70b").batch_failure_rate > 0.5

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError, match="no profile"):
            get_profile("palm-2")


class TestRegistry:
    def test_create_known_model(self):
        llm = create_engine("simulated", model="gpt-4", seed=3)
        assert isinstance(llm, SimulatedLLM)
        assert llm.model_name == "gpt-4"

    def test_create_unknown_model_raises_value_error(self):
        # Same error type and message shape as BatcherConfig's model check.
        with pytest.raises(ValueError, match="unknown model.*expected one of"):
            create_engine("simulated", model="claude-opus")


class TestSimulatedLLM:
    def test_usage_recorded_per_call(self, beer_prompt_parts):
        attributes, questions, demos = beer_prompt_parts
        prompt = BatchPromptBuilder(attributes).build(questions, demos)
        llm = SimulatedLLM("gpt-3.5-03", seed=1)
        response = llm.complete(prompt.text)
        assert llm.usage.num_calls == 1
        assert response.prompt_tokens > response.completion_tokens > 0
        assert response.total_tokens == response.prompt_tokens + response.completion_tokens

    def test_batch_answers_are_parseable_and_complete(self, beer_prompt_parts):
        attributes, questions, demos = beer_prompt_parts
        prompt = BatchPromptBuilder(attributes).build(questions, demos)
        response = SimulatedLLM("gpt-3.5-03", seed=1).complete(prompt.text)
        parsed = parse_batch_answers(response.text, len(questions))
        assert parsed.num_unanswered == 0
        assert all(label in (MatchLabel.MATCH, MatchLabel.NON_MATCH) for label in parsed.labels)

    def test_standard_answer_is_parseable(self, beer_prompt_parts):
        attributes, questions, demos = beer_prompt_parts
        prompt = StandardPromptBuilder(attributes).build(questions[0], demos)
        response = SimulatedLLM("gpt-3.5-03", seed=1).complete(prompt.text)
        parsed = parse_standard_answer(response.text)
        assert parsed.num_unanswered == 0

    def test_deterministic_for_same_seed(self, beer_prompt_parts):
        attributes, questions, demos = beer_prompt_parts
        prompt = BatchPromptBuilder(attributes).build(questions, demos)
        first = SimulatedLLM("gpt-3.5-03", seed=5).complete(prompt.text)
        second = SimulatedLLM("gpt-3.5-03", seed=5).complete(prompt.text)
        assert first.text == second.text

    def test_different_seeds_can_differ(self, beer_prompt_parts):
        attributes, questions, demos = beer_prompt_parts
        prompt = BatchPromptBuilder(attributes).build(questions, demos)
        responses = {
            SimulatedLLM("gpt-3.5-03", seed=seed).complete(prompt.text).text for seed in range(6)
        }
        assert len(responses) >= 1  # determinism per seed; variation allowed across seeds

    def test_llama_fails_on_batches_but_not_single_questions(self, beer_prompt_parts):
        attributes, questions, demos = beer_prompt_parts
        llm = SimulatedLLM("llama2-70b", seed=1)
        failures = 0
        for start in range(0, 40, 8):
            prompt = BatchPromptBuilder(attributes).build(questions[:8], demos[start % 8:][:4])
            parsed = parse_batch_answers(llm.complete(prompt.text).text, 8)
            failures += parsed.num_unanswered > 0
        assert failures >= 2  # fails most of the time on batches

        single = StandardPromptBuilder(attributes).build(questions[0], demos)
        parsed_single = parse_standard_answer(llm.complete(single.text).text)
        assert parsed_single.num_unanswered == 0

    def test_prompt_without_questions(self):
        llm = SimulatedLLM("gpt-3.5-03", seed=1)
        response = llm.complete("This prompt has no question blocks.")
        assert "could not find" in response.text.lower()

    def test_relevant_demonstrations_beat_no_demonstrations(self, beer_dataset):
        # ICL sanity: prompting with labeled nearest-neighbour demonstrations
        # should not be worse than zero-shot prompting on aggregate accuracy.
        from repro.clustering.distance import cross_distances
        from repro.features.structure_aware import StructureAwareExtractor

        questions = list(beer_dataset.splits.test)[:48]
        pool = list(beer_dataset.splits.train)
        extractor = StructureAwareExtractor(beer_dataset.attributes)
        question_features = extractor.extract_matrix(questions)
        pool_features = extractor.extract_matrix(pool)
        distances = cross_distances(question_features, pool_features)

        llm = SimulatedLLM("gpt-3.5-03", seed=2)
        builder = StandardPromptBuilder(beer_dataset.attributes)

        def accuracy(with_demos: bool) -> float:
            correct = 0
            for row, question in enumerate(questions):
                demos = []
                if with_demos:
                    nearest = distances[row].argsort()[:4]
                    demos = [pool[int(index)] for index in nearest]
                response = llm.complete(builder.build(question, demos).text)
                label = parse_standard_answer(response.text).resolved()[0]
                correct += label == question.label
            return correct / len(questions)

        assert accuracy(True) >= accuracy(False) - 0.05

    def test_temperature_must_be_non_negative(self):
        llm = SimulatedLLM("gpt-3.5-03", temperature=-1.0)
        assert llm.temperature == 0.0
