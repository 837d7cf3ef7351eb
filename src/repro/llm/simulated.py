"""Simulated in-context-learning LLM for entity resolution.

This is the offline substitute for the proprietary LLM APIs the paper calls
(see DESIGN.md).  The simulation is *behavioural*: the model reads the actual
prompt text, and its accuracy depends on the same factors that drive a real
LLM's accuracy in the paper's experiments —

* **perception**: each question is judged by a noisy internal similarity score
  over the attribute values of the two entities (weighted towards the worst
  matching attribute, because identifiers and model numbers are what
  distinguish hard non-matches);
* **demonstration calibration** (ICL): demonstrations that are *relevant* to a
  question (nearby in per-attribute-similarity space) let the model re-estimate
  its decision threshold; irrelevant demonstrations leave it with a generic,
  mildly miscalibrated prior;
* **batch context**: when a prompt contains several questions with *contrasting*
  similarity levels, the model calibrates its threshold against that contrast
  and becomes less noisy (higher precision) — the mechanism the paper credits
  for batch prompting's accuracy gains.  Conversely, a batch of near-identical
  questions can make the model collapse to identical answers (the failure mode
  of similarity-based batching);
* **capability profile**: noise, calibration skill, batch competence and batch
  failure rate are per-model (:mod:`repro.llm.profiles`).

Every decision is driven by RNGs seeded from the model name, the client seed
and the question content, so the whole benchmark suite is reproducible.

Perception reads each attribute's Levenshtein ratio (Eq. 5) through the
process-wide similarity memo of :mod:`repro.text.similarity`: the present
value pairs of a prompt's demonstrations and questions go to one
:func:`~repro.text.similarity.levenshtein_ratios` call, so the pairs the
feature extractor already compared, in this run or an earlier one, are read
rather than recomputed.  The memo is bounded by
``repro.text.similarity.SIMILARITY_MEMO_SIZE`` values and its values equal
the scalar ratios, so answers never depend on what it holds.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

import numpy as np

from repro.llm.base import LLMClient
from repro.llm.comprehension import ReadDemonstration, ReadPair, read_prompt
from repro.llm.profiles import ModelProfile, get_profile
from repro.text.similarity import levenshtein_ratios
from repro.text.tokenizer import ApproxTokenizer

#: Weight of the mean attribute similarity in the internal score.
MEAN_WEIGHT = 0.6
#: Weight of the minimum attribute similarity in the internal score.
MIN_WEIGHT = 0.4
#: Batch score spread below which the model risks herding to identical answers.
HERDING_SPREAD = 0.04
#: Batch score spread at which the batch-contrast benefit saturates.
SPREAD_SATURATION = 0.25
#: Minimum number of questions for batch-contrast calibration to kick in.
MIN_BATCH_FOR_CONTRAST = 3
#: Extra noise factor applied to single-question (standard prompting) calls.
SINGLE_QUESTION_NOISE_PENALTY = 1.25

_MATCH_REASONS = (
    "the records agree on their key attributes",
    "the differences are only formatting and abbreviations",
    "both records describe the same item despite minor typos",
)
_NON_MATCH_REASONS = (
    "the identifying attributes differ",
    "the records describe related but distinct items",
    "key fields such as the model or edition do not agree",
)


def _stable_seed(*parts: str) -> int:
    """Derive a deterministic 64-bit seed from string parts."""
    digest = hashlib.blake2b("||".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _pair_signature(pair: ReadPair) -> str:
    """Stable textual signature of a question pair (order-independent per side)."""
    left = ";".join(f"{k}={v}" for k, v in sorted(pair.left.items()))
    right = ";".join(f"{k}={v}" for k, v in sorted(pair.right.items()))
    return f"{left}##{right}"


def _present_values(pair: ReadPair) -> list[tuple[str, str, str]]:
    """``(attribute, left value, right value)`` of every attribute with a value
    on both sides, in attribute order."""
    present = []
    for attribute in sorted(set(pair.left) | set(pair.right)):
        left_value = pair.left.get(attribute, "").strip()
        right_value = pair.right.get(attribute, "").strip()
        if left_value and right_value:
            present.append((attribute, left_value, right_value))
    return present


class SimulatedLLM(LLMClient):
    """Behavioural simulation of an LLM answering ER prompts.

    Args:
        model_name: one of the registered profiles (``"gpt-3.5-03"``,
            ``"gpt-3.5-06"``, ``"gpt-4"``, ``"llama2-70b"``).
        seed: base seed; varying it simulates independent runs (temperature /
            sampling variation), which the paper uses to report mean and
            standard deviation over three runs.
        temperature: kept for API fidelity; higher temperatures add a small
            amount of extra decision noise.
        profile: explicit profile override (useful for tests and ablations).

    Attributes:
        latency_seconds: synthetic per-call latency, slept inside generation.
            The end-to-end benchmark sets it to model a remote API's round
            trip; the default of ``0.0`` keeps tests instant.
    """

    engine_name = "simulated"
    latency_seconds: float = 0.0

    def __init__(
        self,
        model_name: str = "gpt-3.5-03",
        seed: int = 0,
        temperature: float = 0.01,
        profile: ModelProfile | None = None,
        tokenizer: ApproxTokenizer | None = None,
    ) -> None:
        super().__init__(model_name=model_name, tokenizer=tokenizer)
        self.profile = profile or get_profile(model_name)
        self.seed = seed
        self.temperature = max(0.0, float(temperature))

    # -- perception ---------------------------------------------------------

    def _attribute_similarities(
        self, pairs: tuple[ReadPair, ...]
    ) -> list[dict[str, float]]:
        """Per-attribute similarity judgement of every pair of a prompt.

        Only attributes present on both sides count: a missing value is not
        evidence for or against a match, and a capable reader simply ignores
        that attribute.  The present value pairs of all ``pairs`` take one
        memoized :func:`~repro.text.similarity.levenshtein_ratios` call.
        """
        present = [_present_values(pair) for pair in pairs]
        ratios = iter(
            levenshtein_ratios(
                [left for values in present for _, left, _ in values],
                [right for values in present for _, _, right in values],
            ).tolist()
        )
        return [{attribute: next(ratios) for attribute, _, _ in values} for values in present]

    def _perceive(self, similarities: dict[str, float]) -> float:
        """Internal (noise-free) match score of a question in ``[0, 1]``."""
        if not similarities:
            return 0.5
        values = list(similarities.values())
        return MEAN_WEIGHT * float(np.mean(values)) + MIN_WEIGHT * float(np.min(values))

    def _pair_distance(
        self, left: dict[str, float], right: dict[str, float]
    ) -> float:
        """Normalised distance between two per-attribute similarity profiles."""
        attributes = sorted(set(left) | set(right))
        if not attributes:
            return 1.0
        squared = 0.0
        for attribute in attributes:
            difference = left.get(attribute, 0.5) - right.get(attribute, 0.5)
            squared += difference * difference
        return math.sqrt(squared / len(attributes))

    # -- calibration ----------------------------------------------------------

    def _demo_calibrated_threshold(
        self,
        question_profile: dict[str, float],
        demonstrations: tuple[ReadDemonstration, ...],
        demo_scores: list[float],
        demo_profiles: list[dict[str, float]],
    ) -> tuple[float, float]:
        """Exploit relevant in-context demonstrations.

        Returns ``(threshold, score_adjustment)``: the calibrated decision
        threshold and an additive adjustment to the question score contributed
        by very close demonstrations (the nearest-neighbour flavour of ICL —
        a question whose attribute-similarity profile almost coincides with a
        labeled demonstration inherits evidence from that demonstration's
        label).
        """
        base = self.profile.base_threshold
        if not demonstrations:
            return base, 0.0

        radius = self.profile.relevance_radius
        weighted: list[tuple[float, float, float, bool]] = []  # (weight, distance, score, is_match)
        for demo, score, demo_profile in zip(demonstrations, demo_scores, demo_profiles):
            distance = self._pair_distance(question_profile, demo_profile)
            weight = max(0.0, 1.0 - distance / radius)
            if weight > 0.0:
                weighted.append((weight, distance, score, demo.is_match))
        if not weighted:
            return base, 0.0

        match_entries = [(w, s) for w, _, s, is_match in weighted if is_match]
        non_match_entries = [(w, s) for w, _, s, is_match in weighted if not is_match]

        def weighted_mean(entries: list[tuple[float, float]]) -> float:
            total_weight = sum(weight for weight, _ in entries)
            return sum(weight * score for weight, score in entries) / total_weight

        if match_entries and non_match_entries:
            estimate = (weighted_mean(match_entries) + weighted_mean(non_match_entries)) / 2.0
        elif match_entries:
            estimate = weighted_mean(match_entries) - 0.08
        else:
            estimate = weighted_mean(non_match_entries) + 0.08
        estimate = min(max(estimate, 0.05), 0.95)

        strongest = max(weight for weight, _, _, _ in weighted)
        calibration_weight = self.profile.calibration_skill * (0.35 + 0.65 * strongest)
        threshold = (1.0 - calibration_weight) * base + calibration_weight * estimate

        # Nearest-neighbour evidence: a demonstration whose attribute-similarity
        # profile is almost identical to the question's nudges the score toward
        # that demonstration's label.
        closest_weight, _, _, closest_is_match = max(weighted, key=lambda item: item[0])
        adjustment = 0.0
        if closest_weight > 0.4:
            direction = 1.0 if closest_is_match else -1.0
            strength = min(1.0, (closest_weight - 0.4) / 0.4)
            adjustment = direction * 0.15 * self.profile.calibration_skill * strength
        return threshold, adjustment

    def _batch_adjustments(
        self, question_scores: list[float], reference_threshold: float
    ) -> tuple[float | None, float]:
        """Batch-contrast calibration: (threshold estimate or None, noise multiplier).

        The threshold estimate is the midpoint of the largest gap in the batch's
        score distribution, but it is only trusted when it broadly agrees with
        the demonstration-calibrated threshold — the batch context refines the
        decision boundary, it does not override the demonstrations.
        """
        if len(question_scores) < MIN_BATCH_FOR_CONTRAST:
            return None, 1.0
        spread = float(np.std(question_scores))
        noise_multiplier = 1.0 - self.profile.batch_gain * min(1.0, spread / SPREAD_SATURATION)
        noise_multiplier = max(0.3, noise_multiplier)
        if spread < 0.12:
            return None, noise_multiplier
        ordered = sorted(question_scores)
        gaps = [
            (ordered[index + 1] - ordered[index], index)
            for index in range(len(ordered) - 1)
        ]
        largest_gap, gap_index = max(gaps)
        if largest_gap < 0.12:
            return None, noise_multiplier
        estimate = (ordered[gap_index] + ordered[gap_index + 1]) / 2.0
        if abs(estimate - reference_threshold) > 0.12:
            return None, noise_multiplier
        return estimate, noise_multiplier

    # -- generation ---------------------------------------------------------

    def _decide(
        self,
        question: ReadPair,
        question_score: float,
        score_adjustment: float,
        threshold: float,
        batch_threshold: float | None,
        noise_multiplier: float,
    ) -> bool:
        """Decide match / non-match for one question."""
        if batch_threshold is not None:
            blend = 0.5 * self.profile.batch_gain
            threshold = (1.0 - blend) * threshold + blend * batch_threshold

        rng = random.Random(
            _stable_seed(self.model_name, str(self.seed), _pair_signature(question))
        )
        sigma = self.profile.perception_noise * noise_multiplier + 0.02 * self.temperature
        noisy_score = question_score + score_adjustment + rng.gauss(0.0, sigma)
        return noisy_score >= threshold

    def _render_answers(self, decisions: list[bool], style_batch: bool, rng: random.Random) -> str:
        lines = []
        for index, is_match in enumerate(decisions, start=1):
            reason = rng.choice(_MATCH_REASONS if is_match else _NON_MATCH_REASONS)
            word = "Yes" if is_match else "No"
            if style_batch:
                lines.append(f"A{index}: {word}, {reason}.")
            else:
                lines.append(f"Answer: {word}, {reason}.")
        return "\n".join(lines)

    def _generate(self, prompt_text: str) -> str:
        if self.latency_seconds:
            time.sleep(self.latency_seconds)
        parsed = read_prompt(prompt_text)
        if not parsed.questions:
            return "I could not find any question to answer in the prompt."

        call_rng = random.Random(
            _stable_seed(self.model_name, str(self.seed), prompt_text[:512], str(len(prompt_text)))
        )

        # Models that cannot handle batch prompting mostly fail to answer.
        if len(parsed.questions) > 1 and self.profile.batch_failure_rate > 0.0:
            if call_rng.random() < self.profile.batch_failure_rate:
                return "I am sorry, I cannot answer multiple questions in a single response."

        # Perceive each demonstration once per prompt: every question's
        # calibration reuses the same per-demonstration similarity profiles
        # (recomputing them per question is quadratic in batch size).
        profiles = self._attribute_similarities(parsed.demonstrations + parsed.questions)
        demo_profiles = profiles[: len(parsed.demonstrations)]
        question_profiles = profiles[len(parsed.demonstrations) :]
        demo_scores = [self._perceive(profile) for profile in demo_profiles]
        question_scores = [self._perceive(profile) for profile in question_profiles]

        calibrations = [
            self._demo_calibrated_threshold(
                profile_vector, parsed.demonstrations, demo_scores, demo_profiles
            )
            for profile_vector in question_profiles
        ]

        # A lone question gives the model no in-prompt contrast to anchor
        # against, so its judgement is slightly noisier than in batch mode —
        # the mechanism behind the paper's observation that batch prompting is
        # more precise and more stable than standard prompting.
        batch_threshold, noise_multiplier = (None, SINGLE_QUESTION_NOISE_PENALTY)
        if len(parsed.questions) > 1:
            reference_threshold = float(np.median([threshold for threshold, _ in calibrations]))
            batch_threshold, noise_multiplier = self._batch_adjustments(
                question_scores, reference_threshold
            )

        decisions: list[bool] = []
        for question, score, (threshold, adjustment) in zip(
            parsed.questions, question_scores, calibrations
        ):
            decisions.append(
                self._decide(
                    question,
                    score,
                    adjustment,
                    threshold,
                    batch_threshold,
                    noise_multiplier,
                )
            )

        # Herding failure mode: a batch of near-identical questions can push the
        # model into answering them all the same way.
        if len(decisions) > 2:
            spread = float(np.std(question_scores))
            if spread < HERDING_SPREAD and call_rng.random() < self.profile.herding_probability:
                majority = sum(decisions) >= len(decisions) / 2.0
                decisions = [majority] * len(decisions)

        return self._render_answers(decisions, style_batch=len(parsed.questions) > 1, rng=call_rng)
