"""The simulated engine: :class:`SimulatedLLM` registered as just another backend.

Registering the behavioural simulation alongside the HTTP backends is what
keeps tier-1 hermetic after the registry lands: ``create_engine("simulated")``
is byte-identical to constructing :class:`~repro.llm.simulated.SimulatedLLM`
directly (it *is* one, by inheritance — generation, seeding and usage
accounting are all inherited unchanged), so every golden test and checkpoint
stays valid while real backends remain one config swap away.
"""

from __future__ import annotations

import time
from typing import ClassVar

from repro.engines.base import Engine
from repro.llm.profiles import ModelProfile
from repro.llm.simulated import SimulatedLLM
from repro.text.tokenizer import ApproxTokenizer

__all__ = ["SimulatedEngine"]


class SimulatedEngine(SimulatedLLM, Engine):
    """The offline simulated LLM behind the :class:`Engine` interface.

    Args:
        model_name / seed / temperature / profile / tokenizer: exactly as
            :class:`SimulatedLLM` — an engine built with the same arguments
            generates byte-identical completions.
        latency_seconds: optional synthetic per-call latency, slept inside
            generation.  The end-to-end benchmark uses it to model a remote
            API's round-trip; the default of ``0.0`` keeps tests instant.
    """

    engine_name: ClassVar[str] = "simulated"
    supports_json_schema: ClassVar[bool] = False
    requires_network: ClassVar[bool] = False

    def __init__(
        self,
        model_name: str = "gpt-3.5-03",
        seed: int = 0,
        temperature: float = 0.01,
        profile: ModelProfile | None = None,
        tokenizer: ApproxTokenizer | None = None,
        latency_seconds: float = 0.0,
    ) -> None:
        if latency_seconds < 0:
            raise ValueError(f"latency_seconds must be >= 0, got {latency_seconds}")
        super().__init__(
            model_name=model_name,
            seed=seed,
            temperature=temperature,
            profile=profile,
            tokenizer=tokenizer,
        )
        self.latency_seconds = latency_seconds

    def _generate(self, prompt_text: str) -> str:
        if self.latency_seconds:
            time.sleep(self.latency_seconds)
        return super()._generate(prompt_text)
