"""LLM substrate: client interface, usage accounting, pricing and simulated models.

The paper interfaces proprietary LLM APIs (GPT-3.5-03, GPT-3.5-06, GPT-4) and
an open-source model (Llama2-chat-70B).  Offline we substitute
:class:`repro.llm.simulated.SimulatedLLM`, a behavioural model of an in-context
learner for ER: it reads the *actual prompt text*, forms a noisy internal
similarity judgement per question, calibrates its decision threshold from the
in-context demonstrations and from the other questions in the batch, and
answers in natural language that must be parsed back.  Model profiles differ in
perception noise, calibration skill, batch competence and pricing — see
DESIGN.md for why this substitution preserves the experiments' shape.

Every client, simulated or API-backed, is an :class:`repro.llm.base.LLMClient`
built by one factory, :func:`repro.engines.registry.create_engine`; its
``simulated`` backend is :class:`~repro.llm.simulated.SimulatedLLM`.
Independent prompts can be dispatched through
:meth:`~repro.llm.base.LLMClient.complete_many` with an execution backend
(:mod:`repro.llm.executors`) — serial by default, thread-pooled when a
:class:`~repro.llm.executors.ConcurrentExecutor` is supplied.
"""

from repro.llm.base import LLMClient, LLMResponse, UsageRecord, UsageTracker
from repro.llm.executors import (
    ConcurrentExecutor,
    ExecutionBackend,
    SerialExecutor,
    create_executor,
)
from repro.llm.pricing import ModelPricing, get_pricing, prompt_cost
from repro.llm.profiles import ModelProfile, get_profile, available_models
from repro.llm.simulated import SimulatedLLM

__all__ = [
    "ConcurrentExecutor",
    "ExecutionBackend",
    "LLMClient",
    "LLMResponse",
    "ModelPricing",
    "ModelProfile",
    "SerialExecutor",
    "SimulatedLLM",
    "UsageRecord",
    "UsageTracker",
    "available_models",
    "create_executor",
    "get_pricing",
    "get_profile",
    "prompt_cost",
]
