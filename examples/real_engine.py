"""Real LLM backends: pick an engine, keep the whole framework unchanged.

One factory, :func:`repro.engines.create_engine`, makes the LLM backend a
configuration knob: the same ``BatcherConfig`` / ``BatchER`` / ``Resolver`` code runs
against the hermetic simulated model (default), OpenAI, any OpenAI-compatible
server (vLLM, llama.cpp, LM Studio, ...) or Anthropic.  This example shows
all of it offline — the "real" engine talks to an in-process fake provider —
and prints the exact environment you would set to point it at a live API.

Run with:  python examples/real_engine.py
"""

import os

from repro import BatchER, BatcherConfig, load_dataset
from repro.engines import (
    SimulatedBackendTransport,
    available_engines,
    create_engine,
    engine_config_from_env,
)
from repro.llm.executors import ConcurrentExecutor
from repro.llm.simulated import SimulatedLLM


def main() -> None:
    print(f"Registered engines: {', '.join(available_engines())}\n")

    # 1. The default: everything below runs on the simulated engine.  The
    #    `engine` config field is all that ever needs to change.
    dataset = load_dataset("beer", seed=7)
    config = BatcherConfig(seed=1, max_questions=48, engine="simulated")
    result = BatchER(config).run(dataset)
    print(f"engine=simulated   f1={result.metrics.f1:.1f}  api=${result.cost.api_cost:.3f}")

    # 2. Environment-driven selection: REPRO_ENGINE picks the backend and the
    #    REPRO_ENGINE_* variables tune it.  Against a real provider you would
    #    export these in your shell instead of building the dict here.
    env = {
        "REPRO_ENGINE": "openai_compatible",
        "REPRO_ENGINE_BASE_URL": "http://localhost:8000/v1",
        "REPRO_ENGINE_MODEL": "llama-3.1-8b-instruct",
        "REPRO_ENGINE_RPS": "8",
        "REPRO_ENGINE_TPM": "200000",
    }
    engine_config = engine_config_from_env(env=env)
    print(
        f"\nengine_config_from_env -> {type(engine_config).__name__} "
        f"(base_url={engine_config.base_url}, provider_model={engine_config.provider_model}, "
        f"rps={engine_config.requests_per_second}, tpm={engine_config.tokens_per_minute})"
    )

    # 3. An HTTP engine end to end — hermetically.  The OpenAI-dialect engine
    #    sends real chat-completion payloads through its retry/rate-limit
    #    stack; the transport is an in-process fake provider backed by the
    #    simulated model, so this runs offline.  Swap the transport for the
    #    default (omit it) plus OPENAI_API_KEY and the same code hits the API.
    backend = SimulatedBackendTransport(SimulatedLLM(model_name="gpt-3.5-03", seed=0))
    engine = create_engine(
        "openai",
        transport=backend,
        api_key=os.environ.get("OPENAI_API_KEY", "offline-demo-key"),
        requests_per_second=50.0,
    )
    prompts = [
        f"Q1: do 'record {i}' and 'record {i}' refer to the same entity? "
        "Answer 'A1: Yes' or 'A1: No'." for i in range(12)
    ]
    # Concurrent dispatch: up to 8 requests in flight on a thread pool, with
    # responses still returned in prompt order.
    responses = engine.complete_many(prompts, executor=ConcurrentExecutor(max_workers=8))
    print(
        f"\nopenai dialect over fake provider: {len(responses)} completions, "
        f"usage={engine.usage.num_calls} records, "
        f"transport={engine.transport.stats()}"
    )

    print(
        "\nTo run against live APIs:\n"
        "  export REPRO_ENGINE=openai            # + OPENAI_API_KEY\n"
        "  export REPRO_ENGINE=anthropic         # + ANTHROPIC_API_KEY\n"
        "  export REPRO_ENGINE=openai_compatible # + REPRO_ENGINE_BASE_URL\n"
        "  python -m repro.experiments.runner --engine openai ...\n"
    )


if __name__ == "__main__":
    main()
