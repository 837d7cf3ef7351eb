"""Run every experiment and render a markdown report.

``python -m repro.experiments.runner`` regenerates all tables/figures and
prints them as markdown (this is how EXPERIMENTS.md is produced).  Use the
``REPRO_EXP_SCALE`` / ``REPRO_EXP_MAX_QUESTIONS`` environment variables to
control the dataset scale; ``REPRO_EXP_SCALE=1.0 REPRO_EXP_MAX_QUESTIONS=none``
reproduces the paper-scale runs (slow).  ``REPRO_EXP_JOBS`` (or ``--jobs``)
dispatches each run's independent batch prompts concurrently — results are
identical, only wall-clock changes.  ``--resume DIR`` checkpoints every
framework run under ``DIR`` so a killed report re-invoked with the same flag
resumes with zero repeated LLM calls.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.evaluation.report import format_markdown_table
from repro.experiments.ablation import run_batch_size_ablation, run_threshold_ablation
from repro.experiments.datasets_table import run_dataset_statistics
from repro.experiments.exp1_standard_vs_batch import (
    run_exp1_standard_vs_batch,
    run_figure6_precision_recall,
)
from repro.experiments.exp2_design_space import best_design_choice, run_exp2_design_space
from repro.experiments.exp3_plm_comparison import crossover_summary, run_exp3_plm_comparison
from repro.experiments.exp4_manual_prompt import run_exp4_manual_prompt
from repro.experiments.exp5_llms import run_exp5_llms
from repro.experiments.exp6_feature_extractors import run_exp6_feature_extractors
from repro.experiments.settings import ExperimentSettings

#: (section title, runner callable) in report order.
REPORT_SECTIONS = (
    ("Table II — Dataset statistics", run_dataset_statistics),
    ("Table III — Batch vs Standard Prompting (Exp-1)", run_exp1_standard_vs_batch),
    ("Figure 6 — Precision / Recall detail on WA and AB (Exp-1)", run_figure6_precision_recall),
    ("Table IV — Design space exploration (Exp-2)", run_exp2_design_space),
    ("Figure 7 — BatchER vs PLM baselines (Exp-3)", run_exp3_plm_comparison),
    ("Table V — BatchER vs ManualPrompt (Exp-4)", run_exp4_manual_prompt),
    ("Table VI — Underlying LLMs (Exp-5)", run_exp5_llms),
    ("Table VII — Feature extractors (Exp-6)", run_exp6_feature_extractors),
    ("Ablation — Covering threshold percentile", run_threshold_ablation),
    ("Ablation — Batch size", run_batch_size_ablation),
)


def generate_report(settings: ExperimentSettings | None = None, stream=None) -> str:
    """Run every experiment and return (and optionally stream) a markdown report."""
    settings = settings or ExperimentSettings.from_env()
    output = stream or sys.stdout
    sections = []
    for title, runner in REPORT_SECTIONS:
        started = time.perf_counter()
        rows = runner(settings)
        table = format_markdown_table(rows)
        elapsed = time.perf_counter() - started
        section = f"## {title}\n\n{table}\n"
        sections.append(section)
        print(f"{section}\n_(generated in {elapsed:.1f}s)_\n", file=output)
        if runner is run_exp2_design_space:
            summary = format_markdown_table([best_design_choice(rows)])
            sections.append(f"### Best design choice\n\n{summary}\n")
            print(f"### Best design choice\n\n{summary}\n", file=output)
        if runner is run_exp3_plm_comparison:
            summary = format_markdown_table(crossover_summary(rows))
            sections.append(f"### Labels needed to reach BatchER\n\n{summary}\n")
            print(f"### Labels needed to reach BatchER\n\n{summary}\n", file=output)
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=None, help="dataset scale multiplier")
    parser.add_argument(
        "--max-questions", type=int, default=None, help="cap on evaluated questions per dataset"
    )
    parser.add_argument("--datasets", nargs="*", default=None, help="dataset codes to run")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="concurrent LLM calls per run (results are identical; only faster)",
    )
    parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="checkpoint root for framework runs; a report killed mid-run and "
        "re-invoked with the same --resume DIR continues with zero repeated "
        "LLM calls",
    )
    parser.add_argument(
        "--engine", default=None,
        help="LLM engine backend (default: simulated; real backends such as "
        "openai/anthropic need the provider API key in the environment)",
    )
    args = parser.parse_args(argv)

    settings = ExperimentSettings.from_env()
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.max_questions is not None:
        overrides["max_questions"] = args.max_questions
    if args.datasets:
        overrides["datasets"] = tuple(name.lower() for name in args.datasets)
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.resume is not None:
        overrides["checkpoint_dir"] = args.resume
    if args.engine is not None:
        overrides["engine"] = args.engine.strip().lower()
    if overrides:
        settings = ExperimentSettings(
            **{**settings.__dict__, **overrides}
        )
    generate_report(settings)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
