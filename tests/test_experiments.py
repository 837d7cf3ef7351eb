"""Tests for the experiment runners (Tables II-VII, Figures 6-7, ablations).

These use tiny settings (two small datasets, few questions) so they are fast;
they check row shapes and the structural invariants of each artifact rather
than absolute numbers.
"""

import dataclasses

import pytest

from repro.experiments import (
    ExperimentSettings,
    run_batch_size_ablation,
    run_dataset_statistics,
    run_exp1_standard_vs_batch,
    run_exp2_design_space,
    run_exp3_plm_comparison,
    run_exp4_manual_prompt,
    run_exp5_llms,
    run_exp6_feature_extractors,
    run_figure6_precision_recall,
    run_threshold_ablation,
)
from repro.experiments import runner
from repro.experiments.exp2_design_space import best_design_choice
from repro.experiments.exp3_plm_comparison import crossover_summary


@pytest.fixture(scope="module")
def tiny_settings():
    return ExperimentSettings(
        datasets=("beer", "fz"),
        scale=0.4,
        max_questions=32,
        seeds=(1,),
        data_seed=7,
    )


class TestSettings:
    def test_defaults_cover_all_datasets(self):
        settings = ExperimentSettings()
        assert len(settings.datasets) == 8

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_SCALE", "0.2")
        monkeypatch.setenv("REPRO_EXP_MAX_QUESTIONS", "none")
        monkeypatch.setenv("REPRO_EXP_DATASETS", "beer, fz")
        settings = ExperimentSettings.from_env()
        assert settings.scale == 0.2
        assert settings.max_questions is None
        assert settings.datasets == ("beer", "fz")

    def test_checkpoint_dir_env_reaches_run_kwargs(self, monkeypatch, tmp_path):
        assert ExperimentSettings().run_kwargs() == {"checkpoint_dir": None}
        monkeypatch.setenv("REPRO_EXP_CHECKPOINT_DIR", str(tmp_path))
        settings = ExperimentSettings.from_env()
        assert settings.run_kwargs() == {"checkpoint_dir": str(tmp_path)}

    def test_resume_flag_reaches_run_kwargs(self, monkeypatch, tmp_path):
        captured = []
        monkeypatch.setattr(runner, "generate_report", captured.append)
        assert runner.main(["--resume", str(tmp_path)]) == 0
        (settings,) = captured
        assert settings.run_kwargs() == {"checkpoint_dir": str(tmp_path)}

    def test_checkpointed_experiment_writes_run_files(self, tiny_settings, tmp_path):
        settings = dataclasses.replace(
            tiny_settings, datasets=("beer",), checkpoint_dir=str(tmp_path)
        )
        rows = run_exp4_manual_prompt(settings)
        assert rows == run_exp4_manual_prompt(dataclasses.replace(settings, checkpoint_dir=None))
        assert [path.suffix for path in tmp_path.iterdir()] == [".jsonl"]

    def test_load_respects_scale(self, tiny_settings):
        dataset = tiny_settings.load("beer")
        assert len(dataset.candidate_pairs) < 450


class TestTableII:
    def test_rows_shape(self, tiny_settings):
        rows = run_dataset_statistics(tiny_settings)
        assert len(rows) == 2
        assert {row["Domain"] for row in rows} == {"Beer", "Restaurant"}


class TestExp1:
    def test_table3_rows(self, tiny_settings):
        rows = run_exp1_standard_vs_batch(tiny_settings)
        assert len(rows) == 2
        for row in rows:
            assert row["Standard API ($)"] > row["Batch API ($)"]
            assert row["Cost saving (x)"] > 1.0
            assert "±" in row["Standard F1"]

    def test_figure6_rows(self, tiny_settings):
        rows = run_figure6_precision_recall(tiny_settings, datasets=("beer",))
        assert len(rows) == 2
        assert {row["Method"] for row in rows} == {"Standard", "Batch"}
        for row in rows:
            assert 0.0 <= row["Precision"] <= 100.0
            assert 0.0 <= row["Recall"] <= 100.0


class TestExp2:
    def test_table4_rows_and_costs(self, tiny_settings):
        rows = run_exp2_design_space(tiny_settings)
        assert len(rows) == 2 * 12
        combos = {(row["Batching"], row["Selection"]) for row in rows}
        assert len(combos) == 12
        for dataset in ("Beer", "FZ"):
            fixed_cost = min(
                row["Label ($)"]
                for row in rows
                if row["Dataset"] == dataset and row["Selection"] == "Fix"
            )
            topk_cost = max(
                row["Label ($)"]
                for row in rows
                if row["Dataset"] == dataset and row["Selection"] == "Topk-question"
            )
            assert fixed_cost <= topk_cost

    def test_best_design_choice_summary(self, tiny_settings):
        rows = run_exp2_design_space(tiny_settings)
        summary = best_design_choice(rows)
        assert summary["Datasets won"] >= 1
        assert summary["Batching"] in {"Random", "Similarity", "Diversity"}


class TestExp3:
    def test_figure7_rows(self, tiny_settings):
        rows = run_exp3_plm_comparison(tiny_settings, train_fractions=(0.1, 0.5, 1.0))
        methods = {row["Method"] for row in rows}
        assert methods == {"BatchER", "Ditto", "JointBert", "RobEM"}
        # Each baseline has one row per training fraction per dataset.
        ditto_rows = [row for row in rows if row["Method"] == "Ditto"]
        assert len(ditto_rows) == 2 * 3
        summary = crossover_summary(rows)
        assert len(summary) == 2 * 3


class TestExp4:
    def test_table5_rows(self, tiny_settings):
        rows = run_exp4_manual_prompt(tiny_settings, datasets=("beer", "fz"))
        assert len(rows) == 2
        for row in rows:
            assert row["Manual API ($)"] > row["Batch API ($)"]

    def test_ab_excluded_by_default(self):
        settings = ExperimentSettings(datasets=("ab", "beer"), scale=0.4, max_questions=16, seeds=(1,))
        rows = run_exp4_manual_prompt(settings)
        assert {row["Dataset"] for row in rows} == {"Beer"}


class TestExp5:
    def test_table6_rows(self, tiny_settings):
        rows = run_exp5_llms(tiny_settings, models=("gpt-3.5-03", "gpt-4"))
        assert len(rows) == 2
        for row in rows:
            assert row["gpt-4 API ($)"] > row["gpt-3.5-03 API ($)"]

    def test_llama_column_optional(self, tiny_settings):
        rows = run_exp5_llms(tiny_settings, models=("gpt-3.5-03",), include_llama=True)
        assert "llama2-70b unanswered" in rows[0]


class TestExp6:
    def test_table7_rows(self, tiny_settings):
        rows = run_exp6_feature_extractors(tiny_settings)
        assert len(rows) == 2
        for row in rows:
            for column in ("BatchER-LR", "BatchER-JAC", "BatchER-SEM"):
                assert 0.0 <= row[column] <= 100.0


class TestAblations:
    def test_threshold_ablation(self, tiny_settings):
        rows = run_threshold_ablation(tiny_settings, percentiles=(4.0, 30.0), dataset_name="beer")
        assert len(rows) == 2
        tight, loose = rows
        assert tight["Labeled demos"] >= loose["Labeled demos"]

    def test_batch_size_ablation(self, tiny_settings):
        rows = run_batch_size_ablation(tiny_settings, batch_sizes=(2, 8), dataset_name="beer")
        assert len(rows) == 2
        small, large = rows
        assert small["LLM calls"] > large["LLM calls"]
        assert small["API ($)"] > large["API ($)"]


class TestEffectiveScale:
    def test_small_datasets_floored_to_min_pairs(self):
        settings = ExperimentSettings(scale=0.05, min_pairs=400)
        assert settings.effective_scale("beer") > 0.8   # 450-pair dataset kept near full size
        assert settings.effective_scale("ds") == 0.05   # 28k-pair dataset scaled down

    def test_floor_never_exceeds_full_size(self):
        settings = ExperimentSettings(scale=0.05, min_pairs=10_000)
        assert settings.effective_scale("beer") == 1.0
