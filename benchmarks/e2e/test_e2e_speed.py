"""Unit tests of the end-to-end benchmark's machine-speed scaling."""

from __future__ import annotations

import pytest

import speed
from run import job_scale


def test_reference_times_a_pass_of_fixed_work():
    assert 0.0 < speed.reference() < 5.0


def test_a_step_at_nominal_speed_keeps_its_wall_time():
    nominal = speed.NOMINAL_S
    assert speed.scale(nominal, nominal) == pytest.approx(1.0)
    assert speed.scaled([2.0], [nominal, nominal]) == pytest.approx([2.0])


def test_a_slow_machine_shortens_the_reported_time():
    # The machine ran the reference at half speed around the step, so the
    # step would have taken half as long on the reference machine.
    nominal = speed.NOMINAL_S
    assert speed.scaled([4.0], [2 * nominal, 2 * nominal]) == pytest.approx([2.0])


def test_each_step_uses_the_references_on_either_side():
    nominal = speed.NOMINAL_S
    references = [nominal, 3 * nominal, 2 * nominal]
    assert speed.scaled([1.0, 1.0], references) == pytest.approx([0.5, 0.4])


def test_steps_need_one_more_reference_than_steps():
    with pytest.raises(ValueError):
        speed.scaled([1.0, 1.0], [speed.NOMINAL_S, speed.NOMINAL_S])


def test_waiting_is_not_scaled():
    # 1 s of CPU at half speed, and 0.5 s asleep.
    assert 1.5 * speed.step_scale(1.5, [(1.0, 0.5)]) == pytest.approx(1.0)
    # A step with no CPU time keeps its wall time.
    assert speed.step_scale(2.0, [(0.0, 0.5)]) == 1.0


def test_cpu_time_is_scaled_at_each_cpus_speed():
    # 0.3 s on a CPU at half speed, 0.6 s on one at full speed, 0.1 s waiting.
    assert speed.step_scale(1.0, [(0.3, 0.5), (0.6, 1.0)]) == pytest.approx(0.85)
    # Processes that ran in parallel: the whole step is CPU time, at the
    # CPU-time-weighted factor.
    assert speed.step_scale(1.0, [(1.0, 0.5), (1.0, 1.0)]) == pytest.approx(0.75)


def test_a_job_is_scaled_by_its_stages_weighted_by_their_time():
    nominal = speed.NOMINAL_S
    stage_seconds = [9.0, 3.0, 1.0, 2.0]
    references = [nominal, nominal, 2 * nominal, 2 * nominal, nominal]
    # The job of stages 1 and 2: 3 s at factor 2/3, 1 s at factor 1/2.
    assert job_scale(stage_seconds, references, 1, 3) == pytest.approx((2.0 + 0.5) / 4.0)
    # A job whose stages were not metered keeps its wall time.
    assert job_scale([], [], 0, 0) == 1.0
