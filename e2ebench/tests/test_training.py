"""The train gate: each step must reproduce the recorded reference."""

import copy

import pytest

from training import REFERENCE, check_steps


def _steps():
    return [{"step": kind, "oom": False, **copy.deepcopy(values)}
            for kind, values in REFERENCE.items()]


def test_the_reference_itself_passes():
    assert check_steps(_steps()) == []


@pytest.mark.parametrize("kind, key, value", [
    ("tosg", "edges", 54028),
    ("tosg", "reduction_ratio", 0.75),
    ("tosg", "accuracy", REFERENCE["tosg"]["accuracy"] - 7 / 630),
    ("fg", "accuracy", REFERENCE["fg"]["accuracy"] + 7 / 630),
    ("ibs", "targets", 8999),
])
def test_a_value_off_the_reference_is_rejected(kind, key, value):
    steps = _steps()
    next(step for step in steps if step["step"] == kind)[key] = value
    assert any(f"{kind}.{key} is" in problem for problem in check_steps(steps))


def test_a_changed_extraction_count_is_rejected():
    steps = _steps()
    steps[0]["extract_params"]["rows_fetched"] += 1
    assert check_steps(steps) == [
        f"tosg.extract_params is {steps[0]['extract_params']!r}, "
        f"expected {REFERENCE['tosg']['extract_params']!r}"]


def test_a_flipped_prediction_or_two_passes():
    steps = _steps()
    steps[0]["accuracy"] -= 2 / 630
    assert check_steps(steps) == []


def test_jobs_of_one_run_must_agree():
    steps = _steps() + _steps()
    steps[0]["accuracy"] -= 1 / 630
    problems = check_steps(steps)
    assert len(problems) == 1 and problems[0].startswith("tosg.accuracy differs")
