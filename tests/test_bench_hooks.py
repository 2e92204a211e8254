"""The traced benchmark pass (bench/run.py --trace 1) swaps these module
attributes for timing wrappers; a rename or removal would break it."""

import pytest

import webrely.cli as cli
import webrely.harness.campaign as harness_campaign
import webrely.project as project
import webrely.simulator as simulator
import webrely.simulator.campaign as sim_campaign

HOOKS = [
    (project, "apply_policy"),
    (project, "build_histogram"),
    (project, "fit_weibull"),
    (project, "goodness_of_fit"),
    (project.EiProject, "persist_phase"),
    (cli, "load_samples_text"),
    (cli, "compare_models"),
    (sim_campaign, "run_single"),
    (simulator, "sim_config_to_dict"),
    (harness_campaign, "generate_test_cases"),
    (harness_campaign, "run_evaluation"),
    (harness_campaign, "analyze_logs"),
]


@pytest.mark.parametrize(
    "owner,name", HOOKS, ids=[f"{owner.__name__}.{name}" for owner, name in HOOKS]
)
def test_benchmark_hook_is_callable(owner, name):
    assert callable(getattr(owner, name, None))
