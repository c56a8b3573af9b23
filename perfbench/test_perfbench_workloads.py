"""Workload generator: seeded, schema-valid, and passing at the default seed."""

import json

import pytest

import blq.cli
import workloads
from worker import run_pass


def _dump(items):
    return json.dumps(items, sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_scenarios(workload):
    assert _dump(workloads.build(workload, 5)) == _dump(workloads.build(workload, 5))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_scenarios(workload):
    assert _dump(workloads.build(workload, 5)) != _dump(workloads.build(workload, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1])
def test_scenarios_pass_the_schema(workload, seed):
    items = workloads.build(workload, seed)
    assert len({label for label, _, _ in items}) == len(items)
    for _, scenario, seed_override in items:
        if seed_override is not None:
            scenario = {**scenario, "seed": seed_override}
        blq.cli.validate_scenario(scenario)


def test_default_seed_desk_suite_keeps_shipped_seeds():
    assert all(override is None for _, _, override in workloads.build("desk-suite", workloads.DEFAULT_SEED))
    assert all(override is not None for _, _, override in workloads.build("desk-suite", 1))


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.build("adjoint", 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_reports_pass(workload):
    result = run_pass(workloads.build(workload, workloads.DEFAULT_SEED))
    failed = [(r["label"], r["error"]) for r in result["reports"] if not r["passed"]]
    assert not failed


@pytest.mark.parametrize("workload", ["adjoint-chain", "adjoint-sweep"])
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1, 435123661])
def test_adjoint_pairs_come_from_the_pool(workload, seed):
    pool = workloads.load_pool()
    allowed = {(preset, conj, s) for preset, pairs in pool[workload]["data"].items() for conj, s in pairs}
    rejected = {(r["preset"], r["conjugate_seed"], r["seed"]) for r in pool["rejected"]}
    assert not allowed & rejected
    for _, scenario, _ in workloads.build(workload, seed):
        pair = (scenario["datum"]["preset"], scenario["datum"]["conjugate_seed"], scenario["seed"])
        assert pair in allowed
