"""Traced-run hygiene, repeatable computed counts, and the run statistics."""

import inspect

import pytest

import blq.cli
import blq.grid
import run
import spans
import workloads
from worker import run_pass


def _items():
    """One cheap scenario per layer family: grid + gaussian, x-ray, discrete."""
    chain = workloads.build("adjoint-chain", 3)
    tomography = workloads.build("tomography-bounds", 3)
    desk = dict((label, (label, s, o)) for label, s, o in workloads.build("desk-suite", 3))
    return [chain[0], tomography[0], desk["04_discrete_consistency"], desk["02_identity_ai"]]


def _snapshot():
    state = {}
    for mod in spans.blq_modules():
        for key, value in vars(mod).items():
            state[(mod.__name__, key)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    state[(mod.__name__, f"{key}.{k}")] = v
    return state


@pytest.fixture(scope="module")
def traced_twice():
    before = _snapshot()
    results = []
    for _ in range(2):
        tracer = spans.Tracer()
        result = run_pass(_items(), tracer)
        results.append((result, tracer.layer_metrics(result["wall_s"])))
    return before, results


def test_untraced_pass_installs_no_wrappers():
    result = run_pass(workloads.build("desk-suite", 0)[-1:])
    assert result["wrappers_during_pass"] == 0
    assert spans.installed_wrappers() == []


def test_traced_pass_restores_every_original(traced_twice):
    before, results = traced_twice
    for result, _ in results:
        assert result["wrappers_during_pass"] > 0
        assert result["wrappers_after_pass"] == 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrappers_replace_names_imported_by_the_cli():
    original = blq.grid.adjoint_margin
    with spans.Tracer():
        assert blq.cli.adjoint_margin is blq.grid.adjoint_margin
        assert getattr(blq.cli.adjoint_margin, spans.MARK) == "grid.adjoint_margin"
        assert hasattr(blq.grid.GridFunction.refine, spans.MARK)
    assert blq.cli.adjoint_margin is original and blq.grid.adjoint_margin is original


def test_originals_return_after_an_error():
    original = blq.cli.run_scenario
    with pytest.raises(blq.cli.SchemaError):
        with spans.Tracer():
            blq.cli.run_scenario({"task": "no-such-task"})
    assert blq.cli.run_scenario is original
    assert spans.installed_wrappers() == []


def test_computed_counts_repeat_exactly(traced_twice):
    _, results = traced_twice
    (_, first), (_, second) = results
    for key in spans.COMPUTED_COUNTS:
        assert first[key] == second[key], key
    for key in (
        "grid.pushforward.cells",
        "tomography.xray_sample.points",
        "discrete.subgroups",
        "gaussian.bl.iters",
        "gaussian.quotient.iters",
    ):
        assert first[key] > 0, key


def test_self_times_add_up_to_the_root_spans(traced_twice):
    _, results = traced_twice
    result, metrics = results[0]
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(result["wall_s"] * (1.0 - metrics["trace.unattributed_frac"]), rel=1e-9)
    assert 0.0 <= metrics["trace.unattributed_frac"] < 0.05


def test_overhead_is_traced_over_untraced_wall():
    layers = {key: 1 for key in spans.COMPUTED_COUNTS}
    passes = [
        {"traced": False, "wall_s": 2.0},
        {"traced": True, "wall_s": 2.2, "layers": layers},
    ]
    metrics, detail = run.per_layer(passes)
    assert metrics["trace.overhead_frac"] == (pytest.approx(0.1), "frac")
    assert detail["computed_counts_repeat"]


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = run.tail(list(range(48)))
    assert (value, n) == (37, 48)
    assert percentile == pytest.approx(100.0 * 38 / 48)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)
