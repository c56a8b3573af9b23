import json
from pathlib import Path

import jsonschema
import pytest

from blq.cli import (
    canonical_json,
    emit_report,
    main,
    run_scenario,
    validate_scenario,
)
from blq.errors import SchemaError

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

FAST_GOWERS = {"task": "gowers", "seed": 7, "N": 16, "d": 2, "n_functions": 5, "n_sets": 2, "N_sets": 8}


def test_canonical_json_is_sorted_and_trimmed():
    text = canonical_json({"b": 1.0 / 3.0, "a": [1, True, None]})
    assert text == '{"a":[1,true,null],"b":0.333333333333}\n'


def test_schema_error_message_is_jsonschema_validates(tmp_path):
    import importlib.resources as res

    with res.files("blq.schemas").joinpath("scenario.schema.json").open() as fh:
        schema = json.load(fh)
    for bad in ({"task": "gowers", "seed": -1}, {"task": "tomography", "seed": "7"}, {"seed": 1}):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bad, schema)
        for _ in range(2):
            with pytest.raises(SchemaError) as err:
                validate_scenario(bad)
            assert str(err.value) == f"scenario violates the schema: {expected.value}"


def test_zero_tolerance_override_is_honoured():
    young = {"task": "gaussian-bl", "seed": 0, "cases": [{"name": "young", "datum": "young", "expected": 0.8660254037844386, "tol": 1e-4}]}
    assert run_scenario(dict(young)).passed
    report = run_scenario(dict(young), tol_override=0.0)
    assert report.assertions[0]["tolerance"] == 0.0
    assert not report.passed  # |BLg - sqrt(3)/2| is one ulp, above a zero tolerance
    gowers = run_scenario(dict(FAST_GOWERS), tol_override=0.0)
    assert gowers.assertions[0]["tolerance"] == 0.0


def test_adjoint_verify_solves_once_per_datum(monkeypatch):
    import blq.cli
    import blq.gaussian

    calls = {"bl": 0, "quotient": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (blq.cli, blq.gaussian):
        monkeypatch.setattr(module, "bl_gaussian_constant", counting("bl", blq.gaussian.bl_gaussian_constant))
        monkeypatch.setattr(module, "quotient_supremum", counting("quotient", blq.gaussian.quotient_supremum))
    scenario = {"task": "adjoint-verify", "seed": 3, "n_data": 2, "n_draws": 5, "n_functions": 1}
    report = run_scenario(scenario)
    assert report.passed, report.results
    assert calls == {"bl": 2, "quotient": 2}


def test_runtime_gate_seconds_stay_out_of_the_canonical_bytes():
    scenario = {"task": "gaussian-bl", "seed": 0, "cases": [{"name": "young", "datum": "young", "max_seconds": 5}]}
    report = run_scenario(scenario)
    gate = report.assertions[-1]
    assert gate == {"name": "young: runtime", "value": 1.0, "tolerance": 5.0, "passed": True}
    assert 0.0 < report.measured_s["young: runtime"] < 5.0
    assert "measured_s" not in emit_report(report)


def test_unknown_task_rejected():
    with pytest.raises(SchemaError):
        validate_scenario({"task": "nope"})


def test_seed_mandatory_for_stochastic_tasks():
    with pytest.raises(SchemaError, match="seed"):
        validate_scenario({"task": "gowers"})


def test_malformed_json_is_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        run_scenario(bad)
    assert main(["run", str(bad)]) == 2


def test_reports_are_byte_identical():
    a = emit_report(run_scenario(dict(FAST_GOWERS)))
    b = emit_report(run_scenario(dict(FAST_GOWERS)))
    assert a == b


def test_report_validates_against_shipped_schema():
    report = run_scenario(dict(FAST_GOWERS))
    payload = json.loads(emit_report(report))
    import importlib.resources as res

    with res.files("blq.schemas").joinpath("report.schema.json").open() as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)


def test_csv_report_format():
    report = run_scenario(dict(FAST_GOWERS))
    text = emit_report(report, fmt="csv")
    lines = text.splitlines()
    assert lines[0] == "name,value,tolerance,passed"
    assert len(lines) == 1 + len(report.assertions)


def test_cli_run_writes_report_and_exits_zero(tmp_path, capsys):
    scenario = tmp_path / "fast.json"
    scenario.write_text(json.dumps(FAST_GOWERS))
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    report_path = tmp_path / "fast.report.json"
    assert report_path.exists()
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["library_version"]


def test_cli_failing_assertion_exits_one(tmp_path):
    scenario = tmp_path / "wrong.json"
    scenario.write_text(
        json.dumps(
            {
                "task": "gaussian-bl",
                "seed": 0,
                "cases": [{"name": "young", "datum": "young", "expected": 0.5, "tol": 1e-6}],
            }
        )
    )
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "wrong.report.json").read_text())
    assert payload["passed"] is False


def test_cli_seed_override_changes_inputs(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(FAST_GOWERS))
    r1 = run_scenario(scenario, seed_override=123)
    assert r1.inputs["seed"] == 123


def test_cli_suite_summary(tmp_path, capsys):
    for i in range(2):
        (tmp_path / f"s{i}.json").write_text(json.dumps({**FAST_GOWERS, "seed": i}))
    code = main(["suite", str(tmp_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "s0.json" in out and "s1.json" in out
    assert (tmp_path / "out" / "s0.report.json").exists()


def test_scenario_name_resolution(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    code = main(["run", "11_determinism_probe", "--out", str(tmp_path)])
    assert code == 0


def test_shipped_scenarios_validate():
    import importlib.resources as res

    with res.files("blq.schemas").joinpath("scenario.schema.json").open() as fh:
        schema = json.load(fh)
    for path in sorted(SCENARIOS.glob("*.json")):
        jsonschema.validate(json.loads(path.read_text()), schema)
        validate_scenario(json.loads(path.read_text()))


def test_partial_results_on_engine_error():
    # an undersized theta vector is caught and surfaced as a failed assertion
    report = run_scenario(
        {"task": "adjoint-gaussian", "datum": "young", "theta": [0.5, 0.5], "p": 0.5}
    )
    assert not report.passed
    assert "error" in report.results
