import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from blq.cli import (
    _HANDLERS,
    _SCENARIO_KEYS,
    RunReport,
    _gaussian_bl_case,
    _key_casts,
    _load_schema,
    _parse_number,
    _route,
    _scenario_keys,
    _task_adjoint_gaussian,
    _task_discrete,
    _task_identity_ai,
    _task_perturbation,
    _tomography_restricted,
    canonical_json,
    emit_report,
    main,
    run_scenario,
    validate_scenario,
)
from blq.errors import SchemaError

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

FAST_GOWERS = {"task": "gowers", "seed": 7, "N": 16, "d": 2, "n_functions": 5, "n_sets": 2, "N_sets": 8}


def test_canonical_json_is_sorted_and_trimmed():
    text = canonical_json({"b": 1.0 / 3.0, "a": [1, True, None]})
    assert text == '{"a":[1,true,null],"b":0.333333333333}\n'


def test_schema_error_message_is_jsonschema_validates(tmp_path):
    import importlib.resources as res

    with res.files("blq.schemas").joinpath("scenario.schema.json").open() as fh:
        schema = json.load(fh)
    cases = (
        ({"task": "gowers", "seed": -1}, "at $.seed: -1 is less than the minimum of 0"),
        ({"task": "tomography", "seed": "7"}, "at $.seed: '7' is not of type 'integer'"),
        ({"seed": 1}, "at $: 'task' is a required property"),
    )
    for bad, text in cases:
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bad, schema)
        for _ in range(2):
            with pytest.raises(SchemaError) as err:
                validate_scenario(bad)
            assert str(err.value) == f"scenario violates the schema {text}"
            assert str(err.value).endswith(f"at {expected.value.json_path}: {expected.value.message}")


def test_schema_error_for_a_misspelt_key_is_one_line():
    with pytest.raises(SchemaError) as err:
        validate_scenario({"task": "gowers", "seed": 1, "n_function": 5})
    text = str(err.value)
    assert "\n" not in text and len(text) < 300
    assert "'n_function' was unexpected" in text


def test_tolerances_come_only_from_the_scenario(capsys):
    # every tolerance is a scenario key; there is no command-line override
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(SCENARIOS / "11_determinism_probe.json"), "--tol", "0"])
    assert exit_info.value.code == 2 and "--tol" in capsys.readouterr().err
    assert list(inspect.signature(run_scenario).parameters) == ["scenario", "seed_override"]


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


def test_schema_task_enum_is_the_handler_registry():
    assert _load_schema("scenario")["properties"]["task"]["enum"] == list(_HANDLERS)


def test_seed_mandatory_for_stochastic_tasks():
    with pytest.raises(SchemaError, match="seed"):
        validate_scenario({"task": "gowers"})


def test_entropy_draws_nothing_at_random_and_needs_no_seed():
    assert validate_scenario({"task": "entropy"}) == {"task": "entropy"}
    with pytest.raises(SchemaError, match="seed"):
        validate_scenario({"task": "tomography", "check": "gamma-constant"})


@pytest.mark.parametrize(
    "scenario",
    [
        {"task": "gowers", "seed": 1, "n_function": 5},
        {"task": "entropy", "seed": 1, "datum": {"preset": "loomis_whitney_2", "conjugate_sed": 3}},
        {"task": "gaussian-bl", "cases": [{"name": "young", "datum": "young", "expect": 0.5}]},
        {"task": "adjoint-verify", "seed": 1, "n_draw": 3},
        {"task": "discrete", "seed": 1, "group": {"factor": [4, 4]}},
    ],
)
def test_misspelt_scenario_keys_rejected(scenario):
    with pytest.raises(SchemaError, match="Additional properties"):
        validate_scenario(scenario)


@pytest.mark.parametrize(
    "scenario",
    [
        {"task": "perturbation", "resolution": 64},
        {"task": "gowers", "seed": 1, "n_dirs": 5},
    ],
)
def test_keys_of_another_task_rejected(scenario):
    with pytest.raises(SchemaError, match="is not one of") as err:
        validate_scenario(scenario)
    assert "\n" not in str(err.value)


def test_handler_parameters_are_the_schema_properties():
    schema = _load_schema("scenario")
    assert "taskKeys" not in schema
    properties = set(schema["properties"])
    routes, params = {"task"}, set()
    for task, entry in _HANDLERS.items():
        key, variants = entry if isinstance(entry, tuple) else (None, {None: entry})
        routes |= {key} - {None}
        for handler in variants.values():
            keys, required = _SCENARIO_KEYS[handler]
            assert "seed" in keys and "task" not in keys and key not in keys, (task, handler)
            assert keys <= properties and required <= keys
            params |= keys
    assert routes == {"task", "check", "functions"}
    assert routes.isdisjoint(params) and routes | params == properties
    handlers = [h for e in _HANDLERS.values() for h in (e[1].values() if isinstance(e, tuple) else [e])]
    assert set(_SCENARIO_KEYS) == set(handlers)
    case = schema["properties"]["cases"]["items"]
    case_params = [p for p in inspect.signature(_gaussian_bl_case).parameters.values() if p.kind is p.KEYWORD_ONLY]
    assert set(case["properties"]) == {p.name for p in case_params}
    # every case gets a name from its position when it gives none
    assert set(case["required"]) == {p.name for p in case_params if p.default is p.empty} - {"name"}


def test_default_variants():
    assert next(iter(_HANDLERS["tomography"][1])) == "lower-bound-suite"
    assert next(iter(_HANDLERS["adjoint-verify"][1])) == "random"


@pytest.mark.parametrize(
    "scenario",
    [
        {"task": "tomography", "seed": 1, "check": "gamma"},
        {"task": "adjoint-verify", "seed": 1, "functions": "equality"},
        {"task": "adjoint-verify", "seed": 1, "theta": [0.9, 0.1], "p": 0.2},
        {"task": "adjoint-verify", "seed": 1, "functions": "random", "theta": [0.9, 0.1]},
        {"task": "tomography", "seed": 1, "check": "gamma-constant", "n_dirs": 5},
        {"task": "tomography", "seed": 1, "check": "gamma-constant", "mu": "nope"},
        {"task": "tomography", "seed": 1, "check": "gamma-constant", "mu": "uniform"},
        {"task": "adjoint-verify", "seed": 1, "functions": "equality-cases", "rel_tol": 1e-4},
        {"task": "gaussian-bl", "datum": "young", "expected": 1.0, "tol": 1e-6},
        {"task": "gaussian-bl"},
        {"task": "gaussian-bl", "cases": [{"name": "young", "expected": 1.0}]},
        {"task": "gowers", "seed": 1, "profile_csv": "profile.csv"},
        {"task": "discrete", "seed": 1, "group": {}, "maps": [], "c": []},
    ],
)
def test_variant_and_key_probes_rejected(scenario):
    with pytest.raises(SchemaError) as err:
        validate_scenario(scenario)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "scenario",
    [
        {"task": "adjoint-verify"},
        {"task": "adjoint-verify", "functions": "random"},
        {"task": "adjoint-verify", "functions": "equality-cases"},
        {"task": "discrete"},
        {"task": "tomography"},
        {"task": "tomography", "check": "lower-bound-suite"},
        {"task": "tomography", "check": "gamma-constant"},
        {"task": "tomography", "check": "restricted"},
        {"task": "gowers"},
    ],
)
def test_missing_seed_rejected_for_each_stochastic_variant(scenario):
    with pytest.raises(SchemaError, match="'seed' is a required property"):
        validate_scenario(scenario)
    validate_scenario({**scenario, "seed": 0})


def test_unknown_datum_preset_is_a_schema_error(tmp_path, capsys):
    scenario = {"task": "entropy", "datum": "loomis_whitney_5"}
    with pytest.raises(SchemaError, match="unknown datum preset 'loomis_whitney_5'") as err:
        run_scenario(scenario)
    assert "loomis_whitney_2" in str(err.value) and "young" in str(err.value)
    path = tmp_path / "bad_preset.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown datum preset" in capsys.readouterr().err
    assert not (tmp_path / "bad_preset.report.json").exists()


def test_integer_keys_given_as_floats_are_cast():
    report = run_scenario({**FAST_GOWERS, "N": 16.0, "n_sets": 2.0})
    assert report.passed
    assert report.inputs["N"] == 16 and isinstance(report.inputs["N"], int)
    assert emit_report(report) == emit_report(run_scenario(dict(FAST_GOWERS)))


def test_restricted_tomography_variant_runs():
    scenario = {"task": "tomography", "check": "restricted", "seed": 2, "d": 2, "mu": "uniform", "n_mu": 16}
    report = run_scenario({**scenario, "n_mc": 2000, "expected_below": 10})
    assert report.passed and report.results["n"] == 2000
    assert report.inputs["p"] == 0.5 and report.inputs["d"] == 2
    great_circle = run_scenario({"task": "tomography", "check": "restricted", "seed": 2, "n_mc": 10})
    assert great_circle.results["value"] == 0.0 and great_circle.inputs["mu"] == "great-circle"


@pytest.mark.parametrize(
    "scenario",
    [
        {"task": "tomography", "check": "restricted", "seed": 1, "d": 2, "n_mc": 10},
        {"task": "tomography", "check": "restricted", "seed": 1, "d": 4, "n_mc": 10, "mu": "uniform"},
        {"task": "tomography", "check": "restricted", "seed": 1, "d": 1, "n_mc": 10, "mu": "uniform"},
    ],
)
def test_restricted_dimension_its_directions_cannot_serve_is_a_schema_error(scenario, monkeypatch, tmp_path, capsys):
    import blq.cli

    def no_draws(*args, **kwargs):
        raise AssertionError("restricted_xray_constant ran")

    monkeypatch.setattr(blq.cli, "restricted_xray_constant", no_draws)
    with pytest.raises(SchemaError, match=f"mu '{scenario.get('mu', 'great-circle')}' needs d in") as err:
        run_scenario(scenario)
    assert "\n" not in str(err.value)
    path = tmp_path / "restricted.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "needs d in" in capsys.readouterr().err
    assert not (tmp_path / "restricted.report.json").exists()


@pytest.mark.parametrize(
    "scenario, engine",
    [
        ({"task": "tomography", "seed": 1, "n_functions": 1, "p_values": []}, "_with_half"),
        ({"task": "discrete", "seed": 1, "max_order": 8, "p_values": []}, "bls_constant"),
    ],
    ids=["tomography", "discrete"],
)
def test_empty_p_values_is_a_schema_error(scenario, engine, monkeypatch, tmp_path, capsys):
    """No vacuous 'lower-bound margins' pass and no IndexError on ps[0]."""
    import blq.cli

    def never(*args, **kwargs):
        raise AssertionError(f"{engine} ran")

    monkeypatch.setattr(blq.cli, engine, never)
    with pytest.raises(SchemaError, match=r"at \$\.p_values: \[\] should be non-empty") as err:
        run_scenario(scenario)
    assert "\n" not in str(err.value)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "p_values" in capsys.readouterr().err
    assert not (tmp_path / "empty.report.json").exists()


@pytest.mark.parametrize(
    "scenario, path",
    [
        ({"task": "gowers", "seed": 1, "tol": "abc"}, "$.tol"),
        ({"task": "gaussian-bl", "seed": 0, "cases": [{"datum": "young", "expected": "1/0"}]}, "$.cases[0].expected"),
        ({"task": "tomography", "seed": 1, "n_functions": 1, "p_values": ["x"]}, "$.p_values"),
        ({"task": "discrete", "seed": 1, "max_order": 8, "p_values": ["x"]}, "$.p_values"),
        (
            {
                "task": "discrete", "seed": 1, "group": {"factors": [2, 4]}, "c": [1, "1/0"],
                "maps": [{"matrix": [[1, 0]], "target_factors": [2]}, {"matrix": [[0, 1]], "target_factors": [4]}],
            },
            "$.c",
        ),
    ],
    ids=["top-level", "case", "p_values", "discrete-p_values", "discrete-c"],
)
def test_a_number_string_that_is_not_a_number_is_a_schema_error(scenario, path, tmp_path, capsys):
    """No traceback and no failed report: exit 2 naming the key."""
    with pytest.raises(SchemaError, match=rf"at {re.escape(path)}: .* is not a number or a fraction") as err:
        run_scenario(scenario)
    assert "\n" not in str(err.value)
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps(scenario))
    assert main(["run", str(scn), "--out", str(tmp_path)]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "bad.report.json").exists()


def test_lower_bound_suite_transforms_every_function_once_in_chunks(monkeypatch):
    """The suite's functions go through _with_half: each seeded function once,
    in order, in batches of tomography._XRAY_BATCH; its results are bitwise
    those of one function at a time."""
    import numpy as np

    import blq.tomography
    from blq.grid import random_grid_function
    from blq.tomography import (
        DirectionSet,
        lower_bound_margin_from_tomograms,
        xray_transform,
        xray_transform_batch,
    )

    batches, halves = [], []

    def batch(fs, dirs, *args, **kwargs):
        # the suite's batches run on all 8 directions; each check's xray_transform
        # is a batch of one on the 4 directions of the halved set
        if len(dirs) == 8:
            batches.append([f.values.tobytes() for f in fs])
        else:
            assert len(dirs) == 4 and len(fs) == 1
        return xray_transform_batch(fs, dirs, *args, **kwargs)

    def single(f, *args, **kwargs):
        halves.append(f.values.tobytes())
        return xray_transform(f, *args, **kwargs)

    monkeypatch.setattr(blq.tomography, "xray_transform_batch", batch)
    monkeypatch.setattr(blq.tomography, "xray_transform", single)
    scenario = {"task": "tomography", "seed": 4, "n_functions": 19, "n_dirs": 8, "resolution": 12, "n_samples_3d": 0}
    report = run_scenario({**scenario, "n_mc": 10})
    assert report.passed
    assert [len(b) for b in batches] == [8, 8, 3] and blq.tomography._XRAY_BATCH == 8
    monkeypatch.undo()  # the reference below must not record

    box = ((-4.0, 4.0), (-4.0, 4.0))
    dirs = DirectionSet.uniform_circle(8)
    half = DirectionSet.from_vectors(dirs.vectors[::2])
    rng = np.random.default_rng(4)
    worst_l1, min_gap, seen = 0.0, math.inf, []
    for _ in range(19):  # the suite before chunking: draw, transform and check one function at a time
        f = random_grid_function(box, (12, 12), seed=int(rng.integers(0, 2**31)), smooth=1)
        seen.append(f.values.tobytes())
        tom, tom_half = xray_transform(f, dirs), xray_transform(f, half, t_resolution=12)
        worst_l1 = max(worst_l1, abs(tom.l1() / f.mass - 1.0))
        for p in (0.5, 0.7, 0.9):
            m = lower_bound_margin_from_tomograms(tom, tom_half, f, p)
            min_gap = min(min_gap, m.margin + m.quadrature_estimate)
    assert sum(batches, []) == seen == halves
    assert report.results["l1_worst_dev"] == worst_l1
    assert report.results["min_margin_plus_estimate"] == min_gap


def test_every_integer_and_number_key_has_its_cast():
    validate_scenario(FAST_GOWERS)
    props = _load_schema("scenario")["properties"]
    casts = _key_casts()
    integers = {key for key, prop in props.items() if prop.get("type") == "integer"}
    numbers = {key for key, prop in props.items() if prop.get("type") == ["number", "string"]}
    assert integers and numbers
    assert set(casts) == integers | numbers
    assert all(casts[key] is int for key in integers)
    assert all(casts[key] is _parse_number for key in numbers)


def test_case_expected_and_tol_reach_the_handler_as_floats(monkeypatch):
    import blq.cli

    assert _key_casts("cases") == {"expected": _parse_number, "tol": _parse_number}
    seen = []
    original = blq.cli._gaussian_bl_case

    def recording(checks, **case):
        seen.append((case.get("expected"), case.get("tol")))
        return original(checks, **case)

    monkeypatch.setattr(blq.cli, "_gaussian_bl_case", recording)
    cases = [
        {"name": "holder", "datum": "holder_identity_2", "expected": "1", "tol": "1/1000"},
        {"name": "unchecked", "datum": "young", "expected": None},
    ]
    scenario = {"task": "gaussian-bl", "seed": 0, "cases": cases}
    report = run_scenario(scenario)
    assert seen == [(1.0, 0.001), (None, None)] and type(seen[0][0]) is float and type(seen[0][1]) is float
    assert report.passed and report.assertions[0]["tolerance"] == 0.001
    assert cases[0] == {"name": "holder", "datum": "holder_identity_2", "expected": "1", "tol": "1/1000"}


@pytest.mark.parametrize("resolutions", [[0, 64], [64, -4]])
def test_resolutions_below_one_are_a_schema_error(resolutions, tmp_path, capsys):
    """No failed report with a ZeroDivisionError or a reshape error."""
    scenario = {"task": "perturbation", "resolutions": resolutions}
    with pytest.raises(SchemaError, match="minimum of 1") as err:
        run_scenario(scenario)
    assert "\n" not in str(err.value)
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "minimum of 1" in capsys.readouterr().err
    assert not (tmp_path / "cells.report.json").exists()


def test_fraction_p_reaches_the_equality_cases_handler_as_a_float(monkeypatch):
    import blq.cli

    seen = []

    def recording(exponents, theta, p):
        seen.append(p)
        raise RuntimeError("stop after the exponents")

    monkeypatch.setattr(blq.cli, "derive_adjoint_exponents", recording)
    scenario = {"task": "adjoint-verify", "functions": "equality-cases", "seed": 23, "p": "1/2"}
    report = run_scenario(scenario)
    assert seen == [0.5] and type(seen[0]) is float
    assert report.inputs["p"] == "1/2"  # the raw key is echoed
    seen.clear()
    run_scenario({**scenario, "p": "1/3", "n_functions": 2.0})
    assert seen == [1 / 3]


def test_discrete_scenario_group():
    scenario = {
        "task": "discrete", "seed": 1, "n_functions": 20, "p_values": ["1/2"],
        "group": {"factors": [2, 4]},
        "maps": [{"matrix": [[1, 0]], "target_factors": [2]}, {"matrix": [[0, 1]], "target_factors": [4]}],
        "c": [1, 1],
    }
    report = run_scenario(scenario)
    assert report.passed, report.results
    assert report.inputs["n_instances"] == 1 and list(report.results) == ["scenario"]


@pytest.mark.parametrize(
    "scenario",
    [
        {"task": "discrete", "seed": 1, "group": {"factors": [2, 2]}},
        {"task": "discrete", "seed": 1, "maps": [{"matrix": [[1, 0]], "target_factors": [2]}], "c": [1]},
        {"task": "discrete", "seed": 1, "group": {"factors": [2, 2]}, "c": [1, 1]},
    ],
    ids=["group-only", "maps-and-c", "group-and-c"],
)
def test_custom_group_needs_group_maps_and_c_together(scenario, monkeypatch, tmp_path, capsys):
    """No failed report with a TypeError, and no silent run of the catalog instances."""
    import blq.cli

    def never(*args, **kwargs):
        raise AssertionError("bls_constant ran")

    monkeypatch.setattr(blq.cli, "bls_constant", never)
    with pytest.raises(SchemaError, match="'group', 'maps' and 'c' go together") as err:
        run_scenario(scenario)
    assert "\n" not in str(err.value)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "go together" in capsys.readouterr().err
    assert not (tmp_path / "partial.report.json").exists()


@pytest.mark.parametrize("c", [[1], [1, 1, 1]])
def test_custom_group_needs_one_exponent_per_map(c, monkeypatch, tmp_path, capsys):
    """A length mismatch is a schema error, not a failed report from deep in the run."""
    import blq.cli

    def never(*args, **kwargs):
        raise AssertionError("bls_constant ran")

    monkeypatch.setattr(blq.cli, "bls_constant", never)
    maps = [{"matrix": [[1, 0]], "target_factors": [4]}, {"matrix": [[0, 1]], "target_factors": [4]}]
    scenario = {"task": "discrete", "seed": 1, "group": {"factors": [4, 4]}, "maps": maps, "c": c}
    with pytest.raises(SchemaError, match=f"at \\$.c: {len(c)} exponents for 2 maps") as err:
        run_scenario(scenario)
    assert "\n" not in str(err.value)
    path = tmp_path / "lengths.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "exponents for 2 maps" in capsys.readouterr().err
    assert not (tmp_path / "lengths.report.json").exists()


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


@pytest.mark.parametrize("name", ["scenario", "report"])
def test_shipped_schemas_are_valid_under_their_metaschema(name):
    # the library builds its validators without this check
    schema = _load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    with pytest.raises(jsonschema.SchemaError):
        cls.check_schema({**schema, "type": 5})


@pytest.mark.parametrize("seed", range(6))
def test_non_finite_values_match_the_report_schema(seed):
    # with one set of two elements every set is skipped: the slack stays inf
    report = run_scenario({"task": "gowers", "seed": seed, "N": 16, "n_functions": 2, "n_sets": 1, "N_sets": 2})
    text = emit_report(report)
    assert '"value":"inf"' in text
    jsonschema.validate(json.loads(text), _load_schema("report"))


def test_parallelepiped_check_fails_when_no_set_was_counted():
    report = run_scenario({"task": "gowers", "seed": 0, "N": 16, "n_functions": 2, "n_sets": 1, "N_sets": 2})
    (entry,) = [a for a in report.assertions if a["name"] == "parallelepiped count >= delta^4 |A|^4"]
    assert entry["value"] == math.inf
    assert not entry["passed"] and not report.passed


def test_emit_report_rejects_a_report_the_schema_rejects():
    entry = {"name": "margin", "value": "large", "tolerance": 1.0, "passed": True}
    report = RunReport(task="gowers", inputs={}, results={}, assertions=[entry])
    with pytest.raises(SchemaError, match=r"at \$\.assertions\[0\]\.value") as err:
        emit_report(report)
    assert "\n" not in str(err.value)


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


def test_run_and_suite_write_to_the_working_directory_by_default(tmp_path, monkeypatch, capsys):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "fast.json").write_text(json.dumps(FAST_GOWERS))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "in/fast.json"]) == 0
    assert capsys.readouterr().out.startswith("PASS in/fast.json (")
    written = (tmp_path / "fast.report.json").read_bytes()
    (tmp_path / "fast.report.json").unlink()
    assert main(["suite", "in"]) == 0
    assert (tmp_path / "fast.report.json").read_bytes() == written


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


def test_benchmark_workload_scenarios_validate():
    import importlib.util

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for _, scenario, _ in workloads.build(name, 0):
            validate_scenario(scenario)


def test_partial_results_on_engine_error():
    # an undersized theta vector is caught and surfaced as a failed assertion
    report = run_scenario(
        {"task": "adjoint-gaussian", "datum": "young", "theta": [0.5, 0.5], "p": 0.5}
    )
    assert not report.passed
    assert "error" in report.results


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_closed_stdout_exits_one_without_traceback(tmp_path, unbuffered):
    scenario = tmp_path / "fast.json"
    scenario.write_text(json.dumps(FAST_GOWERS))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "blq.cli", "run", str(scenario), "--out", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before anything is printed
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert json.loads((tmp_path / "fast.report.json").read_text())["passed"] is True


# handler keys that no shipped scenario and no perfbench workload sets, each with the reason it stays
UNSET_HANDLERS = {
    _task_adjoint_gaussian: "the adjoint-gaussian task is a documented runner feature",
    _tomography_restricted: "the restricted tomography check is a documented runner feature",
}
UNSET_KEYS = {
    (_task_perturbation, "seed"): "deterministic: taken so that --seed applies to every scenario",
    (_task_identity_ai, "datum"): "a custom datum in place of the seeded feasible data",
    (_task_discrete, "group"): "a custom instance in place of the catalogue's",
    (_task_discrete, "maps"): "a custom instance in place of the catalogue's",
    (_task_discrete, "c"): "a custom instance in place of the catalogue's",
}


def _workload_scenarios():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [scn for name in workloads.WORKLOADS for _, scn, _ in workloads.build(name, 0)]


def test_every_scenario_key_has_a_caller():
    scenarios = [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))]
    scenarios += _workload_scenarios()
    set_keys = {}
    for scn in scenarios:
        handler, route = _route(validate_scenario(scn))
        set_keys.setdefault(handler, set()).update(key for key in scn if key not in route)
        for case in scn.get("cases", ()):
            set_keys.setdefault(_gaussian_bl_case, set()).update(case)
    unset = set()
    for handler in [*_SCENARIO_KEYS, _gaussian_bl_case]:
        if handler not in UNSET_HANDLERS:
            unset |= {(handler, key) for key in _scenario_keys(handler)[0] - set_keys.get(handler, set())}
    assert {(h.__name__, key) for h, key in unset} == {(h.__name__, key) for h, key in UNSET_KEYS}
    assert not UNSET_HANDLERS.keys() & set_keys.keys()  # an allowed handler that gains a scenario leaves the list
