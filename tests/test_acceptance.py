"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Every criterion is pinned to the shipped scenario config of the same number,
so ``pytest tests/test_acceptance.py`` and ``blq suite scenarios/`` exercise
identical code paths and tolerances.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from blq.cli import emit_report, run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _run(name):
    t0 = time.perf_counter()
    report = run_scenario(SCENARIOS / f"{name}.json")
    return report, time.perf_counter() - t0


def _verdict(number, label, ok, detail=""):
    print(f"\nACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


def _failures(report):
    return [a["name"] for a in report.assertions if not a["passed"]]


def _sha256(report):
    return hashlib.sha256(emit_report(report).encode("utf-8")).hexdigest()


def test_criterion_01_gaussian_constants():
    report, _ = _run("01_gaussian_constants")
    # scenario asserts values, convergence and the <5 s per-case runtime
    _verdict(1, "gaussian constants", report.passed, f"failed: {_failures(report)}")


def test_criterion_02_identity_both_sides():
    report, wall = _run("02_identity_ai")
    ok = report.passed and wall < 120.0
    worst = report.assertions[0]["value"]
    _verdict(2, "log-det duality identity", ok, f"max residual {worst:.2e}, wall {wall:.1f}s")


def test_criterion_03_adjoint_chain():
    report, wall = _run("03_adjoint_chain")
    ok = report.passed and wall < 600.0
    _verdict(
        3,
        "adjoint constants + forward margins",
        ok,
        f"failed: {_failures(report)} wall {wall:.0f}s",
    )
    assert _sha256(report) == SLOW_REFERENCE_SHA256["03_adjoint_chain"]


def test_criterion_04_discrete_consistency():
    report, _ = _run("04_discrete_consistency")
    _verdict(4, "discrete constants and margins", report.passed, f"failed: {_failures(report)}")


def test_criterion_05_equality_cases():
    report, _ = _run("05_equality_cases")
    _verdict(5, "product equality cases", report.passed, f"failed: {_failures(report)}")


def test_criterion_06_perturbation_gap():
    report, _ = _run("06_perturbation_gap")
    coeffs = report.results.get("coefficients", [])
    detail = f"coefficients {coeffs}, stability {report.results.get('stability'):.4f}"
    _verdict(6, "first-order gap", report.passed, detail)


def test_criterion_07_tomography_bounds():
    report, wall = _run("07_tomography_lower_bounds")
    _verdict(
        7,
        "tomographic lower bounds",
        report.passed,
        f"failed: {_failures(report)} wall {wall:.0f}s",
    )
    assert _sha256(report) == SLOW_REFERENCE_SHA256["07_tomography_lower_bounds"]


def test_criterion_08_gamma_constant():
    report, wall = _run("08_gamma_constant")
    ok = report.passed and wall < 60.0
    _verdict(8, "Gamma-product constant", ok, f"failed: {_failures(report)} wall {wall:.1f}s")


def test_criterion_09_gowers():
    report, _ = _run("09_gowers_logconvexity")
    # independent exhaustive recount of the parallelepiped corollary
    rng = np.random.default_rng(41)
    ok_counts = True
    for _ in range(20):
        a = (rng.uniform(size=32) < rng.uniform(0.2, 0.8)).astype(float)
        size = a.sum()
        if size < 2:
            continue
        n = 32
        x, h, k = np.meshgrid(*([np.arange(n)] * 3), indexing="ij")
        s2 = float((a[x] * a[(x + h) % n] * a[(x + k) % n] * a[(x + h + k) % n]).sum())
        x, h, k, l = np.meshgrid(*([np.arange(n)] * 4), indexing="ij")
        s3 = float(
            (
                a[x]
                * a[(x + h) % n]
                * a[(x + k) % n]
                * a[(x + l) % n]
                * a[(x + h + k) % n]
                * a[(x + h + l) % n]
                * a[(x + k + l) % n]
                * a[(x + h + k + l) % n]
            ).sum()
        )
        delta = s2 / size**3
        ok_counts = ok_counts and (s3 >= delta**4 * size**4 - 1e-9)
    ok = report.passed and ok_counts
    _verdict(9, "Gowers log-convexity", ok, f"failed: {_failures(report)}")


def test_criterion_10_entropy():
    report, _ = _run("10_entropy_margins")
    _verdict(10, "entropy inequalities", report.passed, f"failed: {_failures(report)}")


def test_criterion_11_determinism(tmp_path):
    path = SCENARIOS / "11_determinism_probe.json"
    first = emit_report(run_scenario(path))
    second = emit_report(run_scenario(path))
    ok = first == second and run_scenario(path).passed
    (tmp_path / "a.json").write_text(first)
    (tmp_path / "b.json").write_text(second)
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    _verdict(11, "byte-identical reports", ok and identical, f"{len(first)} bytes")


# sha256 of each shipped scenario's canonical report, recorded before the
# scenario handlers moved to one check accumulator; a change to these bytes
# must be deliberate and named
REFERENCE_SHA256 = {
    "01_gaussian_constants": "9b938eb72fac6c4564160ca83ae3fc5866c27c6d0f14de5a92eb9d9811ce6ffc",
    "02_identity_ai": "9c0ecc51f0540165ce463772dee70dd9f16d327c0155fbe35d8a6cfb87dc909d",
    "04_discrete_consistency": "e8229eecaddf736f8984556c4fa88474140a113b04e08ab8d12ec6386c440d0d",
    "05_equality_cases": "b290e986ea5c98d2f55bf09307275514f916f98f3603a1b411b824ce1731a424",
    "06_perturbation_gap": "30bf640b11e8ec9ecac5f0a2cf314b96e8d44dec495bd33ff7baad4a852cf5bb",
    "08_gamma_constant": "437719b701d4dd2a6b0cbfe797046bc48d2fd3825c3d473a8f7bf63cd3e5e2b6",
    "09_gowers_logconvexity": "9adfe836032f3b1625ebcd0f057c1942b0b0eea2d3de520b8d7f2df89c559284",
    "10_entropy_margins": "ce8c7324e9db44bd9d77880a379d036aec1221c5a737977ca5b4c4b970ce60a4",
    "11_determinism_probe": "58920480af340efd57a8e94e6089dca91ce79e4849c945bde014ce71d2640737",
}


# the two slow reports are pinned inside their criterion tests, from the
# run those tests make anyway
SLOW_REFERENCE_SHA256 = {
    "03_adjoint_chain": "495d3065b8157ad527ce9d5e40c0134f4b8efa572763c0745035860cfd7f14b3",
    "07_tomography_lower_bounds": "0f6930c1cb89ee3c3de8a7f32dedb724df4c98183c0a20bf1e6a73fba0458712",
}


@pytest.mark.parametrize(
    "name, sha256", [pytest.param(name, digest, id=name) for name, digest in REFERENCE_SHA256.items()]
)
def test_fast_scenario_reruns_are_byte_identical(name, sha256):
    # 03 and 07 take minutes; their criterion tests pin them
    path = SCENARIOS / f"{name}.json"
    first = emit_report(run_scenario(path))
    assert first == emit_report(run_scenario(path))
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == sha256
