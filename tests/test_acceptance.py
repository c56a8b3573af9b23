"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Every criterion is pinned to the shipped scenario config of the same number,
so ``pytest tests/test_acceptance.py`` and ``blq suite scenarios/`` exercise
identical code paths and tolerances.
"""

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


@pytest.mark.parametrize(
    "name",
    [
        "01_gaussian_constants",
        "02_identity_ai",
        "04_discrete_consistency",
        "05_equality_cases",
        "06_perturbation_gap",
        "08_gamma_constant",
        "09_gowers_logconvexity",
        "10_entropy_margins",
    ],
)
def test_fast_scenario_reruns_are_byte_identical(name):
    # criterion 11 covers scenario 11; 03 and 07 take minutes
    path = SCENARIOS / f"{name}.json"
    assert emit_report(run_scenario(path)) == emit_report(run_scenario(path))
