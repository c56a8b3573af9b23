"""Seeded workload generators: each workload is a list of scenario dicts.

Only counts are scaled (data, functions, scenarios); grid resolutions and
direction counts are left at the values the shipped scenarios use, so the
work per library call matches theirs.  The same seed gives the same list.

The adjoint workloads pick their (datum, function seed) pairs from
``adjoint_pool.json``, a pool of pairs whose reports are known to pass.  The
library's forward-margin check (``margin + quadrature_estimate >= 0``) uses
a one-refinement error estimate that is not conservative for every random
function: about one random pair in a thousand fails it, which would make a
seeded run fail by chance.  The pairs found failing while the pool was drawn
are listed in the pool file under ``rejected``.  Rebuild the pool with
``python3 perfbench/run.py --record-pool`` after a change to the library or
to the counts below.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

POOL = Path(__file__).resolve().parent / "adjoint_pool.json"
POOL_SEED = 20240601

DEFAULT_SEED = 0

# the eight conjugation bases of the library's seeded data cycle, d = 2..4
PRESETS = (
    "loomis_whitney_2",
    "loomis_whitney_3",
    "young",
    "holder_pair_2",
    "finner_split",
    "finner_mixed",
    "loomis_whitney_4",
    "finner_cyclic4",
)

# copies of the nine fast shipped scenarios (01, 02, 04-06, 08-11), kept here
# so that an edit to scenarios/ does not silently change the workload
DESK_SCENARIOS = (
    ("01_gaussian_constants", {
        "task": "gaussian-bl",
        "seed": 0,
        "cases": [
            {"name": "loomis_whitney_2", "datum": "loomis_whitney_2", "expected": 1.0, "tol": 1e-6, "max_seconds": 5},
            {"name": "loomis_whitney_3", "datum": "loomis_whitney_3", "expected": 1.0, "tol": 1e-6, "max_seconds": 5},
            {"name": "holder_identity", "datum": "holder_identity_2", "expected": 1.0, "tol": 1e-6, "max_seconds": 5},
            {"name": "young", "datum": "young", "expected": 0.8660254037844386, "tol": 1e-4, "max_seconds": 5},
        ],
    }),
    ("02_identity_ai", {"task": "identity-ai", "seed": 2024, "n_data": 20, "tol": 1e-4}),
    ("04_discrete_consistency", {
        "task": "discrete", "seed": 5, "max_order": 256, "p_values": ["1/2", "1/3", "3/4"],
        "n_functions": 1000, "tol": 1e-12,
    }),
    ("05_equality_cases", {
        "task": "adjoint-verify", "functions": "equality-cases", "seed": 23, "datum": "loomis_whitney_2",
        "theta": [0.5, 0.5], "p": "1/2", "n_functions": 20,
    }),
    ("06_perturbation_gap", {
        "task": "perturbation", "datum": "loomis_whitney_2", "theta": [0.9, 0.1], "p": "1/2",
        "resolutions": [512, 1024], "stability_tol": 0.05,
    }),
    ("08_gamma_constant", {
        "task": "tomography", "check": "gamma-constant", "seed": 9, "n_mc": 1000000, "p": 2.0, "q": 0.5,
        "rel_tol": 0.02,
    }),
    ("09_gowers_logconvexity", {
        "task": "gowers", "seed": 41, "N": 64, "d": 2, "n_functions": 200, "n_sets": 20, "N_sets": 32,
        "tol": 1e-12,
    }),
    ("10_entropy_margins", {"task": "entropy", "seed": 13, "datum": "loomis_whitney_2", "resolution": 256, "tol": 1e-3}),
    ("11_determinism_probe", {"task": "gowers", "seed": 7, "N": 32, "d": 2, "n_functions": 25, "n_sets": 5, "N_sets": 16}),
)

# scenario 01 stores its measured runtime as an assertion value, so its report
# bytes differ on every run; its mismatches are counted but expected
VOLATILE_LABELS = frozenset({"01_gaussian_constants"})

CHAIN_DATA_PER_PRESET = 2
CHAIN_FUNCTIONS = 8
SWEEP_DATA_PER_PRESET = 5
SWEEP_FUNCTIONS = 1
TOMOGRAPHY_SCENARIOS = 8

# pool entries per preset, and the (datum, function seed) pair of a failing
# report seen in a seeded run before the pool existed; --record-pool checks
# that it still fails and records its value under ``rejected``
POOL_PER_PRESET = {"adjoint-chain": (8, CHAIN_FUNCTIONS), "adjoint-sweep": (15, SWEEP_FUNCTIONS)}
KNOWN_FAILING = (("adjoint-chain", "holder_pair_2", 23140224, 1736776120),)

_SALT = {"adjoint-chain": 1, "adjoint-sweep": 2, "tomography-bounds": 3, "desk-suite": 4}
WORKLOADS = tuple(_SALT)

def _seeds(rng, n):
    return [int(s) for s in rng.choice(2**31, size=n, replace=False)]


def _adjoint_scenario(preset, conjugate_seed, seed, n_functions):
    return {
        "task": "adjoint-verify",
        "seed": seed,
        "datum": {"preset": preset, "conjugate_seed": conjugate_seed},
        "n_draws": 5,
        "n_functions": n_functions,
        "rel_tol": 1e-4,
    }


def load_pool():
    return json.loads(POOL.read_text())


def _adjoint_verify(rng, workload, per_preset):
    """One adjoint-verify scenario per conjugated datum, presets in turn;
    ``per_preset`` pool entries are drawn for each preset."""
    pool = load_pool()[workload]
    n_functions = POOL_PER_PRESET[workload][1]
    if pool["n_functions"] != n_functions:
        raise ValueError(f"{POOL.name} was built for other counts; run perfbench/run.py --record-pool")
    picks = {}
    for preset in PRESETS:
        entries = pool["data"][preset]
        picks[preset] = [entries[i] for i in rng.choice(len(entries), size=per_preset, replace=False)]
    out = []
    for i in range(per_preset * len(PRESETS)):
        preset = PRESETS[i % len(PRESETS)]
        conj, seed = picks[preset][i // len(PRESETS)]
        out.append((f"{preset}#{conj}", _adjoint_scenario(preset, conj, seed, n_functions), None))
    return out


def _tomography(rng):
    # even scenarios check two functions, odd ones one function plus the 3-D
    # chain; both kinds cost about the same
    out = []
    for i, seed in enumerate(_seeds(rng, TOMOGRAPHY_SCENARIOS)):
        scn = {
            "task": "tomography",
            "check": "lower-bound-suite",
            "seed": seed,
            "n_functions": 2 - i % 2,
            "n_dirs": 120,
            "resolution": 96,
            "p_values": [0.5, 0.7, 0.9],
            "n_samples_3d": i % 2,
            "n_mc": 100000,
            "l1_tol": 1e-3,
        }
        out.append((f"lower-bound-suite#{seed}", scn, None))
    return out


def _desk(rng, seed):
    overrides = _seeds(rng, len(DESK_SCENARIOS))
    return [
        (label, scn, None if seed == DEFAULT_SEED else overrides[i])
        for i, (label, scn) in enumerate(DESK_SCENARIOS)
    ]


def build(workload, seed):
    """[(label, scenario dict, seed_override)] for one pass of the workload."""
    if workload not in _SALT:
        raise ValueError(f"unknown workload {workload!r}; options: {sorted(_SALT)}")
    rng = np.random.default_rng([_SALT[workload], int(seed)])
    if workload == "adjoint-chain":
        return _adjoint_verify(rng, workload, CHAIN_DATA_PER_PRESET)
    if workload == "adjoint-sweep":
        return _adjoint_verify(rng, workload, SWEEP_DATA_PER_PRESET)
    if workload == "tomography-bounds":
        return _tomography(rng)
    return _desk(rng, seed)


def _margin_gap(report):
    return report.results["datum"]["min_margin_plus_estimate"]


def record_pool():
    """Draw pool entries from POOL_SEED, keep those whose report passes,
    and write the pool; failing pairs go to ``rejected``."""
    import blq.cli

    rng = np.random.default_rng(POOL_SEED)
    pool = {"seed": POOL_SEED, "rejected": []}
    for workload, (per_preset, n_functions) in POOL_PER_PRESET.items():
        data = {}
        for preset in PRESETS:
            data[preset] = []
            while len(data[preset]) < per_preset:
                conj, seed = (int(s) for s in rng.integers(2**31, size=2))
                report = blq.cli.run_scenario(_adjoint_scenario(preset, conj, seed, n_functions))
                if report.passed:
                    data[preset].append([conj, seed])
                else:
                    pool["rejected"].append(
                        {"workload": workload, "preset": preset, "conjugate_seed": conj, "seed": seed,
                         "n_functions": n_functions, "min_margin_plus_estimate": _margin_gap(report)}
                    )
        pool[workload] = {"n_functions": n_functions, "data": data}
    for workload, preset, conj, seed in KNOWN_FAILING:
        n_functions = POOL_PER_PRESET[workload][1]
        report = blq.cli.run_scenario(_adjoint_scenario(preset, conj, seed, n_functions))
        if report.passed:
            print(f"known failing pair {preset}#{conj} seed {seed} passes now", file=sys.stderr)
            continue
        pool["rejected"].append(
            {"workload": workload, "preset": preset, "conjugate_seed": conj, "seed": seed,
             "n_functions": n_functions, "min_margin_plus_estimate": _margin_gap(report)}
        )
    POOL.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="rebuild adjoint_pool.json (run through run.py --record-pool)")
    parser.add_argument("--record-pool", action="store_true", required=True)
    parser.parse_args()
    record_pool()
