"""Scenario runner: JSON configs in, machine-readable reports out.

``blq run scenario.json`` executes one scenario and writes a canonical JSON
report (sorted keys, floats rendered with %.12g) whose bytes depend only on
the scenario and its seed; wall time is printed to stdout but kept out of
the canonical report so reruns are byte-identical.  ``blq suite DIR`` runs
every scenario in a directory and prints a summary table.  BLQ_THREADS caps
internal parallelism (per-direction tomography work).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import catalog
from .data import BLDatum, derive_adjoint_exponents, validate_datum, adjoint_gaussian_prefactor
from .errors import BLQError, SchemaError
from .gaussian import (
    _abl_from_solves,
    abl_gaussian_constant,
    bl_gaussian_constant,
    identity_ai_residual,
    perturbation_gap,
    quotient_supremum,
)
from .grid import GridFunction, GridSpec, adjoint_margin, gaussian_grid, random_grid_function, rank_one_distance
from .discrete import (
    abls_constant,
    bls_constant,
    discrete_adjoint_margin,
    group_from_json,
    subgroup_indicator,
)
from .entropy import entropic_bl_margin, p_entropy_probe, power_curvature_exact, power_curvature_fd, renyi_bl_margin
from .gowers import gowers_logconvexity_margin, gowers_profile, parallelogram_count, parallelepiped_count
from .tomography import (
    DirectionSet,
    kplane_transform,
    lower_bound_margin_from_tomograms,
    restricted_xray_constant,
    scaling_exponent_q,
    wedge_moment,
    xray_transform,
    xx_constant_via_mc,
    xx_gamma_constant,
)

try:
    from importlib.metadata import version as _pkg_version

    LIBRARY_VERSION = _pkg_version("blq")
except Exception:  # pragma: no cover
    LIBRARY_VERSION = "0.1.0"

TASKS = (
    "gaussian-bl",
    "adjoint-gaussian",
    "identity-ai",
    "adjoint-verify",
    "discrete",
    "tomography",
    "gowers",
    "entropy",
    "perturbation",
)

_STOCHASTIC_TASKS = {"adjoint-verify", "discrete", "tomography", "gowers", "entropy"}


def canonical_json(obj) -> str:
    """Serialize with sorted keys and %.12g floats; byte-stable per input."""

    def render(o):
        if isinstance(o, dict):
            items = sorted(o.items())
            return "{" + ",".join(f"{json.dumps(str(k))}:{render(v)}" for k, v in items) + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            x = float(o)
            if not math.isfinite(x):
                return json.dumps(str(x))
            token = format(x, ".12g")
            return token
        if isinstance(o, np.ndarray):
            return render(o.tolist())
        return json.dumps(o)

    return render(obj) + "\n"


@dataclass
class RunReport:
    task: str
    inputs: dict
    results: dict
    assertions: list
    library_version: str = LIBRARY_VERSION
    wall_time_s: float = 0.0
    # measured seconds of each runtime gate, by assertion name; volatile, so
    # kept out of the canonical bytes like wall_time_s
    measured_s: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(a["passed"] for a in self.assertions)

    def to_canonical_dict(self):
        """Byte-stable payload: excludes the volatile wall and gate times."""
        return {
            "task": self.task,
            "inputs": self.inputs,
            "results": self.results,
            "assertions": self.assertions,
            "library_version": self.library_version,
            "passed": self.passed,
        }


def emit_report(report: RunReport, fmt: str = "json", dest=None) -> str:
    """Serialize a report; canonical JSON or a flat CSV of the assertions."""
    if fmt == "json":
        text = canonical_json(report.to_canonical_dict())
    elif fmt == "csv":
        lines = ["name,value,tolerance,passed"]
        for a in report.assertions:
            lines.append(
                f"{a['name']},{format(a['value'], '.12g')},{format(a['tolerance'], '.12g')},{a['passed']}"
            )
        text = "\n".join(lines) + "\n"
    else:
        raise SchemaError("format must be 'json' or 'csv'")
    if dest is not None:
        Path(dest).write_bytes(text.encode("utf-8"))
    return text


def _assert_entry(name, value, tolerance, passed):
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(passed),
    }


def _datum_from_spec(spec) -> BLDatum:
    if isinstance(spec, str):
        spec = {"preset": spec}
    if "preset" in spec:
        datum = catalog.named_datum(spec["preset"])
        if "conjugate_seed" in spec:
            datum = catalog.conjugate_datum(datum, int(spec["conjugate_seed"]))
        return datum
    if "maps" in spec:
        return BLDatum.from_json_dict(spec)
    raise SchemaError("datum description needs 'preset' or 'maps'")


def _parse_number(x):
    if isinstance(x, str):
        return float(Fraction(x))
    return float(x)


def _tolerance(tol_override, default):
    """The scenario's tolerance unless ``--tol`` gave one; 0 is a valid override."""
    return _parse_number(default) if tol_override is None else float(tol_override)


def _grid_spec(obj, d):
    from .grid import default_box, default_resolution

    if obj is None:
        return GridSpec(box=default_box(d), resolution=default_resolution(d))
    box = obj.get("box")
    res = obj.get("resolution")
    box = tuple((float(a), float(b)) for a, b in box) if box else default_box(d)
    if res is None:
        res = default_resolution(d)
    elif isinstance(res, int):
        res = (res,) * d
    else:
        res = tuple(int(n) for n in res)
    return GridSpec(box=box, resolution=res)


def _require(scn, *fields):
    missing = [f for f in fields if f not in scn]
    if missing:
        raise SchemaError(f"scenario is missing required fields: {missing}")


# ---------------------------------------------------------------------------
# task handlers


def _task_gaussian_bl(scn, tol_override):
    cases = scn.get("cases")
    if cases is None:
        cases = [dict(datum=scn["datum"], expected=scn.get("expected"), tol=scn.get("tol", 1e-6))]
    results, assertions = {}, []
    for i, case in enumerate(cases):
        datum = _datum_from_spec(case["datum"])
        name = case.get("name", f"case{i}")
        report = validate_datum(datum, seed=int(scn.get("seed", 0)))
        t0 = time.perf_counter()
        res = bl_gaussian_constant(datum)
        dt = time.perf_counter() - t0
        results[name] = {
            "value": res.value,
            "iterations": res.iterations,
            "converged": res.converged,
            "residual": res.residual,
            "feasibility": report.verdict,
        }
        tol = _tolerance(tol_override, case.get("tol", 1e-6))
        if case.get("expected") is not None:
            err = abs(res.value - _parse_number(case["expected"]))
            assertions.append(_assert_entry(f"{name}: value within tol", err, tol, err <= tol))
        assertions.append(_assert_entry(f"{name}: converged", float(res.converged), 1.0, res.converged))
        if "max_seconds" in case:
            # the canonical value is the pass flag; run_scenario moves the
            # measured seconds to RunReport.measured_s
            ok = dt < case["max_seconds"]
            entry = _assert_entry(f"{name}: runtime", float(ok), case["max_seconds"], ok)
            entry["measured_s"] = dt
            assertions.append(entry)
    return {"cases": [c.get("name", f"case{i}") for i, c in enumerate(cases)]}, results, assertions


def _task_adjoint_gaussian(scn, tol_override):
    datum = _datum_from_spec(scn["datum"])
    params = derive_adjoint_exponents(datum, scn["theta"], _parse_number(scn["p"]))
    res = abl_gaussian_constant(datum, params)
    rel = abs(res.value - res.cross_check) / max(abs(res.cross_check), 1e-300)
    tol = _tolerance(tol_override, scn.get("rel_tol", 1e-4))
    results = {
        "value": res.value,
        "cross_check": res.cross_check,
        "prefactor": adjoint_gaussian_prefactor(params, datum.dims, datum.ambient_dim),
        "p_i": list(params.p_i),
    }
    assertions = [
        _assert_entry("adjoint constant matches prefactor route", rel, tol, rel <= tol),
        _assert_entry("converged", float(res.converged), 1.0, res.converged),
    ]
    return {"theta": list(scn["theta"]), "p": _parse_number(scn["p"])}, results, assertions


def _task_identity_ai(scn, tol_override):
    tol = _tolerance(tol_override, scn.get("tol", 1e-4))
    results, assertions = {}, []
    if "datum" in scn:
        data = [("datum", _datum_from_spec(scn["datum"]))]
    else:
        data = catalog.seeded_feasible_data(int(scn.get("n_data", 20)), seed0=int(scn.get("seed", 2024)))
    worst = 0.0
    for label, datum in data:
        res = identity_ai_residual(datum)
        worst = max(worst, res.residual)
        results[label] = {"residual": res.residual, "left_log": res.left_log, "right_log": res.right_log}
    assertions.append(_assert_entry("max |log L - log R|", worst, tol, worst <= tol))
    return {"n_data": len(data)}, results, assertions


def _random_function_for(datum, spec, rng):
    d = datum.ambient_dim
    zero_fraction = 0.3 if rng.uniform() < 0.5 else 0.0
    return random_grid_function(
        spec.box, spec.resolution, seed=int(rng.integers(0, 2**31)), zero_fraction=zero_fraction
    )


def _task_adjoint_verify(scn, tol_override):
    _require(scn, "seed")
    seed = int(scn["seed"])
    mode = scn.get("functions", "random")
    results, assertions = {}, []
    if mode == "equality-cases":
        return _equality_cases(scn, seed)
    if "datum" in scn:
        data = [("datum", _datum_from_spec(scn["datum"]))]
    else:
        data = catalog.seeded_feasible_data(int(scn.get("n_data", 20)), seed0=int(scn.get("seed0", 2024)))
    n_draws = int(scn.get("n_draws", 5))
    n_functions = int(scn.get("n_functions", 200))
    res_table = {2: 64, 3: 24, 4: 10}
    rel_tol = _tolerance(tol_override, scn.get("rel_tol", 1e-4))
    worst_rel = 0.0
    min_margin_gap = math.inf
    for t, (label, datum) in enumerate(data):
        bl = bl_gaussian_constant(datum)
        draws = catalog.random_adjoint_draws(datum, seed + 17 * t, n=n_draws)
        # both solves depend on the datum only; the draws are forward mode
        # with p < 1, so abl_gaussian_constant's guards hold for each of them
        quot = quotient_supremum(datum)
        worst = 0.0
        for params in draws:
            pref = adjoint_gaussian_prefactor(params, datum.dims, datum.ambient_dim)
            res = _abl_from_solves(pref, params, quot, bl)
            worst = max(worst, abs(res.value - res.cross_check) / abs(res.cross_check))
        worst_rel = max(worst_rel, worst)
        d = datum.ambient_dim
        spec = _grid_spec(
            scn.get("grid") or {"box": [[-1, 1]] * d, "resolution": res_table[d]}, d
        )
        rng = np.random.default_rng(seed + 1000 + t)
        gap = math.inf
        for j in range(n_functions):
            f = _random_function_for(datum, spec, rng)
            params = draws[j % len(draws)]
            m = adjoint_margin(f, datum, params, bl.value)
            gap = min(gap, m.margin + m.quadrature_estimate)
        min_margin_gap = min(min_margin_gap, gap)
        results[label] = {"cross_check_rel": worst, "min_margin_plus_estimate": gap}
    assertions.append(
        _assert_entry("adjoint constant vs prefactor route (rel)", worst_rel, rel_tol, worst_rel <= rel_tol)
    )
    assertions.append(
        _assert_entry(
            "forward inequality margins >= -estimate", min_margin_gap, 0.0, min_margin_gap >= 0.0
        )
    )
    return {"n_data": len(data), "n_draws": n_draws, "n_functions": n_functions}, results, assertions


def _equality_cases(scn, seed):
    datum = _datum_from_spec(scn.get("datum", "loomis_whitney_2"))
    params = derive_adjoint_exponents(
        datum, scn.get("theta", [0.5, 0.5]), _parse_number(scn.get("p", "1/2"))
    )
    bl = bl_gaussian_constant(datum).value
    n = int(scn.get("n_functions", 20))
    rng = np.random.default_rng(seed)
    box = ((-8.0, 8.0), (-8.0, 8.0))
    res = (256, 256)
    worst_eq = 0.0
    worst_ratio = math.inf
    results = {"product": [], "nonproduct": []}
    for _ in range(n):
        w = rng.uniform(0.5, 4.0, size=2)
        lo = rng.uniform(-3.0, 0.0, size=2)
        cells = 16.0 / 256.0
        support = tuple(
            (math.floor(l / cells) * cells, math.floor((l + ww) / cells) * cells)
            for l, ww in zip(lo, w)
        )
        f = GridFunction.indicator_box(support, box, res)
        m = adjoint_margin(f, datum, params, bl)
        worst_eq = max(worst_eq, abs(m.margin) - m.quadrature_estimate)
        results["product"].append(m.margin)
        g = f.values * rng.uniform(0.5, 1.5, size=f.values.shape)
        g = GridFunction(box, res, g)
        if rank_one_distance(g) <= 0.1:
            continue
        m2 = adjoint_margin(g, datum, params, bl)
        worst_ratio = min(worst_ratio, m2.margin / (3.0 * m2.quadrature_estimate))
        results["nonproduct"].append(m2.margin)
    assertions = [
        _assert_entry("product indicators: |margin| <= estimate", worst_eq, 0.0, worst_eq <= 0.0),
        _assert_entry(
            "non-product: margin >= 3x estimate", worst_ratio, 1.0, worst_ratio >= 1.0
        ),
    ]
    return {"n_functions": n}, results, assertions


def _task_discrete(scn, tol_override):
    _require(scn, "seed")
    seed = int(scn["seed"])
    tol = _tolerance(tol_override, scn.get("tol", 1e-12))
    n_functions = int(scn.get("n_functions", 1000))
    results, assertions = {}, []
    if "group" in scn:
        group, maps = group_from_json({**scn["group"], "maps": scn["maps"]})
        c = [Fraction(str(x)) for x in scn["c"]]
        instances = [("scenario", maps, tuple(c))]
    else:
        instances = catalog.discrete_instances(int(scn.get("max_order", 256)))
    ps = [Fraction(str(x)) for x in scn.get("p_values", ["1/2", "1/3", "3/4"])]
    worst_cons = 0.0
    worst_margin = math.inf
    for name, maps, c in instances:
        group = maps[0].source
        blv, arg_tuple = bls_constant(maps, [float(x) for x in c])
        inst = {"bls": blv, "argmax_orders": [s.order for s in arg_tuple]}
        for p in ps:
            ablv, arg = abls_constant(maps, [float(x) for x in c], p)
            target = blv ** float(1 / p - 1)
            err = abs(ablv - target) / max(1.0, abs(target))
            worst_cons = max(worst_cons, err)
            inst[f"abls(p={p})"] = ablv
            params = derive_adjoint_exponents(
                _discrete_pseudo_datum(maps, c), [1.0 / len(maps)] * len(maps), float(p)
            )
            f = subgroup_indicator(arg, group)
            m = discrete_adjoint_margin(f / f.sum(), maps, [float(x) for x in c], params, blv)
            worst_margin = min(worst_margin, m.margin)
        rng = np.random.default_rng(seed + group.order)
        p = ps[0]
        params = derive_adjoint_exponents(
            _discrete_pseudo_datum(maps, c), [1.0 / len(maps)] * len(maps), float(p)
        )
        for _ in range(n_functions):
            f = rng.uniform(0.0, 1.0, size=group.order)
            f *= rng.uniform(size=group.order) < 0.8
            if f.sum() == 0:
                continue
            # the inequality is 1-homogeneous in f: normalize so float rounding
            # stays at unit scale
            f /= f.sum()
            m = discrete_adjoint_margin(f, maps, [float(x) for x in c], params, blv)
            worst_margin = min(worst_margin, m.margin)
        results[name] = inst
    assertions.append(
        _assert_entry("ABLs = BLs^{1/p-1} (rel)", worst_cons, tol, worst_cons <= tol)
    )
    assertions.append(
        _assert_entry("discrete margins >= -1e-12", worst_margin, 1e-12, worst_margin >= -1e-12)
    )
    return {"n_instances": len(instances), "n_functions": n_functions}, results, assertions


class _PseudoDatum:
    """Adapter: exponent algebra for discrete data (only c_i and k used)."""

    def __init__(self, k, exponents):
        self.k = k
        self.exponents = exponents


def _discrete_pseudo_datum(maps, c):
    return _PseudoDatum(len(maps), tuple(float(x) for x in c))


def _task_tomography(scn, tol_override):
    check = scn.get("check", "lower-bound-suite")
    seed = int(scn.get("seed", 0))
    if check == "gamma-constant":
        return _tomography_gamma(scn, tol_override, seed)
    if check == "restricted":
        return _tomography_restricted(scn, seed)
    return _tomography_suite(scn, tol_override, seed)


def _tomography_gamma(scn, tol_override, seed):
    import scipy.integrate as si

    results, assertions = {}, []
    qs = [round(0.1 * i, 10) for i in range(1, 10)]
    worst = 0.0
    for q in qs:
        target = si.quad(lambda t: math.sin(t) ** (1.0 - q) / math.pi, 0.0, math.pi)[0]
        worst = max(worst, abs(wedge_moment(2, q) - target))
    results["sin_moment_max_err"] = worst
    assertions.append(_assert_entry("d=2 sin-moment identity", worst, 1e-10, worst <= 1e-10))
    n_mc = int(scn.get("n_mc", 10**6))
    rel_tol = _tolerance(tol_override, scn.get("rel_tol", 0.02))
    p, q = _parse_number(scn.get("p", 2.0)), _parse_number(scn.get("q", 0.5))
    for d in (2, 3):
        c_exact = xx_gamma_constant(d, p, q)
        mc = xx_constant_via_mc(d, p, q, n_mc, seed + d)
        rel = abs(c_exact - mc.value) / c_exact
        results[f"d{d}"] = {"gamma": c_exact, "mc": mc.value, "mc_stderr": mc.stderr, "rel": rel}
        assertions.append(_assert_entry(f"d={d} Gamma vs MC (rel)", rel, rel_tol, rel <= rel_tol))
    return {"n_mc": n_mc, "p": p, "q": q}, results, assertions


def _tomography_restricted(scn, seed):
    d = int(scn.get("d", 3))
    p = _parse_number(scn.get("p", 0.5))
    q = scaling_exponent_q(p, d)
    n_mc = int(scn.get("n_mc", 10**5))
    mu_kind = scn.get("mu", "great-circle")
    if mu_kind == "great-circle":
        mu = DirectionSet.great_circle(int(scn.get("n_mu", 128)))
    elif mu_kind == "uniform":
        mu = DirectionSet.uniform_circle(int(scn.get("n_mu", 256))) if d == 2 else DirectionSet.fibonacci_sphere(int(scn.get("n_mu", 256)))
    else:
        raise SchemaError("mu must be 'great-circle' or 'uniform'")
    est = restricted_xray_constant(mu, p, q, d, n_mc, seed)
    results = {"value": est.value, "stderr": est.stderr, "n": est.n_samples}
    assertions = []
    if "expected_below" in scn:
        bound = _parse_number(scn["expected_below"])
        assertions.append(_assert_entry("constant below bound", est.value, bound, est.value < bound))
    return {"mu": mu_kind, "p": p, "q": q, "d": d}, results, assertions


def _tomography_suite(scn, tol_override, seed):
    results, assertions = {}, []
    n_functions = int(scn.get("n_functions", 100))
    n_dirs = int(scn.get("n_dirs", 120))
    res = int(scn.get("resolution", 96))
    l1_tol = _tolerance(tol_override, scn.get("l1_tol", 1e-3))
    box = ((-4.0, 4.0), (-4.0, 4.0))
    dirs = DirectionSet.uniform_circle(n_dirs)
    half = DirectionSet.from_vectors(dirs.vectors[::2])
    rng = np.random.default_rng(seed)
    p_values = [_parse_number(x) for x in scn.get("p_values", [0.5, 0.7, 0.9])]
    worst_l1 = 0.0
    min_gap = math.inf
    for _ in range(n_functions):
        f = random_grid_function(box, (res, res), seed=int(rng.integers(0, 2**31)), smooth=1)
        tom = xray_transform(f, dirs)
        tom_half = xray_transform(f, half, t_resolution=res)
        worst_l1 = max(worst_l1, abs(tom.l1() / f.mass - 1.0))
        for p in p_values:
            q = scaling_exponent_q(p, 2)
            m = lower_bound_margin_from_tomograms(tom, tom_half, f, p, q)
            min_gap = min(min_gap, m.margin + m.quadrature_estimate)
    results["l1_worst_dev"] = worst_l1
    results["min_margin_plus_estimate"] = min_gap
    assertions.append(_assert_entry("||Xf||_1/||f||_1 = 1 (dev)", worst_l1, l1_tol, worst_l1 <= l1_tol))
    assertions.append(_assert_entry("lower-bound margins", min_gap, 0.0, min_gap >= 0.0))
    # monotonicity chain in dimension 3
    n3 = int(scn.get("n_samples_3d", 3))
    from .grid import lp_norm

    worst_chain = math.inf
    for t in range(n3):
        f3 = random_grid_function(((-2.0, 2.0),) * 3, (32,) * 3, seed=seed + 7 * t, smooth=1)
        p = 0.7
        t1 = xray_transform(f3, DirectionSet.fibonacci_sphere(96), method="deposit")
        t2 = kplane_transform(f3, 2, 96, seed=seed + t)
        n0 = lp_norm(f3, p)
        n1 = t1.lq(scaling_exponent_q(p, 3, 1))
        n2 = t2.lq(scaling_exponent_q(p, 3, 2))
        worst_chain = min(worst_chain, n1 - n0, n2 - n1)
    results["monotonicity_min_increment"] = worst_chain
    assertions.append(
        _assert_entry("k-plane norm monotonicity", worst_chain, 0.0, worst_chain >= 0.0)
    )
    gc = DirectionSet.great_circle(128)
    p = 0.5
    est = restricted_xray_constant(gc, p, scaling_exponent_q(p, 3), 3, int(scn.get("n_mc", 10**5)), seed)
    results["great_circle_constant"] = est.value
    assertions.append(
        _assert_entry("great-circle constant < 1e-3", est.value, 1e-3, est.value < 1e-3)
    )
    return {"n_functions": n_functions, "n_dirs": n_dirs, "resolution": res}, results, assertions


def _task_gowers(scn, tol_override):
    _require(scn, "seed")
    seed = int(scn["seed"])
    n = int(scn.get("N", 64))
    d = int(scn.get("d", 2))
    n_functions = int(scn.get("n_functions", 200))
    tol = _tolerance(tol_override, scn.get("tol", 1e-12))
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(n_functions):
        f = rng.uniform(0.0, 1.0, size=n) * (rng.uniform(size=n) < 0.7)
        if f.sum() == 0:
            continue
        worst = min(worst, gowers_logconvexity_margin(f, d))
    const_margin = abs(gowers_logconvexity_margin(np.ones(n), d))
    results = {"min_margin": worst, "constant_margin": const_margin}
    assertions = [
        _assert_entry("log-convexity margins >= -1e-12", worst, tol, worst >= -tol),
        _assert_entry("equality at constant functions", const_margin, 1e-12, const_margin <= 1e-12),
    ]
    n_sets = int(scn.get("n_sets", 20))
    n_small = int(scn.get("N_sets", 32))
    worst_pp = math.inf
    for _ in range(n_sets):
        a = (rng.uniform(size=n_small) < rng.uniform(0.2, 0.8)).astype(float)
        size = a.sum()
        if size < 2:
            continue
        s2 = parallelogram_count(a)
        s3 = parallelepiped_count(a)
        delta = s2 / size**3
        worst_pp = min(worst_pp, s3 - delta**4 * size**4)
    results["parallelepiped_slack"] = worst_pp
    assertions.append(
        _assert_entry("parallelepiped count >= delta^4 |A|^4", worst_pp, 0.0, worst_pp >= 0.0)
    )
    if scn.get("profile_csv"):
        f = rng.uniform(0.0, 1.0, size=n)
        gowers_profile(f, 3).to_csv(scn["profile_csv"])
    return {"N": n, "d": d, "n_functions": n_functions}, results, assertions


def _task_entropy(scn, tol_override):
    seed = int(scn.get("seed", 0))
    tol = _tolerance(tol_override, scn.get("tol", 1e-3))
    datum = _datum_from_spec(scn.get("datum", "loomis_whitney_2"))
    bl = bl_gaussian_constant(datum).value
    d = datum.ambient_dim
    res = int(scn.get("resolution", 256))
    box = ((-8.0, 8.0),) * d
    rng = np.random.default_rng(seed)
    densities = {
        "product_gaussian": gaussian_grid(np.eye(d), box, (res,) * d),
        "correlated_gaussian": gaussian_grid(
            np.linalg.inv(np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d))) , box, (res,) * d
        ),
        "indicator": GridFunction.indicator_box(((0.0, 2.0),) * d, box, (res,) * d),
        "mixture": GridFunction(
            box,
            (res,) * d,
            gaussian_grid(np.eye(d), box, (res,) * d).values
            + 0.5 * gaussian_grid(2.0 * np.eye(d), box, (res,) * d).values,
        ),
    }
    results, assertions = {}, []
    worst = math.inf
    for name, f in densities.items():
        m = entropic_bl_margin(f, datum, bl)
        results[name] = {"shannon_margin": m}
        worst = min(worst, m)
    assertions.append(_assert_entry("entropic margins >= -tol", worst, tol, worst >= -tol))
    theta = [1.0 / datum.k] * datum.k
    f = densities["correlated_gaussian"]
    m_sh = entropic_bl_margin(f, datum, bl)
    slopes = []
    for eps in (1e-2, 1e-3):
        params = derive_adjoint_exponents(datum, theta, 1.0 - eps)
        m_p = renyi_bl_margin(f, datum, params, bl)
        slopes.append((m_p - m_sh) / eps)
    results["renyi_slopes"] = slopes
    slope_consistency = abs(slopes[0] - slopes[1]) / max(1e-12, abs(slopes[1]))
    assertions.append(
        _assert_entry("Renyi->Shannon slope consistency", slope_consistency, 0.5, slope_consistency <= 0.5)
    )
    fd = power_curvature_fd(Fraction(1, 4))
    err = abs(fd - power_curvature_exact(Fraction(1, 4)))
    results["curvature_fd"] = fd
    assertions.append(_assert_entry("curvature counterexample to 1e-12", err, 1e-12, err <= 1e-12))
    probe = p_entropy_probe(
        GridFunction.indicator_box(((0.0, 1.5),) * d, box, (res,) * d), 0.5, datum, bl_value=bl
    )
    results["indicator_probe"] = probe
    assertions.append(_assert_entry("indicator probe <= tol", probe, tol, probe <= tol))
    return {"resolution": res, "tol": tol}, results, assertions


def _task_perturbation(scn, tol_override):
    datum = _datum_from_spec(scn.get("datum", "loomis_whitney_2"))
    theta = scn.get("theta", [0.9, 0.1])
    p = _parse_number(scn.get("p", "1/2"))
    params = derive_adjoint_exponents(datum, theta, p)
    d = datum.ambient_dim
    resolutions = scn.get("resolutions", [512, 1024])
    stability_tol = _tolerance(tol_override, scn.get("stability_tol", 0.05))
    coeffs = []
    for n in resolutions:
        spec = GridSpec(box=((-8.0, 8.0),) * d, resolution=(int(n),) * d)
        coeffs.append(perturbation_gap(datum, params, eps=1e-3, grid=spec))
    stability = abs(coeffs[0].coefficient - coeffs[-1].coefficient) / abs(coeffs[-1].coefficient)
    results = {
        "coefficients": [c.coefficient for c in coeffs],
        "stability": stability,
        "radius": coeffs[-1].radius,
        "direct_ratio_delta": coeffs[-1].direct_ratio_delta,
    }
    assertions = [
        _assert_entry("first-order coefficient > 0", coeffs[-1].coefficient, 0.0, coeffs[-1].coefficient > 0),
        _assert_entry("stability across resolutions", stability, stability_tol, stability <= stability_tol),
    ]
    return {"theta": theta, "p": p, "resolutions": resolutions}, results, assertions


_HANDLERS = {
    "gaussian-bl": _task_gaussian_bl,
    "adjoint-gaussian": _task_adjoint_gaussian,
    "identity-ai": _task_identity_ai,
    "adjoint-verify": _task_adjoint_verify,
    "discrete": _task_discrete,
    "tomography": _task_tomography,
    "gowers": _task_gowers,
    "entropy": _task_entropy,
    "perturbation": _task_perturbation,
}


def validate_scenario(scn):
    if not isinstance(scn, dict):
        raise SchemaError("scenario must be a JSON object")
    try:
        import jsonschema

        error = jsonschema.exceptions.best_match(_scenario_validator().iter_errors(scn))
    except ImportError:  # pragma: no cover
        error = None
    except Exception as exc:
        raise SchemaError(f"scenario violates the schema: {exc}") from exc
    if error is not None:
        raise SchemaError(f"scenario violates the schema: {error}") from error
    task = scn.get("task")
    if task not in TASKS:
        raise SchemaError(f"unknown task {task!r}; options: {TASKS}")
    if task in _STOCHASTIC_TASKS and "seed" not in scn:
        raise SchemaError(f"task {task!r} is stochastic: a seed is mandatory")
    return scn


@functools.cache
def _scenario_validator():
    """The scenario schema's validator, checked and built on first use.

    Same checks and error as ``jsonschema.validate``, which re-checks the
    schema itself on every call.
    """
    import jsonschema

    schema = _load_schema("scenario")
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _load_schema(name):
    import importlib.resources as res

    with res.files("blq.schemas").joinpath(f"{name}.schema.json").open() as fh:
        return json.load(fh)


def run_scenario(scenario, seed_override=None, tol_override=None) -> RunReport:
    """Execute a scenario (path or dict); partial errors become failed
    assertions so a report is always produced."""
    if isinstance(scenario, (str, Path)):
        with open(scenario) as fh:
            try:
                scenario = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"malformed scenario JSON: {exc}") from exc
    scn = dict(validate_scenario(scenario))
    if seed_override is not None:
        scn["seed"] = int(seed_override)
    t0 = time.perf_counter()
    inputs_echo = {k: v for k, v in scn.items()}
    try:
        extra_inputs, results, assertions = _HANDLERS[scn["task"]](scn, tol_override)
        inputs_echo.update(extra_inputs)
        measured = {a["name"]: a.pop("measured_s") for a in assertions if "measured_s" in a}
    except SchemaError:
        raise
    except Exception as exc:
        # engine errors surface in the report with task context; the partial
        # report is still written and the run exits non-zero
        results = {"error": f"{type(exc).__name__}: {exc}"}
        assertions = [_assert_entry("task completed", 0.0, 1.0, False)]
        measured = {}
    report = RunReport(
        task=scn["task"],
        inputs=inputs_echo,
        results=results,
        assertions=assertions,
        wall_time_s=time.perf_counter() - t0,
        measured_s=measured,
    )
    return report


def _resolve_scenario_path(name):
    p = Path(name)
    if p.exists():
        return p
    candidate = Path("scenarios") / f"{name}.json"
    if candidate.exists():
        return candidate
    raise SchemaError(f"scenario {name!r} not found (tried {p} and {candidate})")


def _cmd_run(args):
    path = _resolve_scenario_path(args.scenario)
    report = run_scenario(path, seed_override=args.seed, tol_override=args.tol)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / f"{Path(path).stem}.report.json"
    emit_report(report, "json", dest)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {path} ({report.wall_time_s:.2f} s) -> {dest}")
    for a in report.assertions:
        mark = "ok " if a["passed"] else "FAIL"
        line = f"  [{mark}] {a['name']}: value={a['value']:.6g} tol={a['tolerance']:.6g}"
        if a["name"] in report.measured_s:
            line += f" measured={report.measured_s[a['name']]:.3g} s"
        print(line)
    return 0 if report.passed else 1


def _cmd_suite(args):
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"no scenarios in {directory}", file=sys.stderr)
        return 2
    rows = []
    all_pass = True
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in paths:
        try:
            report = run_scenario(path)
            emit_report(report, "json", out_dir / f"{path.stem}.report.json")
            ok = report.passed
            n_pass = sum(a["passed"] for a in report.assertions)
            rows.append((path.name, report.task, f"{n_pass}/{len(report.assertions)}", f"{report.wall_time_s:.2f}s", "PASS" if ok else "FAIL"))
        except BLQError as exc:
            rows.append((path.name, "-", "-", "-", f"ERROR: {exc}"))
            ok = False
        all_pass = all_pass and ok
    widths = [max(len(str(r[i])) for r in rows + [("scenario", "task", "asserts", "time", "status")]) for i in range(5)]
    header = ("scenario", "task", "asserts", "time", "status")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blq", description="Brascamp-Lieb scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", help="path or scenarios/<name>.json stem")
    p_run.add_argument("--out", default=None, help="report output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--tol", type=float, default=None, help="override the main tolerance")
    p_run.set_defaults(func=_cmd_run)
    p_suite = sub.add_parser("suite", help="run every scenario in a directory")
    p_suite.add_argument("directory")
    p_suite.add_argument("--out", default=None)
    p_suite.set_defaults(func=_cmd_suite)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BLQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
