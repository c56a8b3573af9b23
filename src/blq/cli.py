"""Scenario runner: JSON configs in, machine-readable reports out.

``blq run scenario.json`` executes one scenario and writes a canonical JSON
report (sorted keys, floats rendered with %.12g) whose bytes depend only on
the scenario and its seed; wall time is printed to stdout but kept out of
the canonical report so reruns are byte-identical.  ``blq suite DIR`` runs
every scenario in a directory and prints a summary table.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, catalog
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
from .grid import (
    GridFunction, GridSpec, adjoint_margin, gaussian_grid, lp_norm, random_grid_function, rank_one_distance
)
from .discrete import (
    abls_constant,
    bls_constant,
    discrete_adjoint_margin,
    discrete_adjoint_margins,
    group_from_json,
    subgroup_indicator,
)
from .entropy import entropic_bl_margin, p_entropy_probe, power_curvature_exact, power_curvature_fd, renyi_bl_margin
from .gowers import gowers_logconvexity_margin, parallelogram_count, parallelepiped_count
from .tomography import (
    DirectionSet,
    _with_half,
    kplane_transform,
    lower_bound_margin_from_tomograms,
    restricted_xray_constant,
    scaling_exponent_q,
    wedge_moment,
    xray_transform,
    xx_constant_via_mc,
    xx_gamma_constant,
)

_RANDOM_RESOLUTION = {2: 64, 3: 24, 4: 10}  # cells per axis of adjoint-verify's random functions on [-1, 1]^d


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
            return format(x, ".12g")
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
    library_version: str = __version__
    wall_time_s: float = 0.0
    # seconds of each runtime gate by assertion name; volatile like wall_time_s
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


def emit_report(report: RunReport, dest=None) -> str:
    """The report's canonical JSON, checked against the report schema."""
    text = canonical_json(report.to_canonical_dict())
    _conform("report", json.loads(text))
    if dest is not None:
        Path(dest).write_bytes(text.encode("utf-8"))
    return text


def _datum_from_spec(spec) -> BLDatum:
    if isinstance(spec, str):
        spec = {"preset": spec}
    if "preset" in spec:
        if spec["preset"] not in catalog.NAMED_DATA:
            raise SchemaError(f"unknown datum preset {spec['preset']!r}: one of {sorted(catalog.NAMED_DATA)}")
        datum = catalog.named_datum(spec["preset"])
        if "conjugate_seed" in spec:
            datum = catalog.conjugate_datum(datum, int(spec["conjugate_seed"]))
        return datum
    if "maps" in spec:
        return BLDatum.from_json_dict(spec)
    raise SchemaError("datum description needs 'preset' or 'maps'")


def _data(datum, n_data, seed0):
    """[("datum", the given datum)], or ``n_data`` seeded feasible data when none is given."""
    if datum is not None:
        return [("datum", _datum_from_spec(datum))]
    return catalog.seeded_feasible_data(n_data, seed0=seed0)


def _parse_number(x, path, exact=False):
    """``x`` as a float, or as the exact ``Fraction(str(x))`` when ``exact``; a SchemaError if it does not parse."""
    try:
        x = Fraction(str(x)) if exact or isinstance(x, str) else x
        return x if exact else float(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"scenario violates the schema at {path}: {x!r} is not a number or a fraction") from exc


class _Checks:
    """The assertion entries of one run, in declaration order.

    A runtime gate's entry holds its pass flag; the measured seconds are
    volatile and go to ``measured_s`` instead.
    """

    def __init__(self):
        self.entries = []
        self.measured_s = {}

    def add(self, name, value, tolerance, passed):
        self.entries.append(
            {"name": name, "value": float(value), "tolerance": float(tolerance), "passed": bool(passed)}
        )

    def at_most(self, name, value, bound):
        self.add(name, value, bound, value <= bound)

    def at_least(self, name, value, bound):
        self.add(name, value, bound, value >= bound)

    def flag(self, name, ok):
        self.add(name, float(ok), 1.0, ok)

    def runtime(self, name, seconds, bound):
        ok = seconds < bound
        self.add(name, float(ok), bound, ok)
        self.measured_s[name] = seconds


# ---------------------------------------------------------------------------
# task handlers: the keyword-only parameters are the scenario keys, with their
# defaults.  Every handler takes ``seed``, so ``--seed`` applies to every
# scenario; a stochastic handler takes it without a default.


def _task_gaussian_bl(checks, *, cases, seed=0):
    names, results = [], {}
    for i, case in enumerate(cases):
        case = {"name": f"case{i}", **_cast(case, _key_casts("cases"), f"$.cases[{i}]")}
        names.append(case["name"])
        results[case["name"]] = _gaussian_bl_case(checks, **case)
    return {"cases": names}, results


def _gaussian_bl_case(checks, *, name, datum, expected=None, tol=1e-6, max_seconds=None):
    datum = _datum_from_spec(datum)
    report = validate_datum(datum)
    t0 = time.perf_counter()
    res = bl_gaussian_constant(datum)
    dt = time.perf_counter() - t0
    if expected is not None:
        err = abs(res.value - expected)
        checks.at_most(f"{name}: value within tol", err, tol)
    checks.flag(f"{name}: converged", res.converged)
    if max_seconds is not None:
        checks.runtime(f"{name}: runtime", dt, max_seconds)
    return {
        "value": res.value,
        "iterations": res.iterations,
        "converged": res.converged,
        "residual": res.residual,
        "feasibility": report.verdict,
    }


def _task_adjoint_gaussian(checks, *, datum, theta, p, rel_tol=1e-4, seed=None):
    datum = _datum_from_spec(datum)
    params = derive_adjoint_exponents(datum.exponents, theta, p)
    res = abl_gaussian_constant(datum, params)
    rel = abs(res.value - res.cross_check) / max(abs(res.cross_check), 1e-300)
    results = {
        "value": res.value,
        "cross_check": res.cross_check,
        "prefactor": adjoint_gaussian_prefactor(params, datum),
        "p_i": list(params.p_i),
    }
    checks.at_most("adjoint constant matches prefactor route", rel, rel_tol)
    checks.flag("converged", res.converged)
    return {"theta": list(theta), "p": p}, results


def _task_identity_ai(checks, *, seed=2024, datum=None, n_data=20, tol=1e-4):
    results = {}
    data = _data(datum, n_data, seed)
    worst = 0.0
    for label, datum in data:
        res = identity_ai_residual(datum)
        worst = max(worst, res.residual)
        results[label] = {"residual": res.residual, "left_log": res.left_log, "right_log": res.right_log}
    checks.at_most("max |log L - log R|", worst, tol)
    return {"n_data": len(data)}, results


def _verify_random(checks, *, seed, datum=None, n_data=20, seed0=2024, n_draws=5, n_functions=200, rel_tol=1e-4):
    results = {}
    data = _data(datum, n_data, seed0)
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
            res = _abl_from_solves(datum, params, quot, bl)
            worst = max(worst, abs(res.value - res.cross_check) / abs(res.cross_check))
        worst_rel = max(worst_rel, worst)
        d = datum.ambient_dim
        box, res = ((-1.0, 1.0),) * d, (_RANDOM_RESOLUTION[d],) * d
        rng = np.random.default_rng(seed + 1000 + t)
        gap = math.inf
        for j in range(n_functions):
            zero_fraction = 0.3 if rng.uniform() < 0.5 else 0.0
            f = random_grid_function(box, res, seed=int(rng.integers(0, 2**31)), zero_fraction=zero_fraction)
            params = draws[j % len(draws)]
            m = adjoint_margin(f, datum, params, bl.value)
            gap = min(gap, m.margin + m.quadrature_estimate)
        min_margin_gap = min(min_margin_gap, gap)
        results[label] = {"cross_check_rel": worst, "min_margin_plus_estimate": gap}
    checks.at_most("adjoint constant vs prefactor route (rel)", worst_rel, rel_tol)
    checks.at_least("forward inequality margins >= -estimate", min_margin_gap, 0.0)
    return {"n_data": len(data), "n_draws": n_draws, "n_functions": n_functions}, results


def _verify_equality_cases(checks, *, seed, datum="loomis_whitney_2", theta=(0.5, 0.5), p=0.5, n_functions=20):
    datum = _datum_from_spec(datum)
    params = derive_adjoint_exponents(datum.exponents, theta, p)
    bl = bl_gaussian_constant(datum).value
    rng = np.random.default_rng(seed)
    box = ((-8.0, 8.0), (-8.0, 8.0))
    res = (256, 256)
    worst_eq = 0.0
    worst_ratio = math.inf
    results = {"product": [], "nonproduct": []}
    for _ in range(n_functions):
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
        g = GridFunction(box, res, f.values * rng.uniform(0.5, 1.5, size=f.values.shape))
        if rank_one_distance(g) <= 0.1:
            continue
        m2 = adjoint_margin(g, datum, params, bl)
        worst_ratio = min(worst_ratio, m2.margin / (3.0 * m2.quadrature_estimate))
        results["nonproduct"].append(m2.margin)
    checks.at_most("product indicators: |margin| <= estimate", worst_eq, 0.0)
    checks.at_least("non-product: margin >= 3x estimate", worst_ratio, 1.0)
    return {"n_functions": n_functions}, results


def _task_discrete(
    checks, *, seed, group=None, maps=None, c=None, max_order=256, p_values=("1/2", "1/3", "3/4"),
    n_functions=1000, tol=1e-12,
):
    results = {}
    given = [key for key, value in (("group", group), ("maps", maps), ("c", c)) if value is not None]
    if 0 < len(given) < 3:
        raise SchemaError(f"scenario violates the schema at $: 'group', 'maps' and 'c' go together, got only {given}")
    if group is not None and len(c) != len(maps):
        raise SchemaError(f"scenario violates the schema at $.c: {len(c)} exponents for {len(maps)} maps")
    if group is not None:
        _, homs = group_from_json({**group, "maps": maps})
        instances = [("scenario", homs, tuple(_parse_number(x, "$.c", exact=True) for x in c))]
    else:
        instances = catalog.discrete_instances(max_order)
    ps = [_parse_number(x, "$.p_values", exact=True) for x in p_values]
    worst_cons = 0.0
    worst_margin = math.inf
    for name, maps, c in instances:
        group = maps[0].source
        c = [float(x) for x in c]
        theta = [1.0 / len(maps)] * len(maps)
        blv, arg_tuple = bls_constant(maps, c)
        inst = {"bls": blv, "argmax_orders": [s.order for s in arg_tuple]}
        for p in ps:
            ablv, arg = abls_constant(maps, c, p)
            target = blv ** float(1 / p - 1)
            err = abs(ablv - target) / max(1.0, abs(target))
            worst_cons = max(worst_cons, err)
            inst[f"abls(p={p})"] = ablv
            params = derive_adjoint_exponents(c, theta, float(p))
            f = subgroup_indicator(arg, group)
            m = discrete_adjoint_margin(f / f.sum(), maps, params, blv)
            worst_margin = min(worst_margin, m.margin)
        rng = np.random.default_rng(seed + group.order)
        params = derive_adjoint_exponents(c, theta, float(ps[0]))
        for F in _discrete_draws(rng, group.order, n_functions):
            for m in discrete_adjoint_margins(F, maps, params, blv):
                worst_margin = min(worst_margin, m.margin)
        results[name] = inst
    checks.at_most("ABLs = BLs^{1/p-1} (rel)", worst_cons, tol)
    checks.add("discrete margins >= -1e-12", worst_margin, 1e-12, worst_margin >= -1e-12)
    return {"n_instances": len(instances), "n_functions": n_functions}, results


def _discrete_draws(rng, order, n_functions):
    """The discrete check's random functions in row blocks of at most 4096
    values, drawn row by row as one ``uniform(size=order)`` for the values and
    one for the keep-with-probability-0.8 mask.  Zero-sum rows are dropped,
    the rest normalized to sum 1 (the inequality is 1-homogeneous in f, so
    float rounding stays at unit scale)."""
    block = max(1, 4096 // order)
    for start in range(0, n_functions, block):
        u = rng.uniform(size=(min(block, n_functions - start), 2, order))
        F = u[:, 0] * (u[:, 1] < 0.8)
        total = F.sum(axis=1)
        keep = total != 0
        yield F[keep] / total[keep, None]


def _tomography_suite(
    checks, *, seed, n_functions=100, n_dirs=120, resolution=96, p_values=(0.5, 0.7, 0.9), n_samples_3d=3,
    n_mc=10**5, l1_tol=1e-3,
):
    box = ((-4.0, 4.0), (-4.0, 4.0))
    dirs = DirectionSet.uniform_circle(n_dirs)
    rng = np.random.default_rng(seed)
    p_values = [_parse_number(x, "$.p_values") for x in p_values]
    worst_l1, min_gap = 0.0, math.inf
    seeds = [int(rng.integers(0, 2**31)) for _ in range(n_functions)]
    fs = (random_grid_function(box, (resolution,) * 2, seed=s, smooth=1) for s in seeds)
    for f, tom, tom_half in _with_half(fs, dirs):
        worst_l1 = max(worst_l1, abs(tom.l1() / f.mass - 1.0))
        for p in p_values:
            m = lower_bound_margin_from_tomograms(tom, tom_half, f, p)
            min_gap = min(min_gap, m.margin + m.quadrature_estimate)
    results = {"l1_worst_dev": worst_l1, "min_margin_plus_estimate": min_gap}
    checks.at_most("||Xf||_1/||f||_1 = 1 (dev)", worst_l1, l1_tol)
    checks.at_least("lower-bound margins", min_gap, 0.0)
    # monotonicity chain in dimension 3
    worst_chain = math.inf
    for t in range(n_samples_3d):
        f3 = random_grid_function(((-2.0, 2.0),) * 3, (32,) * 3, seed=seed + 7 * t, smooth=1)
        p = 0.7
        t1 = xray_transform(f3, DirectionSet.fibonacci_sphere(96), method="deposit")
        t2 = kplane_transform(f3, 96, seed=seed + t)
        n0 = lp_norm(f3, p)
        n1 = t1.lq(scaling_exponent_q(p, 3, 1))
        n2 = t2.lq(scaling_exponent_q(p, 3, 2))
        worst_chain = min(worst_chain, n1 - n0, n2 - n1)
    results["monotonicity_min_increment"] = worst_chain
    checks.at_least("k-plane norm monotonicity", worst_chain, 0.0)
    gc = DirectionSet.great_circle(128)
    p = 0.5
    est = restricted_xray_constant(gc, p, n_mc, seed)
    results["great_circle_constant"] = est.value
    checks.add("great-circle constant < 1e-3", est.value, 1e-3, est.value < 1e-3)
    return {"n_functions": n_functions, "n_dirs": n_dirs, "resolution": resolution}, results


def _tomography_gamma(checks, *, seed, n_mc=10**6, p=2.0, q=0.5, rel_tol=0.02):
    import scipy.integrate as si  # imported on first use: it is slow to import

    worst = 0.0
    for moment_q in [round(0.1 * i, 10) for i in range(1, 10)]:
        target = si.quad(lambda t: math.sin(t) ** (1.0 - moment_q) / math.pi, 0.0, math.pi)[0]
        worst = max(worst, abs(wedge_moment(2, moment_q) - target))
    results = {"sin_moment_max_err": worst}
    checks.at_most("d=2 sin-moment identity", worst, 1e-10)
    for d in (2, 3):
        c_exact = xx_gamma_constant(d, p, q)
        mc = xx_constant_via_mc(d, p, q, n_mc, seed + d)
        rel = abs(c_exact - mc.value) / c_exact
        results[f"d{d}"] = {"gamma": c_exact, "mc": mc.value, "mc_stderr": mc.stderr, "rel": rel}
        checks.at_most(f"d={d} Gamma vs MC (rel)", rel, rel_tol)
    return {"n_mc": n_mc, "p": p, "q": q}, results


def _tomography_restricted(checks, *, seed, d=3, p=0.5, n_mc=10**5, mu="great-circle", n_mu=None, expected_below=None):
    """``n_mu`` defaults to 128 great-circle (d = 3) or 256 uniform (d = 2 or 3) directions."""
    dims = (3,) if mu == "great-circle" else (2, 3)
    if d not in dims:
        raise SchemaError(f"tomography check 'restricted' with mu {mu!r} needs d in {list(dims)}, got d = {d}")
    q = scaling_exponent_q(p, d)
    if mu == "great-circle":
        directions = DirectionSet.great_circle(n_mu or 128)
    else:
        n = n_mu or 256
        directions = DirectionSet.uniform_circle(n) if d == 2 else DirectionSet.fibonacci_sphere(n)
    est = restricted_xray_constant(directions, p, n_mc, seed)
    results = {"value": est.value, "stderr": est.stderr, "n": est.n_samples}
    if expected_below is not None:
        checks.add("constant below bound", est.value, expected_below, est.value < expected_below)
    return {"mu": mu, "p": p, "q": q, "d": d}, results


def _task_gowers(checks, *, seed, N=64, d=2, n_functions=200, n_sets=20, N_sets=32, tol=1e-12):
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(n_functions):
        f = rng.uniform(0.0, 1.0, size=N) * (rng.uniform(size=N) < 0.7)
        if f.sum() == 0:
            continue
        worst = min(worst, gowers_logconvexity_margin(f, d))
    const_margin = abs(gowers_logconvexity_margin(np.ones(N), d))
    results = {"min_margin": worst, "constant_margin": const_margin}
    checks.add("log-convexity margins >= -1e-12", worst, tol, worst >= -tol)
    checks.at_most("equality at constant functions", const_margin, 1e-12)
    worst_pp = math.inf
    for _ in range(n_sets):
        a = (rng.uniform(size=N_sets) < rng.uniform(0.2, 0.8)).astype(float)
        size = a.sum()
        if size < 2:
            continue
        s2 = parallelogram_count(a)
        s3 = parallelepiped_count(a)
        delta = s2 / size**3
        worst_pp = min(worst_pp, s3 - delta**4 * size**4)
    results["parallelepiped_slack"] = worst_pp
    # an infinite slack means no set had two elements: nothing was checked
    checks.add("parallelepiped count >= delta^4 |A|^4", worst_pp, 0.0, 0.0 <= worst_pp < math.inf)
    return {"N": N, "d": d, "n_functions": n_functions}, results


def _task_entropy(checks, *, datum="loomis_whitney_2", resolution=256, tol=1e-3, seed=None):
    datum = _datum_from_spec(datum)
    bl = bl_gaussian_constant(datum).value
    d = datum.ambient_dim
    grid = (((-8.0, 8.0),) * d, (resolution,) * d)
    product = gaussian_grid(np.eye(d), *grid)
    densities = {
        "product_gaussian": product,
        "correlated_gaussian": gaussian_grid(np.linalg.inv(np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d))), *grid),
        "indicator": GridFunction.indicator_box(((0.0, 2.0),) * d, *grid),
        "mixture": GridFunction(*grid, product.values + 0.5 * gaussian_grid(2.0 * np.eye(d), *grid).values),
    }
    results = {}
    worst = math.inf
    for name, f in densities.items():
        m = entropic_bl_margin(f, datum, bl)
        results[name] = {"shannon_margin": m}
        worst = min(worst, m)
    checks.add("entropic margins >= -tol", worst, tol, worst >= -tol)
    theta = [1.0 / datum.k] * datum.k
    f = densities["correlated_gaussian"]
    m_sh = results["correlated_gaussian"]["shannon_margin"]
    slopes = []
    for eps in (1e-2, 1e-3):
        params = derive_adjoint_exponents(datum.exponents, theta, 1.0 - eps)
        m_p = renyi_bl_margin(f, datum, params, bl)
        slopes.append((m_p - m_sh) / eps)
    results["renyi_slopes"] = slopes
    slope_consistency = abs(slopes[0] - slopes[1]) / max(1e-12, abs(slopes[1]))
    checks.at_most("Renyi->Shannon slope consistency", slope_consistency, 0.5)
    fd = power_curvature_fd(Fraction(1, 4))
    err = abs(fd - power_curvature_exact(Fraction(1, 4)))
    results["curvature_fd"] = fd
    checks.at_most("curvature counterexample to 1e-12", err, 1e-12)
    probe = p_entropy_probe(GridFunction.indicator_box(((0.0, 1.5),) * d, *grid), 0.5, datum, bl_value=bl)
    results["indicator_probe"] = probe
    checks.at_most("indicator probe <= tol", probe, tol)
    return {"resolution": resolution, "tol": tol}, results


def _task_perturbation(
    checks, *, datum="loomis_whitney_2", theta=(0.9, 0.1), p=0.5, resolutions=(512, 1024), stability_tol=0.05,
    seed=None,
):
    datum = _datum_from_spec(datum)
    params = derive_adjoint_exponents(datum.exponents, theta, p)
    d = datum.ambient_dim
    coeffs = []
    for n in resolutions:
        spec = GridSpec(box=((-8.0, 8.0),) * d, resolution=(int(n),) * d)
        coeffs.append(perturbation_gap(datum, params, grid=spec))
    stability = abs(coeffs[0].coefficient - coeffs[-1].coefficient) / abs(coeffs[-1].coefficient)
    results = {
        "coefficients": [c.coefficient for c in coeffs],
        "stability": stability,
        "radius": coeffs[-1].radius,
        "direct_ratio_delta": coeffs[-1].direct_ratio_delta,
    }
    checks.add("first-order coefficient > 0", coeffs[-1].coefficient, 0.0, coeffs[-1].coefficient > 0)
    checks.at_most("stability across resolutions", stability, stability_tol)
    return {"theta": theta, "p": p, "resolutions": resolutions}, results


# task -> handler, or (variant key, {value: handler}) whose first value is
# the default variant
_HANDLERS = {
    "gaussian-bl": _task_gaussian_bl,
    "adjoint-gaussian": _task_adjoint_gaussian,
    "identity-ai": _task_identity_ai,
    "adjoint-verify": ("functions", {"random": _verify_random, "equality-cases": _verify_equality_cases}),
    "discrete": _task_discrete,
    "tomography": ("check", {
        "lower-bound-suite": _tomography_suite,
        "gamma-constant": _tomography_gamma,
        "restricted": _tomography_restricted,
    }),
    "gowers": _task_gowers,
    "entropy": _task_entropy,
    "perturbation": _task_perturbation,
}


def _scenario_keys(handler):
    """(every key, required keys) of a handler: its keyword-only parameters."""
    params = [p for p in inspect.signature(handler).parameters.values() if p.kind is p.KEYWORD_ONLY]
    return frozenset(p.name for p in params), frozenset(p.name for p in params if p.default is p.empty)


_SCENARIO_KEYS = {
    handler: _scenario_keys(handler)
    for entry in _HANDLERS.values()
    for handler in (entry[1].values() if isinstance(entry, tuple) else (entry,))
}


def _route(scn):
    """A scenario's handler, and the keys and values that chose it: task and variant."""
    task = scn["task"]
    entry = _HANDLERS[task]
    if not isinstance(entry, tuple):
        return entry, {"task": task}
    key, variants = entry
    value = scn[key] if key in scn else next(iter(variants))
    if value not in variants:
        raise SchemaError(f"scenario violates the schema at $.{key}: {value!r} is not one of {list(variants)}")
    return variants[value], {"task": task, key: value}


def validate_scenario(scn):
    _conform("scenario", scn)  # the schema's task enum is the handler registry
    handler, route = _route(scn)
    keys, required = _SCENARIO_KEYS[handler]
    label = ", ".join(f"{key} {value!r}" for key, value in route.items())
    unknown = [key for key in scn if key not in keys and key not in route]
    if unknown:
        allowed = list(route) + sorted(keys)
        raise SchemaError(f"scenario violates the schema at $: {unknown[0]!r} is not one of {allowed} ({label})")
    missing = sorted(required - scn.keys())
    if missing:
        raise SchemaError(f"scenario violates the schema at $: {missing[0]!r} is a required property ({label})")
    return scn


@functools.cache
def _key_casts(array=None):
    """scenario key (or key of an item of the top-level ``array``) -> its cast,
    by its schema type: ``int`` for an integer (the schema admits 16.0),
    ``_parse_number`` for a number or a fraction string (null stays None)."""
    props = _validator("scenario").schema["properties"]
    if array is not None:
        props = props[array]["items"]["properties"]
    return {
        key: int if prop.get("type") == "integer" else _parse_number
        for key, prop in props.items()
        if prop.get("type") in ("integer", ["number", "string"], ["number", "string", "null"])
    }


def _cast(keys, casts, path="$"):
    """``keys``, at ``path`` of the scenario, with each non-null value of a key in ``casts`` cast."""
    return {
        key: value if key not in casts or value is None
        else int(value) if casts[key] is int else _parse_number(value, f"{path}.{key}")
        for key, value in keys.items()
    }


def _conform(name, instance):
    """Raise a one-line SchemaError unless ``instance`` matches schema ``name``."""
    import jsonschema  # imported on first use: it is slow to import

    try:
        error = jsonschema.exceptions.best_match(_validator(name).iter_errors(instance))
    except Exception as exc:
        raise SchemaError(f"{name} violates the schema: {exc}") from exc
    if error is not None:
        raise SchemaError(f"{name} violates the schema at {error.json_path}: {error.message}") from error


@functools.cache
def _validator(name):
    """The validator of schema ``name``, built on first use.

    Same instance checks and errors as ``jsonschema.validate``, without its
    check of the schema itself against the metaschema: the shipped schemas
    are checked once, by ``tests/test_cli.py``.
    """
    import jsonschema

    schema = _load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def _load_schema(name):
    import importlib.resources as res

    with res.files("blq.schemas").joinpath(f"{name}.schema.json").open() as fh:
        return json.load(fh)


def run_scenario(scenario, seed_override=None) -> RunReport:
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
    inputs_echo = dict(scn)
    checks = _Checks()
    handler, route = _route(scn)
    kwargs = _cast({key: value for key, value in scn.items() if key not in route}, _key_casts())
    try:
        extra_inputs, results = handler(checks, **kwargs)
        inputs_echo.update(extra_inputs)
    except SchemaError:
        raise
    except Exception as exc:
        # engine errors surface in the report with task context; the partial
        # report is still written and the run exits non-zero
        results = {"error": f"{type(exc).__name__}: {exc}"}
        checks = _Checks()
        checks.flag("task completed", False)
    return RunReport(
        task=scn["task"],
        inputs=inputs_echo,
        results=results,
        assertions=checks.entries,
        wall_time_s=time.perf_counter() - t0,
        measured_s=checks.measured_s,
    )


def _resolve_scenario_path(name):
    p = Path(name)
    if p.exists():
        return p
    candidate = Path("scenarios") / f"{name}.json"
    if candidate.exists():
        return candidate
    raise SchemaError(f"scenario {name!r} not found (tried {p} and {candidate})")


def _write_report(report, path, out_dir):
    """Write ``report`` to ``<out_dir>/<stem of path>.report.json`` and return that path."""
    dest = Path(out_dir) / f"{Path(path).stem}.report.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    emit_report(report, dest)
    return dest


def _cmd_run(args):
    path = _resolve_scenario_path(args.scenario)
    report = run_scenario(path, seed_override=args.seed)
    dest = _write_report(report, path, args.out)
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
    for path in paths:
        try:
            report = run_scenario(path)
            _write_report(report, path, args.out)
            n_pass = sum(a["passed"] for a in report.assertions)
            status = "PASS" if report.passed else "FAIL"
            rows.append((path.name, report.task, f"{n_pass}/{len(report.assertions)}", f"{report.wall_time_s:.2f}s", status))
        except BLQError as exc:
            rows.append((path.name, "-", "-", "-", f"ERROR: {exc}"))
    header = ("scenario", "task", "asserts", "time", "status")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(5)]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return 0 if all(r[-1] == "PASS" for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blq", description="Brascamp-Lieb scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", help="path or scenarios/<name>.json stem")
    p_run.add_argument("--out", default=".", help="report output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=_cmd_run)
    p_suite = sub.add_parser("suite", help="run every scenario in a directory")
    p_suite.add_argument("directory")
    p_suite.add_argument("--out", default=".")
    p_suite.set_defaults(func=_cmd_suite)
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BLQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader left (``blq run ... | head``) after the reports were written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
