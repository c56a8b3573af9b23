"""Layer spans recorded from outside the library.

A :class:`Tracer` swaps the public functions of each ``blq`` layer for timing
wrappers.  Every reference to an original function held by a loaded ``blq``
module is replaced (the defining module, names ``blq.cli`` and others import
with ``from .x import f``, and the package re-exports), so calls through any
of them are recorded.  ``uninstall`` puts every original back.

A span is (name, start, end, parent index), kept in memory; self time is a
span's duration minus the durations of its child spans.  Counts marked
"computed" are derived from call arguments (cells binned, interpolation
points evaluated), not measured, and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MARK = "__perfbench_span__"


def _grid_pushforward(tracer, bound, result):
    f, B, target = bound["f"], np.asarray(bound["B"], dtype=float), bound["target"]
    tracer.counters["grid.pushforward.cells"] += int(f.values.size)
    tracer.geometries.add((f.box, f.resolution, B.shape, B.tobytes(), target))


def _gaussian_bl(tracer, bound, result):
    datum = bound["datum"]
    tracer.counters["gaussian.bl.iters"] += int(result.iterations)
    tracer.counters["gaussian.bl.nonconverged"] += int(not result.converged)
    tracer.data.add((tuple(np.asarray(b).tobytes() for b in datum.maps), tuple(datum.exponents)))


def _gaussian_quotient(tracer, bound, result):
    tracer.counters["gaussian.quotient.iters"] += int(result.iterations)


def _xray(tracer, bound, result):
    if bound["method"] != "sample":
        return
    f = bound["f"]
    d = f.dim
    n_dirs = len(result.weights)
    radius = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in f.box))
    n_v = len(result.offsets_axes[0])
    step = bound["line_step"] or (min(f.cell_sizes) / 2.0)
    n_t = int(math.ceil(2.0 * radius / step))
    tracer.counters["tomography.xray_sample.dirs"] += n_dirs
    tracer.counters["tomography.xray_sample.points"] += n_dirs * n_v ** (d - 1) * (n_t + 1)


def _subgroups(tracer, bound, result):
    tracer.counters["discrete.subgroups"] += len(result)


XRAY_SPANS = {"sample": "tomography.xray_sample", "deposit": "tomography.xray_deposit"}


def _xray_name(bound):
    return XRAY_SPANS[bound["method"]]


# (module, attribute, span name or callable(bound args) -> name, counter hook)
LAYER_FUNCTIONS = (
    ("blq.grid", "grid_pushforward", "grid.pushforward", _grid_pushforward),
    ("blq.grid", "adjoint_margin", "grid.adjoint_margin", None),
    ("blq.grid", "lp_norm", "grid.lp_norm", None),
    ("blq.grid", "GridFunction.refine", "grid.refine", None),
    ("blq.grid", "random_grid_function", "grid.random_function", None),
    ("blq.gaussian", "bl_gaussian_constant", "gaussian.bl", _gaussian_bl),
    ("blq.gaussian", "quotient_supremum", "gaussian.quotient", _gaussian_quotient),
    ("blq.gaussian", "abl_gaussian_constant", "gaussian.abl", None),
    ("blq.gaussian", "identity_ai_residual", "gaussian.identity", None),
    ("blq.gaussian", "perturbation_gap", "gaussian.perturbation", None),
    ("blq.tomography", "xray_transform", _xray_name, _xray),
    ("blq.tomography", "kplane_transform", "tomography.kplane", None),
    ("blq.tomography", "restricted_xray_constant", "tomography.restricted_mc", None),
    ("blq.tomography", "lower_bound_margin_from_tomograms", "tomography.margin", None),
    ("blq.tomography", "tomography_lower_bound_margin", "tomography.margin", None),
    ("blq.tomography", "xx_constant_via_mc", "tomography.gamma_mc", None),
    ("blq.discrete", "bls_constant", "discrete.bls", None),
    ("blq.discrete", "abls_constant", "discrete.abls", None),
    ("blq.discrete", "discrete_adjoint_margin", "discrete.margin", None),
    ("blq.discrete", "enumerate_subgroups", "discrete.enumerate", _subgroups),
    ("blq.gowers", "gowers_logconvexity_margin", "gowers.margin", None),
    ("blq.gowers", "parallelogram_count", "gowers.counts", None),
    ("blq.gowers", "parallelepiped_count", "gowers.counts", None),
    ("blq.entropy", "entropic_bl_margin", "entropy.margin", None),
    ("blq.entropy", "renyi_bl_margin", "entropy.margin", None),
    ("blq.entropy", "p_entropy_probe", "entropy.margin", None),
    ("blq.data", "validate_datum", "data.validate", None),
    ("blq.catalog", "named_datum", "catalog.generate", None),
    ("blq.catalog", "conjugate_datum", "catalog.generate", None),
    ("blq.catalog", "seeded_feasible_data", "catalog.generate", None),
    ("blq.catalog", "random_adjoint_draws", "catalog.generate", None),
    ("blq.catalog", "discrete_instances", "catalog.generate", None),
    ("blq.cli", "run_scenario", "cli.handler", None),
    ("blq.cli", "validate_scenario", "cli.validate", None),
    ("blq.cli", "emit_report", "cli.emit_report", None),
)

# counts that depend only on the inputs; two traced runs of one seed must agree
COMPUTED_COUNTS = (
    "grid.pushforward.calls",
    "grid.pushforward.cells",
    "gaussian.bl.calls",
    "gaussian.bl.iters",
    "gaussian.quotient.calls",
    "gaussian.quotient.iters",
    "tomography.xray_sample.calls",
    "tomography.xray_sample.dirs",
    "tomography.xray_sample.points",
    "discrete.subgroups",
)

SELF_TIME_SPANS = tuple(
    dict.fromkeys(
        span
        for _, _, name, _ in LAYER_FUNCTIONS
        for span in ((name,) if isinstance(name, str) else XRAY_SPANS.values())
    )
)


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def blq_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "blq" or n.startswith("blq.")]


def installed_wrappers():
    """Names of blq attributes that are currently timing wrappers."""
    found = []
    for mod in blq_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                found.extend(
                    f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, MARK)
                )
    return found


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.geometries = set()
        self.data = set()
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, fn, name, hook):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        needs_args = hook is not None or callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                b = signature.bind(*args, **kwargs)
                b.apply_defaults()
                bound = b.arguments
            span = [name(bound) if callable(name) else name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"error.{span[0]}.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, bound, result)
            return result

        setattr(wrapper, MARK, name if isinstance(name, str) else fn.__name__)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = blq_modules()
        for module_name, attr, name, hook in LAYER_FUNCTIONS:
            owner, key = _resolve(module_name, attr)
            original = vars(owner)[key]
            wrapper = self._wrap(original, name, hook)
            if inspect.isclass(owner):
                self._patched.append((owner, key, original))
                setattr(owner, key, wrapper)
                continue
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is original:
                        self._patched.append((mod, k, original))
                        setattr(mod, k, wrapper)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self, wall_s):
        """Per-layer totals for spans recorded during ``wall_s`` seconds."""
        calls = Counter()
        child = defaultdict(float)
        root_time = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            if parent < 0:
                root_time += dur
            else:
                child[parent] += dur
        self_time = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        out = {f"{name}.self_s": self_time[name] for name in SELF_TIME_SPANS}
        for name in ("grid.pushforward", "gaussian.bl", "gaussian.quotient", "tomography.xray_sample"):
            out[f"{name}.calls"] = calls[name]
        for key in (
            "grid.pushforward.cells",
            "gaussian.bl.iters",
            "gaussian.bl.nonconverged",
            "gaussian.quotient.iters",
            "tomography.xray_sample.dirs",
            "tomography.xray_sample.points",
            "discrete.subgroups",
        ):
            out[key] = self.counters[key]
        out["grid.coverage_errors"] = self.counters["error.grid.pushforward.CoverageError"]
        out["grid.pushforward.unique_geom_frac"] = _frac(len(self.geometries), calls["grid.pushforward"])
        out["gaussian.bl.unique_datum_frac"] = _frac(len(self.data), calls["gaussian.bl"])
        out["trace.spans"] = len(self.spans)
        out["trace.unattributed_frac"] = 1.0 - root_time / wall_s if wall_s > 0 else 0.0
        return out


def _frac(num, den):
    return num / den if den else 0.0
