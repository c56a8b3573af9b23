"""One pass of a workload in a fresh process: every report, once, in order.

Run by ``run.py``; prints one JSON object on stdout.  ``setup_s`` runs from
the first line of this file to the point where ``blq.cli`` is imported and
the workload's scenario dicts are built.  The pass is a closed loop with one
client: each report is produced and serialized before the next starts.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_pass(items, tracer=None):
    """Produce every report of ``items`` ([(label, scenario, seed_override)]).

    With a tracer the layer wrappers are installed for the reports only and
    removed afterwards.
    """
    import blq.cli
    import spans

    if tracer is not None:
        tracer.install()
    try:
        wrappers = spans.installed_wrappers()
        reports = []
        t_pass = time.perf_counter()
        for label, scenario, seed_override in items:
            t0 = time.perf_counter()
            error = None
            try:
                report = blq.cli.run_scenario(scenario, seed_override=seed_override)
                text = blq.cli.emit_report(report)
                passed = report.passed
            except Exception:  # a failed report is counted, the pass goes on
                text, passed, error = "", False, traceback.format_exc()
            dt = time.perf_counter() - t0
            reports.append(
                {
                    "label": label,
                    "seconds": dt,
                    "passed": bool(passed),
                    "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                    "error": error,
                }
            )
        wall = time.perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall_s": wall,
        "reports": reports,
        "wrappers_during_pass": len(wrappers),
        "wrappers_after_pass": len(spans.installed_wrappers()),
    }


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None, help="write the raw spans here (traced pass)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    import blq.cli

    if Path(blq.cli.__file__).resolve().parent != root / "src" / "blq":
        raise SystemExit(f"blq was imported from {blq.cli.__file__}, not from this checkout")
    import workloads

    items = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s, "env": environment()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        out.update(run_pass(items, tracer))
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(out["wall_s"])
            out["errors"] = {k: v for k, v in tracer.counters.items() if k.startswith("error.")}
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(tracer.spans))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
