"""Scenario benchmark: time to a verified, byte-stable report.

    python3 perfbench/run.py --workload adjoint-chain --seed 0 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced

Each workload (see ``workloads.py``) is a seeded list of scenario dicts.  A
run repeats passes over the list, each pass in a fresh worker process
(``worker.py``) that imports ``blq`` from ``src/`` of this checkout and
calls ``blq.cli.run_scenario`` and ``blq.cli.emit_report`` for one report
at a time.  Workers run with one BLAS thread and ``BLQ_THREADS`` unset.
Passes continue while the next one fits in ``--seconds`` (at least
``MIN_PASSES``); the tail percentile is taken over the reports of the first
``MIN_PASSES`` passes, so it is the same percentile in every run.  Every report must pass its assertions, and its canonical bytes
must match the reference digest (default seed) or the first pass
(other seeds).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the traced
passes swap the library's layer functions for timing wrappers (``spans.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details and the environment go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_digests.json"

sys.path.insert(0, str(HERE))

MIN_PASSES = 3
RUN_LIMIT_S = 165.0  # a run must end well within the 180 s a run may take
TAIL_BEYOND = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    env.pop("BLQ_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(workload, seed, trace, timeout, setup_only=False, spans_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=max(1.0, timeout)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Passes while the next one fits in ``seconds``, at least MIN_PASSES;
    traced runs alternate untraced and traced passes.

    Returns the passes and the set-up times: one per pass plus, in untraced
    runs, one from a set-up-only process after each pass.
    """
    t0 = time.perf_counter()
    deadline = t0 + RUN_LIMIT_S
    modes = (False, True) if trace else (False,)
    min_passes = 2 if trace else MIN_PASSES
    passes, setups = [], []
    while True:
        traced = modes[len(passes) % len(modes)]
        spans_out = OUT_DIR / f"{workload}-seed{seed}.spans.json" if traced else None
        result = run_worker(workload, seed, traced, deadline - time.perf_counter(), spans_out=spans_out)
        result["traced"] = traced
        passes.append(result)
        setups.append(result["setup_s"])
        if not trace:
            probe = run_worker(workload, seed, False, deadline - time.perf_counter(), setup_only=True)
            setups.append(probe["setup_s"])
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and len(passes) % len(modes) == 0:
            next_end = elapsed * (len(passes) + len(modes)) / len(passes)
            if next_end > min(seconds, RUN_LIMIT_S - 20.0):
                return passes, setups


def load_reference():
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["workloads"]


def check_digests(workload, seed, passes):
    """Labels whose bytes differ from the reference (default seed) or from
    the first pass (other seeds), one entry per mismatching report."""
    import workloads

    if seed == workloads.DEFAULT_SEED:
        expected = load_reference().get(workload, {})
        compared = passes
    else:
        expected = {r["label"]: r["sha256"] for r in passes[0]["reports"]}
        compared = passes[1:]
    return [
        r["label"]
        for p in compared
        for r in p["reports"]
        if expected.get(r["label"]) != r["sha256"]
    ]


def tail(samples):
    """(value, percentile, n): the sample with TAIL_BEYOND samples above it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(passes, setups):
    times = [r["seconds"] for p in passes for r in p["reports"]]
    # a fixed pool, so that the tail percentile is the same in every run
    tail_value, tail_pct, tail_n = tail([r["seconds"] for p in passes[:MIN_PASSES] for r in p["reports"]])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "report_p50_s": (statistics.median(times), "s"),
        "report_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    detail = {
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "setup_samples": setups,
    }
    return metrics, detail


def per_layer(passes):
    import spans

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = traced[0]["layers"]
    metrics = {}
    for key in layers:
        values = [p["layers"][key] for p in traced]
        unit = "s" if key.endswith("_s") else ("frac" if key.endswith("_frac") else "count")
        metrics[key] = (statistics.median(values), unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    repeat = all(p["layers"][k] == layers[k] for p in traced for k in spans.COMPUTED_COUNTS)
    return metrics, {"computed_counts_repeat": repeat, "errors": traced[0].get("errors", {})}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blq").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(worker_env_info):
    env = worker_env()
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        **worker_env_info,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {k: env[k] for k in BLAS_ENV},
        "BLQ_THREADS": env.get("BLQ_THREADS"),
    }


def measure(workload, seed, seconds, trace):
    import workloads

    passes, setups = run_passes(workload, seed, seconds, trace)
    reports = [r for p in passes for r in p["reports"]]
    failed = [r for r in reports if not r["passed"]]
    mismatched = check_digests(workload, seed, passes)
    unexpected = [m for m in mismatched if m not in workloads.VOLATILE_LABELS]
    hygiene = all(p["wrappers_after_pass"] == 0 for p in passes) and all(
        (p["wrappers_during_pass"] > 0) == p["traced"] for p in passes
    )
    if trace:
        metrics, detail = per_layer(passes)
        counts_repeat = detail["computed_counts_repeat"]
    else:
        metrics, detail = end_to_end(passes, setups)
        counts_repeat = True
    detail.update(
        {
            "passes": len(passes),
            "fail_frac": len(failed) / len(reports),
            "digest_mismatch": len(mismatched),
            "digest_mismatch_labels": sorted(set(mismatched)),
            "digest_reference": "reference file" if seed == workloads.DEFAULT_SEED else "first pass",
            "unexpected_digest_mismatch": len(unexpected),
            "wrapper_hygiene": hygiene,
            "failures": [{"label": r["label"], "error": r["error"]} for r in failed],
            "per_pass": [
                {
                    **{k: p[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mb")},
                    "report_s": [r["seconds"] for r in p["reports"]],
                }
                for p in passes
            ],
        }
    )
    correct = not failed and not unexpected and hygiene and counts_repeat
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "attempted": len(reports),
        "failed": len(failed),
        "metrics": metrics,
        "detail": detail,
        "env": environment(passes[0]["env"]),
    }


def print_result(res):
    d = res["detail"]
    print(f"== {res['workload']} seed {res['seed']} trace {res['trace']}: {d['passes']} passes, "
          f"{res['attempted']} reports, correct={res['correct']}")
    rows = sorted(res["metrics"].items())
    if res["trace"]:
        rows.sort(key=lambda kv: (kv[1][1] != "s", -kv[1][0] if kv[1][1] == "s" else 0, kv[0]))
    for name, (value, unit) in rows:
        note = ""
        if name == "report_tail_s":
            note = f"  (p{d['tail_percentile']:.1f} of {d['tail_samples']} reports, first {MIN_PASSES} passes)"
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    print(f"  {'fail_frac':36s} {d['fail_frac']:14.6g} frac  ({res['failed']} of {res['attempted']})")
    print(f"  {'digest_mismatch':36s} {d['digest_mismatch']:14d} count (vs {d['digest_reference']}; "
          f"unexpected {d['unexpected_digest_mismatch']}; labels {d['digest_mismatch_labels']})")
    for f in d["failures"][:5]:
        print(f"  FAILED {f['label']}: {(f['error'] or 'assertion failed').strip().splitlines()[-1]}")


def save(res):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True))


def summary(results):
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}/"
        for name, (value, unit) in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def record_digests(seed):
    """Write the reference digests from one pass of every workload."""
    import workloads

    out = {}
    for workload in workloads.WORKLOADS:
        p = run_worker(workload, seed, False, RUN_LIMIT_S)
        bad = [r["label"] for r in p["reports"] if not r["passed"]]
        if bad:
            raise BenchError(f"{workload}: reports failed, not recording: {bad}")
        out[workload] = {r["label"]: r["sha256"] for r in p["reports"]}
    REFERENCE.write_text(json.dumps({"seed": seed, "workloads": out}, indent=1, sort_keys=True) + "\n")


def record_pool():
    """Redraw the adjoint pool (``workloads.py``), then the digests."""
    import workloads

    cmd = [sys.executable, str(HERE / "workloads.py"), "--record-pool"]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=1800)
    if proc.returncode != 0:
        raise BenchError(f"recording the pool exited with {proc.returncode}")
    record_digests(workloads.DEFAULT_SEED)


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None):
    import workloads

    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help=f"one of {list(workloads.WORKLOADS)} or 'all'")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite reference_digests.json from the default seed")
    parser.add_argument("--record-pool", action="store_true",
                        help="redraw adjoint_pool.json, then rewrite reference_digests.json")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "blq" / "cli.py").is_file():
        print(f"error: no blq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_pool:
            record_pool()
            return 0
        if args.record_digests:
            record_digests(workloads.DEFAULT_SEED)
            return 0
        if args.workload == "all":
            jobs = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
        else:
            jobs = [(args.workload, args.trace)]
        results = []
        for workload, trace in jobs:
            res = measure(workload, args.seed, args.seconds, trace)
            save(res)
            print_result(res)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[0]["env"], sort_keys=True))
    print(json.dumps(summary(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
