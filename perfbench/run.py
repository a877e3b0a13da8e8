"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from anywhere; the checkout root is the parent of this directory)::

    python3 perfbench/run.py --workload index_batch --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``index_batch`` - pinned ``cutting`` ``run_batch`` calls of 50 specs,
  in process, ANTI n=50k d=3;
* ``oneshot`` - warm one-shot ``run`` calls, in process, INDE n=50k d=4;
* ``service_mixed`` - two TCP clients mixing queries and durable updates
  against a 2-shard service on ANTI n=20k d=3.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the untraced window too (for ``trace.overhead_frac``)
and then a traced phase whose spans give the per-layer metrics
(``layers.PER_LAYER``).  Every answer is checked against an independent
reference; any failed or disagreeing operation makes ``correct`` false and
the exit code 1.  Report lines start with ``#``; the last line is the JSON
result.  Exit code 2 means the program under test is missing or the
arguments are invalid, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Dict, NoReturn, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The end-to-end metrics of the JSON result line: the ones every workload
#: yields, never 0 and steady from run to run.  The others are printed on
#: the report lines: the p95s need 200 samples, the update latencies exist
#: only in service_mixed, failed_frac is the result's failed/attempted, and
#: in service_mixed two spread too widely to gate: the peak resident set
#: has jumped by a quarter in some runs (whenever the two connections'
#: queries coalesce into a window just under the kernel memory cap), and
#: queries_per_s spread by 0.15 to 0.25 over ten seeds.
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
)


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(workload) -> Dict[str, object]:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "workload": workload.name,
        "why": workload.why,
    }


def end_to_end(outcome) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric, JSON-gated or not, with its sample count.

    ``value`` is ``None`` where the metric does not apply (update latencies
    outside ``service_mixed``) or has too few samples (p95 under 200).
    """
    from workloads import P95_MIN_SAMPLES, percentile_ms

    def latency(samples, q):
        if not samples or (q > 50 and len(samples) < P95_MIN_SAMPLES):
            return None
        return percentile_ms(samples, q)

    queries, updates = outcome.query_ns, outcome.update_ns
    return {
        "setup_s": {
            "value": statistics.median(outcome.setup_s) if outcome.setup_s else None,
            "unit": "s", "samples": len(outcome.setup_s),
        },
        "query_p50_ms": {"value": latency(queries, 50), "unit": "ms", "samples": len(queries)},
        "query_p95_ms": {"value": latency(queries, 95), "unit": "ms", "samples": len(queries)},
        "queries_per_s": {
            "value": outcome.queries_per_s, "unit": "1/s",
            "samples": f"{outcome.specs} specs in {outcome.window_ns * 1e-9:.3f} s",
        },
        "update_p50_ms": {"value": latency(updates, 50), "unit": "ms", "samples": len(updates)},
        "update_p95_ms": {"value": latency(updates, 95), "unit": "ms", "samples": len(updates)},
        "failed_frac": {
            "value": outcome.failed / outcome.attempted if outcome.attempted else None,
            "unit": "ratio", "samples": f"{outcome.failed} of {outcome.attempted} operations",
        },
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MiB", "samples": outcome.rss_source},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    # Pin the shipped defaults: no REPRO_* knob reaches this process or the
    # server and shard processes it starts.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import layers
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    # WAL, snapshots and span files live inside the checkout, on the same
    # filesystem in every run.
    state_dir = os.path.join(HERE, ".state", f"run-{os.getpid()}")
    os.makedirs(state_dir, exist_ok=True)
    try:
        if workload.name == "service_mixed":
            outcome = workloads.run_service(
                workload, args.seed, args.seconds, bool(args.trace), ROOT, state_dir
            )
        else:
            outcome = workloads.run_inprocess(
                workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# provenance " + json.dumps(provenance(workload)))
    e2e = end_to_end(outcome)
    for name, metric in e2e.items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"# {name} = {value} {metric['unit']} ({metric['samples']})")
    if outcome.layer is not None:
        for name, unit, _ in layers.PER_LAYER:
            print(f"# {name} = {outcome.layer[name]:.6g} {unit}")
    for problem in outcome.problems:
        print(f"# problem: {problem}")

    if args.trace:
        metrics = {
            name: {"value": outcome.layer[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": e2e[name]["value"], "unit": unit} for name, unit in END_TO_END
        }
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
