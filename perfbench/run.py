"""End-to-end benchmark of crosscap, stdlib only.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ./src, never
from an installed copy, and the run fails (exit 2) when ./src/crosscap is
missing.  Workloads are defined in workloads.py; BENCHMARK.json at the root
lists them with the metrics and their bounds.

Load is a closed loop with one client in one process, since callers of the
library wait for each answer.  A run with --trace 0 starts the workload's
number of fresh worker processes one after another, each with an equal
share of --seconds.  Each imports crosscap, runs the workload's
`verify-lemma` invocations cold, runs the warm-up the batch needs, then
runs whole blocks of its own part of the seeded stream of single
operations until its share is spent.  setup_s (import plus warm-up) and
verdict_s are medians over the processes; ops_per_s, op_p50_ms and op_p95_ms come from the latencies of
all their operations together, and peak_rss_mb is the largest ru_maxrss of
the processes.  Times are given at the nominal host speed of speed.py:
wall time rescaled by a reference loop timed all through each process, so
that the speed other tenants leave to the run drops out.  The report line
gives the wall-time figures beside them.  A run with --trace 1 starts one
traced worker instead and reports the per-layer metrics, including the
tracer's own overhead, in wall time.

Every output is checked by checker.py, which does not import crosscap.
The last line of stdout is the result JSON; the line before it is a report
with the run context, failure counts and sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracer import LAYER_METRICS
from workloads import WORKLOADS, input_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every run must end within 180 s; leave room for start-up and reporting
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunError(RuntimeError):
    """A worker process did not produce a result."""


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise RunError("run time budget spent")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(spec),
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker ({spec['mode']}) exceeded the run time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker ({spec['mode']}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(base: dict, deadline: float) -> tuple[dict, list[dict], dict]:
    processes = WORKLOADS[base["workload"]].processes
    pass_seconds = base["seconds"] / processes
    samples = [
        spawn({**base, "mode": "run", "part": part, "processes": processes,
               "pass_seconds": pass_seconds, "goldens": part == 0}, deadline)
        for part in range(processes)
    ]
    verdicts = [s["verdict"] for s in samples if s["verdict"] is not None]
    # an operation that failed is left out of the latencies; it is counted in
    # `failed`
    latencies = sorted(x for s in samples for x in s["latencies"] if x is not None)
    walls = sorted(x for s in samples for x in s["latencies_wall"] if x is not None)
    if not verdicts or not latencies:
        raise RunError("no verdict or no batch operation completed")
    rank = math.ceil(0.95 * len(latencies))

    def figures(kind: str, ops: list[float]) -> dict:
        return {
            "setup_s": statistics.median(s["setup"][kind] for s in samples),
            "verdict_s": statistics.median(v[kind] for v in verdicts),
            "ops_per_s": len(ops) / sum(ops),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_p95_ms": ops[rank - 1] * 1e3,
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        }

    values = figures("nominal", latencies)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    counts = [len(s["latencies"]) for s in samples]
    detail = {
        "processes": len(samples),
        "wall": figures("wall", walls),
        "setup_s_samples": [s["setup"]["nominal"] for s in samples],
        "verdict_s_samples": [v["nominal"] for v in verdicts],
        "import_s_median": statistics.median(s["import_s"] for s in samples),
        "speed_samples": sum(s["speed_samples"] for s in samples),
        "batch_samples": len(latencies),
        "beyond_p95": len(latencies) - rank,
        "inputs_sha256": [
            input_digest(base["workload"], base["seed"], n, part) for part, n in enumerate(counts)
        ],
    }
    return metrics, samples, detail


def traced(base: dict, deadline: float) -> tuple[dict, list[dict], dict]:
    result = spawn({**base, "mode": "trace"}, deadline)
    layers = result["layers"]
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in LAYER_METRICS}
    count = WORKLOADS[base["workload"]].trace_ops
    detail = {
        "trace_ops": count,
        "spans": result["spans"],
        "inputs_sha256": input_digest(base["workload"], base["seed"], count),
    }
    return metrics, [result], detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "crosscap" / "__init__.py").is_file():
        print(f"perfbench: no crosscap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    base = {
        "root": str(ROOT),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    try:
        metrics, samples, detail = (traced if args.trace else end_to_end)(base, deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    reasons = [r for s in samples for r in s["reasons"]]
    for reason in reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "genera": list(workload.genera),
        "verdicts": [" ".join(v) for v in workload.verdicts],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "failure_reasons": reasons,
        **detail,
    }
    for name, m in metrics.items():
        print(f"perfbench: {workload.name} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(
        f"perfbench: {workload.name} fail_frac = {report['fail_frac']:.6g} "
        f"({failed} of {attempted} failed)",
        file=sys.stderr,
    )
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
