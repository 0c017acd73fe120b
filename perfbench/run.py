"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload olap_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics.  A table of every
metric goes to standard error; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (resolved configuration, sample counts, the per-layer table) are
written to ``perfbench/out/<workload>-trace<0|1>.json`` and the spans of a
traced run to ``perfbench/out/<workload>-spans.jsonl``.

The exit code is 0 when every checked answer was right and every
operation succeeded, 1 when the run measured but found a failure, and 2
when it could not run at all (for instance without the program's
sources).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("olap_cold", "olap_warm", "serve_http")


def pin_configuration() -> Dict[str, str]:
    """Clear every ``REPRO_*`` knob so each run measures the defaults.

    Returns the knobs that were set in the environment, so the result can
    say what was overridden.
    """
    cleared = {}
    for key in sorted(os.environ):
        if key.startswith("REPRO_"):
            cleared[key] = os.environ.pop(key)
    return cleared


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(seed: int, cleared: Dict[str, str]) -> Dict[str, Any]:
    """The resolved program knobs and the machine, for the result file."""
    from repro.analysis.fsck import debug_checks_enabled
    from repro.core.extsort import build_memory_budget
    from repro.obs import tracing_enabled
    from repro.parallel import worker_count
    from repro.rtree.kernels import vector_kernels_enabled
    from repro.rtree.node import leaf_format
    from repro.storage.buffer import column_cache_capacity

    return {
        "seed": seed,
        "repro_env_cleared": cleared,
        "leaf_format": leaf_format(),
        "vector_kernels": vector_kernels_enabled(),
        "column_cache_pages": column_cache_capacity(),
        "workers": worker_count(),
        "build_memory_budget": build_memory_budget(),
        "debug_checks": debug_checks_enabled(),
        "obs_tracing": tracing_enabled(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
    }


def report(name: str, metrics: Dict[str, Any], table: Optional[list]) -> None:
    """Print every metric by name with its unit to standard error."""
    print(f"== perfbench {name} ==", file=sys.stderr)
    targets = {row["metric"]: row["should_move"] for row in table or ()}
    for metric, (value, unit) in metrics.items():
        line = f"  {metric:36s} {value:14.4f} {unit}"
        if metric in targets:
            line += f"   -> {targets[metric]}"
        print(line, file=sys.stderr)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = pin_configuration()
    # A shell that starts this in the background hands it SIGINT ignored,
    # and the server processes it starts would inherit that and not stop
    # on SIGINT (the server's clean shutdown); a handler is reset to the
    # default in a child, an ignored signal is not.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro is not from {src}", file=sys.stderr)
        return 2

    from workloads import OlapWorkload, ServeWorkload

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.workload == "serve_http":
            workload: Any = ServeWorkload(args.seed, args.seconds, ROOT, work)
        else:
            workload = OlapWorkload(args.workload, args.seed, args.seconds)
        result = workload.run_traced() if args.trace else workload.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = result.outcomes
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "configuration": fingerprint(args.seed, cleared),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "error_rate": outcomes.error_rate,
        "failures": outcomes.failures,
        "failure_examples": outcomes.examples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        **result.detail,
    }
    suffix = f"{args.workload}-trace{args.trace}"
    with open(os.path.join(OUT, f"{suffix}.json"), "w") as handle:
        json.dump(detail, handle, indent=2, default=str)
    if result.tracer is not None:
        result.tracer.write_jsonl(
            os.path.join(OUT, f"{args.workload}-spans.jsonl")
        )

    report(args.workload, result.metrics, result.detail.get("layers"))
    print(
        f"  attempted {outcomes.attempted}, failed {outcomes.failed}, "
        f"error_rate {outcomes.error_rate:.6f}",
        file=sys.stderr,
    )
    for example in outcomes.examples:
        print(f"  FAILURE {example}", file=sys.stderr)
    correct = outcomes.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcomes.attempted,
                "failed": outcomes.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
