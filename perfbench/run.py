"""Wall-clock benchmark of the skyline library.

Run from the repository root::

    python3 perfbench/run.py --workload batch-anti --seed 1 --seconds 10 --trace 0

Workloads: ``batch-anti``, ``batch-procs``, ``serve-mixed`` (see
``perfbench/workloads.py``). Every run sets up from the seed, times a
fixed amount of work sized to take about ``--seconds`` on the reference
host, then checks every output against a reference computed by
another code path.

``--trace 0`` sets up five times (``setup_s`` is the median) and
prints the end-to-end metrics of untraced calls. ``--trace 1`` runs an
untraced phase, then a traced one, prints the per-layer metrics and
writes every span to ``.perfbench-out/``. Human-readable lines come
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import sys

# The library is imported from source; leave its bytecode caches alone.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import metrics  # noqa: E402
from perfbench.trace import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    BatchWorkload,
    Phase,
    make_workload,
    stop_resource_tracker,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
SPAN_DIR = ".perfbench-out"


def _print_metrics(title: str, values) -> None:
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Wall-clock benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = metrics.host_state()
    untraced = Phase(traced=False)
    traced = Phase(traced=True, recorder=SpanRecorder())
    setup_times = []
    workload = None
    try:
        for _ in range(1 if args.trace else SETUPS):
            if workload is not None:
                workload.teardown()
            workload = make_workload(args.workload, args.seed, args.seconds)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        workload.run(untraced)
        if args.trace:
            workload.run(traced)
    finally:
        if workload is not None:
            workload.teardown()
        stop_resource_tracker()
    peak_mb = metrics.peak_rss_mb()
    failures = workload.check()
    attempted = untraced.calls + traced.calls
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    print(
        f"{args.workload} seed {args.seed}: {untraced.calls} untraced calls "
        f"in {untraced.elapsed:.2f} s; host calib {host['calib_ms']:.3f} ms, "
        f"{host['nproc']:.0f} cores, load {host['loadavg']:.2f}"
    )
    print(
        f"  error_rate {len(failures) / attempted:.6g} ratio "
        f"({len(failures)} of {attempted} ops failed)"
    )
    virtual_read_p50_s = 0.0
    if not isinstance(workload, BatchWorkload):
        virtual_read_p50_s = statistics.median(
            r.latency_s for r in workload.frontend.responses
        )
        extra = metrics.serve_latencies(untraced)
        extra["read_virtual_p50_ms"] = (1e3 * virtual_read_p50_s, "ms")
        _print_metrics("serve latencies (untraced)", extra)

    if args.trace:
        values = metrics.per_layer(
            untraced,
            traced,
            processes=getattr(workload, "processes", False),
            virtual_read_p50_s=virtual_read_p50_s,
            host=host,
        )
        os.makedirs(os.path.join(ROOT, SPAN_DIR), exist_ok=True)
        span_file = os.path.join(
            ROOT, SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.json"
        )
        traced.recorder.write(
            span_file, {"workload": args.workload, "seed": args.seed}
        )
        _print_metrics(f"per-layer metrics (spans: {span_file})", values)
    else:
        values = metrics.end_to_end(untraced, setup_times, peak_mb)
        _print_metrics("end-to-end metrics", values)

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
