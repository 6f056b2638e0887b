"""End-to-end and per-layer metrics from timed phases.

End-to-end metrics come from untraced calls only and are defined on
every workload: a batch call is one ``skyline()`` job over the whole
input, a serve call one frontend op, and "latency" is the wall time of
one query (a batch job, or a serve read).

Per-layer metrics come from the traced phase. Layer times are self
seconds per timed call. Where a layer does no work on a workload (the
serve layer on batch runs, the process-pool phases on the serial
engine), the metric is a share of wall time, so that its zero is not
a time.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.mapreduce import counters as counter_names
from repro.serve.workloads import exact_percentile

from perfbench.trace import NAMED_LAYERS
from perfbench.workloads import WORKERS, Phase

Metric = Tuple[float, str]

#: A p99 is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000

PROCESS_PHASES = ("promote", "submit", "transfer", "collect")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def host_state(repeats: int = 15) -> Dict[str, float]:
    """Witnesses of host speed and load, printed beside the metrics and
    never used to normalise one: the median time of a fixed numpy sort,
    the core count and the one-minute load average."""
    values = np.random.default_rng(0).random(200_000)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.sort(values)
        samples.append(time.perf_counter() - t0)
    return {
        "calib_ms": 1e3 * statistics.median(samples),
        "nproc": float(os.cpu_count() or 1),
        "loadavg": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    waited-for child (the worker pool on ``batch-procs``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _query_walls(phase: Phase) -> List[float]:
    if "read" in phase.walls:
        return phase.walls["read"]
    return [wall for walls in phase.walls.values() for wall in walls]


def rate(phase: Phase) -> float:
    """Work per wall second, each class of call taken at its median
    wall time, so that a host hiccup during a few calls does not move
    it (classes: one per batch dataset; serve reads, writes, and writes
    that paid a refresh)."""
    wall = sum(
        len(w) * statistics.median(w) for w in phase.walls.values() if w
    )
    return phase.work / wall


def end_to_end(
    phase: Phase, setup_times: List[float], peak_mb: float
) -> Dict[str, Metric]:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_per_s": (rate(phase), "1/s"),
        "latency_p50_ms": (1e3 * _median(_query_walls(phase)), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def serve_latencies(phase: Phase) -> Dict[str, Metric]:
    """Read and write wall-time percentiles of a serve phase; a p99 is
    left out when fewer than ten samples lie beyond it."""
    walls = phase.walls
    out: Dict[str, Metric] = {}
    for kind, samples in (
        ("read", walls["read"]),
        ("write", walls["write"] + walls["refresh"]),
    ):
        out[f"{kind}_samples"] = (float(len(samples)), "count")
        out[f"{kind}_p50_ms"] = (1e3 * _median(samples), "ms")
        if len(samples) >= P99_MIN_SAMPLES:
            out[f"{kind}_p99_ms"] = (
                1e3 * exact_percentile(samples, 0.99),
                "ms",
            )
    return out


def _total(phase: Phase, counter: str) -> int:
    return sum(p.counters().get(counter) for p in phase.pipelines)


def exact_counts(phase: Phase) -> Dict[str, int]:
    """Counts that repeat exactly for a seed and a fixed amount of work."""
    counts = phase.counts
    return {
        "core.tuple_compares": _total(phase, counter_names.TUPLE_COMPARES)
        + counts["repair_pairs"],
        "grid.partition_compares": _total(
            phase, counter_names.PARTITION_COMPARES
        ),
        "mapreduce.shuffle_bytes": sum(
            p.total_shuffle_bytes() for p in phase.pipelines
        ),
        "serve.index.refreshes": counts["refreshes"],
        "serve.index.repair_pairs": counts["repair_pairs"],
        "serve.cache.hits": counts["cache_hits"],
    }


def _task_s(jobs, kind: str) -> float:
    return sum(t.duration_s for job in jobs for t in getattr(job, kind))


def per_layer(
    untraced: Phase,
    traced: Phase,
    *,
    processes: bool,
    virtual_read_p50_s: float,
    host: Dict[str, float],
) -> Dict[str, Metric]:
    """Per-layer metrics of the traced phase.

    On ``batch-procs`` the parent's wrappers cannot see into the
    workers, so the kernel's time is the skyline job's task time and
    the grid's adds the bitstring job's task time (``TaskStats``).
    """
    recorder = traced.recorder
    calls = traced.calls
    named = recorder.self_times()
    layers = recorder.layer_self_times()
    pipelines = traced.pipelines
    jobs = [job for p in pipelines for job in p.jobs]
    grid_jobs = [job for job in jobs if job.job_name == "bitstring"]
    kernel_jobs = [job for job in jobs if job.job_name != "bitstring"]

    kernel_s = layers.get("core", 0.0)
    grid_s = layers.get("grid", 0.0)
    if processes:
        kernel_s = _task_s(kernel_jobs, "map_tasks")
        kernel_s += _task_s(kernel_jobs, "reduce_tasks")
        grid_s += _task_s(grid_jobs, "map_tasks")
        grid_s += _task_s(grid_jobs, "reduce_tasks")
    counts = exact_counts(traced)
    compares = counts["core.tuple_compares"]
    rows_mapped = sum(t.records_in for job in kernel_jobs for t in job.map_tasks)

    bitstring_walls = recorder.durations("mapreduce.job.bitstring")
    skyline_walls = recorder.durations("mapreduce.job.gpmrs-skyline")
    job_wall = sum(bitstring_walls) + sum(skyline_walls)
    task_s = _task_s(jobs, "map_tasks") + _task_s(jobs, "reduce_tasks")
    workers = WORKERS if processes else 1

    def job_share(phase_name: str) -> float:
        spent = sum(p.get(f"{phase_name}_s", 0.0) for p in traced.job_phases)
        return spent / job_wall if job_wall else 0.0

    def wall_share(prefix: str) -> float:
        spent = sum(s for n, (s, _k) in named.items() if n.startswith(prefix))
        return spent / traced.elapsed

    simulated = _median(p.simulated_s for p in pipelines)
    pipeline_wall = _median(recorder.durations("pipeline.skyline"))
    read_wall = _median(untraced.walls.get("read", []))
    hits = traced.counts["cache_hits"]
    lookups = hits + traced.counts["cache_misses"]
    covered = sum(layers.get(layer, 0.0) for layer in NAMED_LAYERS)

    metrics: Dict[str, Metric] = {
        "core.kernel_s": (kernel_s / calls, "s"),
        "core.kernel_calls": (recorder.entry_calls("core") / calls, "count"),
        "core.tuple_compares": (compares / calls, "count"),
        "core.pairs_per_s": (compares / kernel_s if kernel_s else 0.0, "1/s"),
        "grid.s": (grid_s / calls, "s"),
        "grid.pruned_fraction": (
            _total(traced, counter_names.TUPLES_PRUNED_BY_BITSTRING)
            / rows_mapped
            if rows_mapped
            else 0.0,
            "share",
        ),
        "grid.partition_compares": (
            counts["grid.partition_compares"] / calls,
            "count",
        ),
        "mapreduce.self_s": (layers.get("mapreduce", 0.0) / calls, "s"),
        "mapreduce.job_s.bitstring": (_median(bitstring_walls), "s"),
        "mapreduce.job_s.skyline": (_median(skyline_walls), "s"),
        "mapreduce.map_task_s": (
            _median(_task_s(p.jobs, "map_tasks") for p in pipelines),
            "s",
        ),
        "mapreduce.reduce_task_s": (
            _median(_task_s(p.jobs, "reduce_tasks") for p in pipelines),
            "s",
        ),
        "mapreduce.max_reduce_task_s": (
            _median(
                max(t.duration_s for t in job.reduce_tasks)
                for job in kernel_jobs
            ),
            "s",
        ),
        "mapreduce.shuffle_bytes": (
            counts["mapreduce.shuffle_bytes"] / calls,
            "bytes",
        ),
    }
    for phase_name in PROCESS_PHASES:
        metrics[f"mapreduce.{phase_name}_share"] = (
            job_share(phase_name),
            "share",
        )
    metrics.update(
        {
            "mapreduce.parallel_efficiency": (
                task_s / (workers * job_wall) if job_wall else 0.0,
                "share",
            ),
            "mapreduce.shm_bytes_shared": (
                traced.counts["shm_bytes_shared"] / calls,
                "bytes",
            ),
            "serve.frontend_share": (wall_share("serve.frontend."), "share"),
            "serve.cache_share": (wall_share("serve.cache."), "share"),
            "serve.cache.hit_rate": (
                hits / lookups if lookups else 0.0,
                "share",
            ),
            "serve.index.query_share": (
                wall_share("serve.index.query"),
                "share",
            ),
            "serve.index.insert_share": (
                wall_share("serve.index.insert"),
                "share",
            ),
            "serve.index.delete_share": (
                wall_share("serve.index.delete"),
                "share",
            ),
            "serve.index.refresh_share": (
                wall_share("serve.index.refresh"),
                "share",
            ),
            "serve.index.repair_pairs": (
                counts["serve.index.repair_pairs"] / calls,
                "count",
            ),
            "serve.index.refreshes": (
                counts["serve.index.refreshes"] / calls,
                "count",
            ),
            "model.simulated_s": (simulated, "s"),
            "model.wall_over_simulated": (
                pipeline_wall / simulated if simulated else 0.0,
                "ratio",
            ),
            "model.read_wall_over_virtual": (
                read_wall / virtual_read_p50_s if virtual_read_p50_s else 0.0,
                "ratio",
            ),
            "host.calib_ms": (host["calib_ms"], "ms"),
            "host.nproc": (host["nproc"], "count"),
            "host.loadavg": (host["loadavg"], "load"),
            "trace.unattributed_share": (
                1.0 - covered / traced.elapsed,
                "share",
            ),
            "trace.overhead": (rate(untraced) / rate(traced) - 1.0, "share"),
        }
    )
    return metrics
