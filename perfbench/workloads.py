"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, hands the library
only the generated data, and exposes the same life cycle: ``setup``
(generation, engine or index construction, warm-up), ``run`` (the timed
calls, untraced or traced), ``check`` (outputs against a reference from
another code path) and ``teardown`` (stop every worker process).

* ``batch-anti`` - MR-GPMRS with 13 reducers on the serial engine over
  anticorrelated 50k x 4 data (paper Fig. 8): dominance-kernel bound,
  no transport, no serving. The dominance work of one such dataset
  varies by about 11% from seed to seed, so a run cycles over 16 of
  them and their mean, not one seed's draw, sets its figures.
* ``batch-procs`` - the same call on two worker processes over
  independent 1M x 3 data (paper Fig. 9/11): the bitstring prunes most
  rows, and grid, shm arena promotion and dispatch/wait do work that
  ``batch-anti`` never does.
* ``serve-mixed`` - one closed-loop client replaying the
  ``mixed-anticorrelated`` op mix over 20k initial points with a
  staleness budget of 64 through ``QueryFrontend``. Virtual arrivals
  are spaced so the frontend never queues, sheds or times out: each
  call does only its own op's work.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from collections import defaultdict
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

import numpy as np

import repro.algorithms.common
import repro.algorithms.gpmrs
import repro.core.dominance
import repro.serve.index
from repro import skyline
from repro.core.dnc import dnc_skyline_indices
from repro.core.pointset import PointSet
from repro.data import generate
from repro.grid.bitstring import Bitstring
from repro.grid.grid import Grid
from repro.mapreduce import counters as counter_names
from repro.mapreduce.engine import SerialEngine
from repro.mapreduce.parallel import ProcessPoolEngine
from repro.serve.frontend import QueryFrontend
from repro.serve.index import SkylineIndex
from repro.serve.workloads import SERVE_WORKLOADS, generate_ops

from perfbench.trace import Patches, SpanRecorder

ALGORITHM = "mr-gpmrs"
NUM_REDUCERS = 13
#: Worker processes on ``batch-procs``: one per core of the 2-core host
#: the benchmark was tuned on, so the pool measures the program rather
#: than the scheduler.
WORKERS = 2
#: Virtual seconds between serve ops. Far above any op's virtual
#: service time, so no query ever waits behind an earlier op.
SPACING_S = 1.0


@dataclasses.dataclass
class Phase:
    """What one timed phase did and what the runtime reported."""

    traced: bool
    walls: Dict[str, List[float]] = dataclasses.field(
        default_factory=lambda: defaultdict(list)
    )
    work: int = 0  # input rows (batch) or ops (serve)
    elapsed: float = 0.0
    pipelines: list = dataclasses.field(default_factory=list)
    job_phases: List[Dict[str, float]] = dataclasses.field(
        default_factory=list
    )
    counts: Dict[str, int] = dataclasses.field(
        default_factory=lambda: defaultdict(int)
    )
    recorder: Optional[SpanRecorder] = None

    @property
    def calls(self) -> int:
        return sum(len(w) for w in self.walls.values())


def trace_library(recorder: SpanRecorder, patches: Patches) -> None:
    """Spans around the core and grid entry points every workload hits."""
    for owner, attr, name in (
        (PointSet, "local_skyline", "core.local_skyline"),
        (PointSet, "merge_skyline", "core.merge_skyline"),
        (PointSet, "remove_dominated_by", "core.remove_dominated_by"),
        (repro.core.dominance, "dominated_mask", "core.dominated_mask"),
        (repro.algorithms.common, "dominated_mask", "core.dominated_mask"),
        (Grid, "cell_indices", "grid.cell_indices"),
        (Grid, "coords_array", "grid.coords_array"),
        (Bitstring, "prune_dominated", "grid.prune_dominated"),
        (
            repro.algorithms.gpmrs,
            "generate_independent_groups",
            "grid.independent_groups",
        ),
        (repro.algorithms.gpmrs, "merge_groups", "grid.merge_groups"),
    ):
        patches.wrap(recorder, owner, attr, name)


def trace_engine(engine, phase: Phase, patches: Patches) -> None:
    """One ``mapreduce.job.<name>`` span per job; keeps process phases."""
    run = engine.run

    def run_job(job):
        result = run(job)
        if hasattr(engine, "last_phases"):
            phase.job_phases.append(dict(engine.last_phases))
        return result

    patches.set(
        engine,
        "run",
        phase.recorder.wrap(lambda job: f"mapreduce.job.{job.name}", run_job),
    )


class BatchWorkload:
    """``skyline(algorithm="mr-gpmrs", num_reducers=13)`` calls."""

    def __init__(
        self,
        name: str,
        seed: int,
        *,
        distribution: str,
        cardinality: int,
        dimensionality: int,
        datasets: int,
        processes: bool,
        units: int,
    ):
        self.name = name
        self.seed = seed
        self.units = units
        self.distribution = distribution
        self.cardinality = cardinality
        self.dimensionality = dimensionality
        self.datasets = datasets
        self.processes = processes
        self.engine = None
        self.data: List[np.ndarray] = []
        self.results: List = []  # (dataset, skyline indices) per call

    def setup(self) -> None:
        streams = np.random.SeedSequence(self.seed).spawn(self.datasets)
        self.data = [
            generate(
                self.distribution,
                self.cardinality,
                self.dimensionality,
                seed=np.random.default_rng(stream),
            )
            for stream in streams
        ]
        self.engine = (
            ProcessPoolEngine(max_workers=WORKERS)
            if self.processes
            else SerialEngine()
        )
        self._job(skyline, 0)  # warm-up; spawns the pool on batch-procs

    def _job(self, fn, i: int):
        return fn(
            self.data[i],
            algorithm=ALGORITHM,
            num_reducers=NUM_REDUCERS,
            engine=self.engine,
        )

    def run(self, phase: Phase) -> None:
        """``units`` cycles of one call per dataset; each dataset's
        call walls are one class."""
        fn = skyline
        patches = Patches()
        try:
            if phase.traced:
                trace_library(phase.recorder, patches)
                trace_engine(self.engine, phase, patches)
                fn = phase.recorder.wrap("pipeline.skyline", skyline)
            shm_before = self._shm_bytes()
            started = time.perf_counter()
            for _cycle in range(self.units):
                for i in range(len(self.data)):
                    t0 = time.perf_counter()
                    result = self._job(fn, i)
                    phase.walls[f"dataset{i}"].append(time.perf_counter() - t0)
                    phase.work += self.cardinality
                    phase.pipelines.append(result.stats)
                    self.results.append((i, result.indices))
            phase.elapsed += time.perf_counter() - started
            phase.counts["shm_bytes_shared"] += self._shm_bytes() - shm_before
        finally:
            patches.undo()

    def _shm_bytes(self) -> int:
        counters = getattr(self.engine, "shm_counters", None)
        return counters.get(counter_names.SHM_BYTES_SHARED) if counters else 0

    def check(self) -> List[str]:
        """One message per call whose skyline differs from a reference
        from another path: the centralized divide-and-conquer skyline
        (serial) or a serial-engine run of the same job (processes)."""
        references = []
        for data in self.data:
            if self.processes:
                ref = skyline(
                    data,
                    algorithm=ALGORITHM,
                    num_reducers=NUM_REDUCERS,
                    engine=SerialEngine(),
                ).indices
            else:
                ref = np.sort(dnc_skyline_indices(data))
            references.append(ref)
        return [
            f"{self.name}: call {n} on dataset {i} differs from the reference"
            for n, (i, got) in enumerate(self.results)
            if not np.array_equal(got, references[i])
        ]

    def outputs(self) -> list:
        return [(i, indices.tolist()) for i, indices in self.results]

    def teardown(self) -> None:
        if self.processes and self.engine is not None:
            self.engine.shutdown()
            for child in multiprocessing.active_children():
                child.join(timeout=60)


class ServeWorkload:
    """One closed-loop client driving ``QueryFrontend`` op by op."""

    def __init__(
        self,
        name: str,
        seed: int,
        *,
        cardinality: int,
        staleness_budget: int,
        units: int,
    ):
        self.name = name
        self.seed = seed
        self.units = units
        self.spec = dataclasses.replace(
            SERVE_WORKLOADS["mixed-anticorrelated"],
            cardinality=cardinality,
            num_ops=2 * units,  # enough for both phases of a traced run
            staleness_budget=staleness_budget,
        )
        self.position = 0
        self.queued = 0  # queries not answered within their own call

    def setup(self) -> None:
        spec = self.spec
        self.stream = generate_ops(spec, self.seed)
        self.engine = SerialEngine()
        self.index = SkylineIndex(
            self.stream.initial_data,
            staleness_budget=spec.staleness_budget,
            engine=self.engine,
        )
        self.frontend = QueryFrontend(
            self.index,
            cache_capacity=spec.cache_capacity,
            queue_capacity=spec.queue_capacity,
            timeout_s=spec.timeout_s,
            tenant_policy=spec.tenant_policy(),
        )

    def _trace(self, phase: Phase, patches: Patches) -> None:
        recorder = phase.recorder
        trace_library(recorder, patches)
        trace_engine(self.engine, phase, patches)

        def refresh_pipeline(*args, **kwargs):
            result = skyline(*args, **kwargs)
            phase.pipelines.append(result.stats)
            return result

        patches.set(
            repro.serve.index,
            "batch_skyline",
            recorder.wrap("pipeline.skyline", refresh_pipeline),
        )
        for owner, attr, name in (
            (repro.serve.index, "point_dominated_by", "core.point_dominated_by"),
            (repro.serve.index, "dominated_by_point", "core.dominated_by_point"),
            (self.index, "query", "serve.index.query"),
            (self.index, "insert", "serve.index.insert"),
            (self.index, "delete", "serve.index.delete"),
            (self.index, "batch_refresh", "serve.index.refresh"),
            (self.frontend.cache, "get", "serve.cache.get"),
            (self.frontend.cache, "put", "serve.cache.put"),
            (self.frontend, "submit_query", "serve.frontend.query"),
            (self.frontend, "apply_insert", "serve.frontend.insert"),
            (self.frontend, "apply_delete", "serve.frontend.delete"),
        ):
            patches.wrap(recorder, owner, attr, name)

    def run(self, phase: Phase) -> None:
        """The next ``units`` ops of the stream. Call walls fall in three
        classes: reads, writes, and writes that paid a batch refresh."""
        index, frontend = self.index, self.frontend
        cache = frontend.cache
        pairs = index.counters.get(counter_names.TUPLE_COMPARES)
        hits, misses, refreshes = cache.hits, cache.misses, index.refreshes
        patches = Patches()
        try:
            if phase.traced:
                self._trace(phase, patches)
            query = frontend.submit_query
            insert = frontend.apply_insert
            delete = frontend.apply_delete
            responses = frontend.responses
            walls = phase.walls
            ops = self.stream.ops[self.position : self.position + self.units]
            clock = time.perf_counter
            started = clock()
            for op in ops:
                self.position += 1
                at = self.position * SPACING_S
                if op[0] == "query":
                    answered = len(responses) + 1
                    t0 = clock()
                    query(at, op[2])
                    walls["read"].append(clock() - t0)
                    if len(responses) != answered:
                        self.queued += 1
                    continue
                before = index.refreshes
                t0 = clock()
                if op[0] == "insert":
                    insert(at, op[2], op[3])
                else:
                    delete(at, op[2])
                wall = clock() - t0
                kind = "refresh" if index.refreshes > before else "write"
                walls[kind].append(wall)
            phase.elapsed += clock() - started
        finally:
            patches.undo()
        phase.work += len(ops)
        counts = phase.counts
        counts["repair_pairs"] += (
            index.counters.get(counter_names.TUPLE_COMPARES) - pairs
        )
        counts["cache_hits"] += cache.hits - hits
        counts["cache_misses"] += cache.misses - misses
        counts["refreshes"] += index.refreshes - refreshes

    def check(self) -> List[str]:
        """One message per failed op: a query not answered ``ok``
        within its own call, or a maintained skyline that differs from
        a from-scratch MR-GPMRS recompute of the final snapshot."""
        failures = [
            f"{self.name}: query {r.request_id} status {r.status}"
            for r in self.frontend.responses
            if r.status != "ok"
        ]
        failures += [f"{self.name}: a query waited in the queue"] * self.queued
        snap = self.index.snapshot()
        ref = snap.ids[skyline(snap.values, algorithm=ALGORITHM).indices]
        if not np.array_equal(self.index.skyline_ids(), ref):
            failures.append(f"{self.name}: final skyline differs from batch")
        return failures

    def outputs(self) -> list:
        answers = [
            (r.status, None if r.result is None else r.result.ids.tolist())
            for r in self.frontend.responses
        ]
        return [answers, self.index.skyline_ids().tolist()]

    def teardown(self) -> None:
        pass


#: name -> (class, fixed arguments, full-size arguments, units of work
#: per second on the reference host, small-size arguments, small units).
#: A unit is one cycle over the datasets (batch) or one op (serve).
WORKLOADS = {
    "batch-anti": (
        BatchWorkload,
        dict(distribution="anticorrelated", dimensionality=4, processes=False),
        dict(cardinality=50_000, datasets=16),
        0.1,
        dict(cardinality=10_000, datasets=2),
        1,
    ),
    "batch-procs": (
        BatchWorkload,
        dict(distribution="independent", dimensionality=3, processes=True),
        dict(cardinality=1_000_000, datasets=1),
        1.1,
        dict(cardinality=20_000, datasets=1),
        1,
    ),
    "serve-mixed": (
        ServeWorkload,
        dict(staleness_budget=64),
        dict(cardinality=20_000),
        1600,
        dict(cardinality=3_000),
        800,
    ),
}


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that ``multiprocessing`` starts
    to track shared-memory segments. Left alone it outlives this
    process; once every segment is unlinked it has nothing to do."""
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        tracker._stop()


def make_workload(name: str, seed: int, seconds: float = 0.0):
    """A fresh workload, not yet set up, whose ``units`` of work take
    about ``seconds`` on the reference host (a 2-core x86 VM); with
    ``seconds=0`` it is the small variant the tests use.

    The amount of work is fixed rather than time-bounded so that every
    count, and the memory the run holds, repeats for a seed.
    """
    cls, fixed, full, rate, small, small_units = WORKLOADS[name]
    if seconds:
        sized, units = full, max(1, round(rate * seconds))
    else:
        sized, units = small, small_units
    return cls(name, seed, units=units, **fixed, **sized)
