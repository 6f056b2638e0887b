"""The benchmark's exact counts repeat for a seed, its inputs follow the
seed, and tracing leaves the library as it found it.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench
"""

import time

import pytest

from repro.core.pointset import PointSet

from perfbench.metrics import exact_counts
from perfbench.trace import SpanRecorder
from perfbench.workloads import (
    WORKLOADS,
    BatchWorkload,
    Phase,
    make_workload,
    stop_resource_tracker,
)


@pytest.fixture(scope="module", autouse=True)
def _no_helper_process_outlives_the_tests():
    yield
    stop_resource_tracker()


def _traced_small_run(name: str, seed: int):
    workload = make_workload(name, seed)
    phase = Phase(traced=True, recorder=SpanRecorder())
    try:
        workload.setup()
        workload.run(phase)
    finally:
        workload.teardown()
    assert workload.check() == []
    return workload, phase


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_and_exact_counts_repeat_for_a_seed(name):
    first, first_phase = _traced_small_run(name, 7)
    second, second_phase = _traced_small_run(name, 7)
    counts = exact_counts(first_phase)
    assert first.outputs() == second.outputs()
    assert counts == exact_counts(second_phase)
    assert counts["core.tuple_compares"] > 0
    assert counts["grid.partition_compares"] > 0
    assert counts["mapreduce.shuffle_bytes"] > 0
    if name == "serve-mixed":
        assert counts["serve.index.refreshes"] > 0
        assert counts["serve.index.repair_pairs"] > 0
        assert counts["serve.cache.hits"] > 0


def _inputs(name: str, seed: int):
    workload = make_workload(name, seed)
    try:
        workload.setup()
    finally:
        workload.teardown()
    if isinstance(workload, BatchWorkload):
        return [data.tobytes() for data in workload.data]
    stream = workload.stream
    return stream.initial_data.tobytes(), repr(stream.ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_changes_the_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_tracing_is_undone_after_a_run():
    original = PointSet.__dict__["local_skyline"]
    workload, phase = _traced_small_run("serve-mixed", 7)
    assert PointSet.__dict__["local_skyline"] is original
    assert "insert" not in vars(workload.index)
    assert phase.recorder.entry_calls("core") > 0


def test_self_time_excludes_children():
    recorder = SpanRecorder()
    inner = recorder.wrap("core.inner", lambda: time.sleep(0.002))

    def outer_body():
        inner()
        time.sleep(0.002)

    recorder.wrap("serve.outer", outer_body)()
    self_times = recorder.self_times()
    (inner_total,) = recorder.durations("core.inner")
    (outer_total,) = recorder.durations("serve.outer")
    assert self_times["core.inner"] == (inner_total, 1)
    assert self_times["serve.outer"][0] == pytest.approx(
        outer_total - inner_total
    )
    assert recorder.parents == [-1, 0]
