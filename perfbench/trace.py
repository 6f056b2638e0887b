"""Spans recorded by the benchmark's own wrappers around public calls.

A span is ``(name, start, end, parent)``; the parent is the span that
was open when this one started, so a refresh nests inside the insert
that triggered it and the kernel nests inside the refresh. Spans stay
in memory until the run ends. A span's *self time* is its duration
minus the durations of its direct children, so summing self time by
layer attributes every traced second exactly once.

The first dotted component of a span name is its layer: ``core``,
``grid``, ``mapreduce`` and ``serve`` are the library's modules;
``pipeline`` is the algorithm driver that chains jobs, which belongs to
none of them and therefore counts as unattributed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

NAMED_LAYERS = ("core", "grid", "mapreduce", "serve")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span store fed by :meth:`wrap`-ped callables."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []

    def wrap(self, name, fn: Callable) -> Callable:
        """``fn``, recording one span per call.

        ``name`` is a string, or a function of the call's positional
        arguments (engine ``run`` names its span after the job).
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, open_spans = self.parents, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name if isinstance(name, str) else name(*args))
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (total self seconds, number of spans)``."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                children[parent] += duration
        totals: Dict[str, List] = defaultdict(lambda: [0.0, 0])
        for name, duration, child in zip(self.names, durations, children):
            totals[name][0] += duration - child
            totals[name][1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def layer_self_times(self) -> Dict[str, float]:
        """Total self seconds per layer."""
        out: Dict[str, float] = defaultdict(float)
        for name, (seconds, _spans) in self.self_times().items():
            out[layer_of(name)] += seconds
        return dict(out)

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        return [
            e - s
            for n, s, e in zip(self.names, self.starts, self.ends)
            if n == name
        ]

    def entry_calls(self, layer: str) -> int:
        """Spans of ``layer`` entered from outside that layer."""
        return sum(
            1
            for name, parent in zip(self.names, self.parents)
            if layer_of(name) == layer
            and (parent < 0 or layer_of(self.names[parent]) != layer)
        )

    def write(self, path: str, meta: Dict) -> None:
        """Dump every span as a ``[name, start_us, end_us, parent]`` row;
        ``name`` indexes ``names`` and times count from the first span."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            [
                index[n],
                round(1e6 * (s - origin), 3),
                round(1e6 * (e - origin), 3),
                p,
            ]
            for n, s, e, p in zip(
                self.names, self.starts, self.ends, self.parents
            )
        ]
        with open(path, "w") as handle:
            json.dump(
                {**meta, "names": names, "spans": rows},
                handle,
                separators=(",", ":"),
            )


class Patches:
    """Attribute substitutions, undone in reverse order.

    Works on modules, classes and instances alike: an attribute the
    owner held in its own ``__dict__`` is restored, one it inherited
    (an instance's method) is deleted so the class's shows through.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def set(self, owner, attr: str, value) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def wrap(self, recorder: SpanRecorder, owner, attr: str, name) -> None:
        self.set(owner, attr, recorder.wrap(name, getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, had_own, value = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
