"""The program attributes the benchmark under ``perfbench/`` wraps or reads.

``perfbench/instrument.py`` and ``perfbench/spark_cells.py`` patch module
attributes from outside ``src/`` and are not collected by this suite, so a
rename here would otherwise only break the benchmark.
"""
import heapq
import re

import pytest
from pyspark.sql import types as T

from repro.core import harness, mst
from repro.core.config import ExperimentConfig, build
from repro.dataflow import simulator
from repro.protocols import uncoordinated

FUNCTIONS = [
    (harness, "measure_mst"),
    (harness, "build"),
    (harness, "metrics_row"),
    (harness, "run_config"),
    (harness, "resolve_rate"),
    (harness, "sweep"),
    (harness, "_run_group"),
    (mst, "build"),
    (uncoordinated, "find_recovery_line"),
]


@pytest.mark.parametrize(
    "module,name", FUNCTIONS, ids=[f"{m.__name__}.{n}" for m, n in FUNCTIONS]
)
def test_wrapped_function_exists(module, name):
    assert callable(getattr(module, name))


def test_harness_schema_and_columns():
    assert isinstance(harness._SCHEMA, T.StructType)
    assert harness.METRIC_COLUMNS == [f.name for f in harness._SCHEMA.fields]


def test_simulator_heapq_is_swappable():
    # the benchmark swaps ``simulator.heapq`` for a stand-in that has only
    # ``heappush`` and ``heappop``, and tells source arrivals apart by ``_SRC``
    assert simulator.heapq is heapq
    with open(simulator.__file__) as f:
        used = set(re.findall(r"\bheapq\.(\w+)", f.read()))
    assert used <= {"heappush", "heappop"}
    assert isinstance(simulator._SRC, str)


@pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
def test_heap_pushes_have_the_shape_the_counting_stand_in_reads(protocol, monkeypatch):
    # the stand-in tells the event heap from the per-worker channel heaps by
    # tuple length, counts event pushes by ``item[2]`` and reads
    # ``item[4].channel`` of arrivals
    cfg = ExperimentConfig(query="q3", protocol=protocol, workers=3, rate=600.0,
                           duration=6.0, fail_at=3.0)
    sim = build(cfg)
    events, heads = [], 0

    class RecordingHeapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, item):
            nonlocal heads
            if heap is sim.heap:
                events.append(item)
            else:
                assert len(item) == 3 and isinstance(item[2], tuple)  # (t, counter, channel)
                heads += 1
            heapq.heappush(heap, item)

    monkeypatch.setattr(simulator, "heapq", RecordingHeapq)
    sim.run(cfg.duration, fail_at=cfg.fail_at)
    assert heads > 0
    kinds = set()
    for item in events:
        assert isinstance(item, tuple) and len(item) == 5
        t, counter, kind, epoch, data = item
        assert isinstance(t, float) and isinstance(counter, int) and isinstance(epoch, int)
        kinds.add(kind)
        if kind in ("arrive", "sink"):
            assert isinstance(data.channel, tuple) and len(data.channel) == 4
    assert kinds == {"arrive", "proc", "sink", "call"}
