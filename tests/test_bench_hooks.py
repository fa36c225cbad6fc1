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
