"""The skew-sweep workload's Spark side.

``core.harness.sweep`` runs one cell per group through the module
attribute ``harness._run_group`` and declares its output with
``harness._SCHEMA``; both are looked up when ``sweep`` is called. While
:func:`bench_groups` is active they point at a group function from this
module, which Spark's Python workers import by name (this directory is on
their ``PYTHONPATH``). That function runs the program's own group function
under an :class:`~instrument.Instrument` and returns the program's metrics
row plus one JSON column, ``bench``, with the cell's timings, digests,
oracle verdict, peak RSS and, traced, its raw layer totals.
"""
from __future__ import annotations

import json
import os
import resource
import shlex
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Iterator, Tuple

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.core import harness

from instrument import Instrument

PROGRAM_RUN_GROUP = harness._run_group
PROGRAM_SCHEMA = harness._SCHEMA
BENCH_SCHEMA = T.StructType(PROGRAM_SCHEMA.fields + [T.StructField("bench", T.StringType())])

#: local-mode cores: the sweep's parallelism, and the denominator of
#: ``sweep.parallel_eff``
CORES = 4


def _run_group(pdf: pd.DataFrame, traced: bool) -> pd.DataFrame:
    rec = {"id": int(pdf.iloc[0]["id"])}
    t0 = time.perf_counter()
    with Instrument(traced) as ins:
        try:
            out = PROGRAM_RUN_GROUP(pdf)
            rec.update(ins.cells[-1])
        except Exception:  # the cell fails; the sweep goes on
            rec["error"] = traceback.format_exc()
            out = pd.DataFrame([{c: None for c in harness.METRIC_COLUMNS}])
    rec["cell_s"] = time.perf_counter() - t0
    rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        rec["raw"] = ins.raw()
    out["bench"] = json.dumps(rec)
    return out


def run_group_timed(pdf: pd.DataFrame) -> pd.DataFrame:
    return _run_group(pdf, traced=False)


def run_group_traced(pdf: pd.DataFrame) -> pd.DataFrame:
    return _run_group(pdf, traced=True)


@contextmanager
def bench_groups(traced: bool) -> Iterator[None]:
    """Route ``harness.sweep`` through this module's group function."""
    harness._run_group = run_group_traced if traced else run_group_timed
    harness._SCHEMA = BENCH_SCHEMA
    try:
        yield
    finally:
        harness._run_group = PROGRAM_RUN_GROUP
        harness._SCHEMA = PROGRAM_SCHEMA


def start_spark(root: str, work_dir: str) -> Tuple[SparkSession, float]:
    """Start a local[4] session whose JVM and Python workers keep their
    files under ``work_dir``; returns the session and its start seconds.

    Python workers are not reused, so every Spark task starts with an
    empty ``measure_mst`` cache and probe counts repeat exactly.
    """
    os.makedirs(work_dir, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    os.environ["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), here])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = work_dir
    # every JVM, spark-submit's launcher included
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work_dir}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory 1g "
        f"--conf spark.local.dir={shlex.quote(work_dir)} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "--conf spark.python.worker.reuse=false "
        "pyspark-shell"
    )
    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    return spark, time.perf_counter() - t0


def stop_spark(spark: SparkSession) -> None:
    """Stop the session and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None
