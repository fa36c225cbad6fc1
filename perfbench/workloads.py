"""The benchmark's workloads and the passes that run them.

A *cell* is one ``ExperimentConfig`` that is built, run and checked. A
*pass* runs every cell of a workload once, under an
:class:`~instrument.Instrument`, and returns a plain dict of timings and
per-cell records. Why each workload was chosen is written in
``BENCHMARK.json``.
"""
from __future__ import annotations

import json
import resource
import time
import traceback
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Dict, List

from repro.core import harness
from repro.core.config import ExperimentConfig
from repro.core.mst import measure_mst
from repro.core.tables import skew_configs, table4_configs, table23_configs

from instrument import Instrument, merge_raw

#: the seed ``golden.json`` was committed for, and the default ``--seed``
SEED = 7


def _q3_fail_w50() -> List[ExperimentConfig]:
    return [
        c for c in table23_configs(workers=(50,), queries=("q3",))
        if c.protocol in ("UNC", "CIC")
    ]


def _cyclic_fail() -> List[ExperimentConfig]:
    return table4_configs(workers=(10,))


def _skew_sweep() -> List[ExperimentConfig]:
    return skew_configs(workers=10, queries=("q3", "q12"), hot_ratios=(0.1, 0.3), duration=60.0)


#: workload -> its cells at the program's default seed
WORKLOADS: Dict[str, Callable[[], List[ExperimentConfig]]] = {
    "cyclic-fail": _cyclic_fail,
    "q3-fail-w50": _q3_fail_w50,
    "skew-sweep": _skew_sweep,
}

#: workloads whose cells run through ``core.harness.sweep`` on Spark
SPARK_WORKLOADS = {"skew-sweep"}


def cells(workload: str, seed: int) -> List[ExperimentConfig]:
    """The workload's cells, with the workload seed as ``ExperimentConfig.seed``."""
    return [replace(c, seed=seed) for c in WORKLOADS[workload]()]


def label(cfg: ExperimentConfig) -> str:
    return f"{cfg.query}/{cfg.protocol}/w{cfg.workers}/hot{cfg.hot_ratio:g}"


def serial_pass(cfgs: List[ExperimentConfig], traced: bool) -> Dict[str, Any]:
    """Run the cells one after another in this process."""
    measure_mst.cache_clear()  # every pass resolves its MSTs afresh
    records = []
    t0 = time.perf_counter()
    with Instrument(traced) as ins:
        for cfg in cfgs:
            c0 = time.perf_counter()
            n = len(ins.cells)
            try:
                harness.run_config(cfg)
                rec = ins.cells[n]
            except Exception:  # the cell fails; the pass goes on
                rec = {"error": traceback.format_exc()}
            rec["cell_s"] = time.perf_counter() - c0
            rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            records.append(rec)
    wall = time.perf_counter() - t0
    return _pass(
        cfgs, records, wall_s=wall, sim_s=sum(r.get("run_s", 0.0) for r in records),
        raw=ins.raw(), partitions=[0] * len(records), cores=1,
    )


def spark_pass(spark, cfgs: List[ExperimentConfig], traced: bool) -> Dict[str, Any]:
    """Run the cells through ``core.harness.sweep``, one Spark group each."""
    from pyspark.sql import functions as F

    from spark_cells import CORES, bench_groups

    t0 = time.perf_counter()
    with bench_groups(traced):
        pdf = (
            harness.sweep(spark, cfgs)
            .withColumn("pid", F.spark_partition_id())
            .select("bench", "pid")
            .toPandas()
        )
    makespan = time.perf_counter() - t0
    by_id = {}
    for bench, pid in zip(pdf["bench"], pdf["pid"]):
        rec = json.loads(bench)
        rec["pid"] = int(pid)
        by_id[rec.pop("id")] = rec
    records = [by_id.get(i, {"error": "the sweep returned no row"}) for i in range(len(cfgs))]
    return _pass(
        cfgs, records, wall_s=makespan, sim_s=makespan,
        raw=merge_raw([r.pop("raw") for r in records if "raw" in r]),
        partitions=[r.get("pid") for r in records], cores=CORES,
    )


def _pass(cfgs, records, *, wall_s, sim_s, raw, partitions, cores) -> Dict[str, Any]:
    for cfg, rec in zip(cfgs, records):
        rec["label"] = label(cfg)
    cell_s_sum = sum(r["cell_s"] for r in records if "cell_s" in r)
    per_task = Counter(p for p in partitions if p is not None)
    return dict(
        wall_s=wall_s,
        setup_s=sum(r.get("setup_s", 0.0) for r in records),
        sim_s=sim_s,
        data_msgs=sum(r.get("n_data_msgs", 0) for r in records),
        rss_mb=[r["rss_mb"] for r in records if "rss_mb" in r],
        cells=records,
        raw=raw,
        sweep={
            "sweep.makespan_s": wall_s,
            "sweep.cell_sum_s": cell_s_sum,
            "sweep.parallel_eff": cell_s_sum / (wall_s * cores),
            "sweep.partitions_used": len(per_task),
            "sweep.max_cells_per_task": max(per_task.values(), default=0),
        },
    )


def run_pass(spark, cfgs: List[ExperimentConfig], traced: bool) -> Dict[str, Any]:
    if spark is None:
        return serial_pass(cfgs, traced)
    return spark_pass(spark, cfgs, traced)

