"""Timing and tracing wrappers installed on the program from outside.

An :class:`Instrument` is a context manager. On entry it wraps module
attributes: ``measure_mst``, ``build`` and ``metrics_row`` of
:mod:`repro.core.harness`, the MST probe's ``build`` and UNC's
``find_recovery_line``. Every :class:`~repro.dataflow.simulator.Simulation`
that ``harness.build`` returns is then wrapped on the object itself. On
exit every wrapper is removed again. Nothing under ``src/`` is edited.

Untraced, only calls that happen a few times per cell are timed (MST
resolution and probes, build, ``Simulation.run``, the recovery line,
the metrics row), so the end-to-end numbers carry no per-message cost. Traced, the per-message layer boundaries are wrapped too
(operators, protocol hooks, message log, recovery line search) and the
simulator module's ``heapq`` is replaced by a counting stand-in while a
cell's ``run`` executes.

Spans are aggregated per name as they close: inclusive seconds, self
seconds (minus direct child spans) and calls. A 50-worker cell closes
millions of spans, so individual spans are not kept.
"""
from __future__ import annotations

import hashlib
import heapq
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

import duckdb
import numpy as np
import pandas as pd

from repro.core import harness
from repro.core import mst as mst_mod
from repro.dataflow import simulator as sim_mod
from repro.nexmark import spark_queries as sq
from repro.nexmark.generator import auctions_frame, bids_frame, persons_frame
from repro.protocols import uncoordinated as unc_mod

#: heap event kinds of ``Simulation._push``; pushes are counted per kind
EVENT_KINDS = ("arrive", "proc", "sink", "kick", "call", "fail", "detect", "resume")

#: queries whose sink output is order-independent and has a DuckDB oracle:
#: query -> (SQL, topic -> input frame function, sink values -> frame)
ORACLES = {
    "q3": (sq.Q3_SQL, {"persons": persons_frame, "auctions": auctions_frame}, sq.sim_q3_frame),
    "q12": (sq.Q12_SQL, {"bids": bids_frame}, sq.sim_q12_frame),
}


# ---------------------------------------------------------------------------
# digests and output checks
# ---------------------------------------------------------------------------

def canon(x: Any) -> Any:
    """Order-independent canonical form: dict items and set members sorted
    by ``repr``, sequences kept in order, NumPy scalars as Python values."""
    if isinstance(x, dict):
        return tuple(sorted(((canon(k), canon(v)) for k, v in x.items()), key=repr))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted((canon(v) for v in x), key=repr))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if isinstance(x, np.generic):
        return x.item()
    return x


def digest(x: Any) -> str:
    return hashlib.sha256(repr(canon(x)).encode()).hexdigest()[:20]


def output_digest(res) -> str:
    """Digest of what exactly-once is about: sink results and state."""
    return digest((res.sink_results, res.state_fingerprints))


def cell_digest(row: Dict[str, Any], out_digest: str) -> str:
    """Digest of a whole cell: its metrics row plus its output digest."""
    return digest(({c: row.get(c) for c in harness.METRIC_COLUMNS}, out_digest))


def topics_of(sim) -> Dict[str, Any]:
    return {cur.log.topic: cur.log for cur in sim.cursors.values()}


def topic_records(log) -> List[Any]:
    return [r for part in log.partitions for r in part]


def _canon_frame(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].reset_index(drop=True).copy()
    for c in df.select_dtypes(include=["float"]).columns:
        df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def oracle_ok(query: str, sim, res) -> Optional[bool]:
    """Sink output equals the DuckDB answer over the cell's own inputs
    (None for queries without an order-independent oracle)."""
    if query not in ORACLES:
        return None
    sql, frames, sim_frame = ORACLES[query]
    logs = topics_of(sim)
    con = duckdb.connect()
    try:
        for topic, to_frame in frames.items():
            con.register(topic, to_frame(topic_records(logs[topic])))
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = sim_frame(res.sink_values())
    if set(got.columns) != set(expected.columns) or len(got) != len(expected):
        return False
    return bool(_canon_frame(got).astype(str).equals(_canon_frame(expected).astype(str)))


# ---------------------------------------------------------------------------
# the instrument
# ---------------------------------------------------------------------------

class _CountingHeapq:
    """Stand-in for the simulator module's ``heapq``: counts pushes onto the
    event heap by event kind, and pushes onto the per-worker channel heaps."""

    def __init__(self, counts: Counter):
        self.counts = counts
        self.heappop = heapq.heappop

    def heappush(self, heap, item) -> None:
        if len(item) == 5:  # (t, counter, kind, epoch, data): event heap
            kind = item[2]
            self.counts["sim.heap_pushes." + kind] += 1
            if kind == "arrive" and item[4].channel[0] == sim_mod._SRC:
                self.counts["sim.source_arrivals_pushed"] += 1
        else:  # (t, counter, channel): a worker's ready-channel heap
            self.counts["sim.head_pushes"] += 1
        heapq.heappush(heap, item)


class Instrument:
    """Wrap the program for one pass over a workload's cells.

    ``cells`` collects one record per completed ``Simulation.run``: its
    setup seconds (MST resolution plus build since the previous run), run
    seconds, data messages, digests and oracle verdict.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.cells: List[Dict[str, Any]] = []
        self._stack: List[float] = []
        self._undo: List[Callable[[], None]] = []
        self._setup_mark = 0.0

    # -- wrapping ----------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        stack, total, self_s, calls = self._stack, self.total, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                total[name] += dt
                self_s[name] += dt - child
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def patch(self, obj: Any, attr: str, new: Any) -> None:
        """Set ``obj.attr`` to ``new`` and remember how to undo it."""
        own = attr in vars(obj)
        old = vars(obj)[attr] if own else None
        setattr(obj, attr, new)
        if own:
            self._undo.append(lambda: setattr(obj, attr, old))
        else:
            self._undo.append(lambda: delattr(obj, attr))

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        self.patch(obj, attr, self.span(name, getattr(obj, attr)))

    def __enter__(self) -> "Instrument":
        self.wrap(harness, "measure_mst", "mst")
        self.wrap(mst_mod, "build", "mst.probe")
        self.patch(harness, "build", self._wrap_build(harness.build))
        self.patch(harness, "metrics_row", self._wrap_metrics_row(harness.metrics_row))
        self.wrap(unc_mod, "find_recovery_line", "recovery.line")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap_build(self, build: Callable) -> Callable:
        timed = self.span("build", build)

        def wrapper(cfg, *args, **kwargs):
            sim = timed(cfg, *args, **kwargs)
            self._instrument_sim(cfg, sim)
            return sim

        return wrapper

    def _wrap_metrics_row(self, metrics_row: Callable) -> Callable:
        timed = self.span("metrics.row", metrics_row)

        def wrapper(cfg, res, mst):
            row = timed(cfg, res, mst)
            self._close_cell(row)
            return row

        return wrapper

    def _instrument_sim(self, cfg, sim) -> None:
        if self.traced:
            self.counts["build.events"] += sum(
                log.total_events() for log in topics_of(sim).values()
            )
            for inst, op in sim.instances.items():
                self.wrap(op, "process", "ops.process")
                if sim.graph.ops[inst[0]].stateful:
                    self.wrap(op, "snapshot", "ops.snapshot")
                    self.wrap(op, "restore", "ops.restore")
            proto = sim.protocol
            self.wrap(proto, "on_send", "proto.on_send")
            self.wrap(proto, "before_process", "proto.before_process")
            self.wrap(proto, "on_marker", "proto.on_marker")
            timed_plan = self.span("recovery.plan", proto.plan_recovery)

            def plan_recovery(t_detect):
                plan = timed_plan(t_detect)
                self.counts["recovery.ckpts_scanned"] += plan.ckpts_scanned
                return plan

            self.patch(proto, "plan_recovery", plan_recovery)
            self.wrap(sim.msg_log, "replay_range", "state.replay_range")
        timed_run = self.span("sim.run", sim.run)

        def run(*args, **kwargs):
            setup_s = self.total["mst"] + self.total["build"] - self._setup_mark
            run_before = self.total["sim.run"]
            if self.traced:
                self.patch(sim_mod, "heapq", _CountingHeapq(self.counts))
            try:
                res = timed_run(*args, **kwargs)
            finally:
                if self.traced:
                    self._undo.pop()()
            self._open_cell(cfg, sim, res, setup_s, self.total["sim.run"] - run_before)
            return res

        self.patch(sim, "run", run)

    # -- per-cell records --------------------------------------------------
    def _open_cell(self, cfg, sim, res, setup_s: float, run_s: float) -> None:
        tel = res.telemetry
        self.cells.append(
            dict(
                query=cfg.query,
                protocol=cfg.protocol,
                setup_s=setup_s,
                run_s=run_s,
                output=output_digest(res),
                oracle_ok=oracle_ok(cfg.query, sim, res),
            )
        )
        if self.traced:
            c = self.counts
            c["sim.data_msgs"] += tel.n_data_msgs
            c["sim.marker_msgs"] += tel.n_marker_msgs
            c["sim.dedup_drops"] += res.n_dedup_drops
            c["sim.dup_sink_arrivals"] += res.n_duplicate_sink_arrivals
            c["sim.source_emitted"] += tel.n_source_emitted
            c["state.logged_msgs"] += sim.msg_log.total_logged()
            c["state.checkpoints"] += sim.store.total_count()
            c["proto.forced_ckpts"] += sim.store.counts_by_kind().get("forced", 0)
            c["ops.snapshot_bytes"] += sum(
                cp.meta.state_bytes
                for inst in sim.store.instances()
                if sim.graph.ops[inst[0]].stateful
                for cp in sim.store.checkpoints(inst)
            )
            rec = tel.recovery
            c["recovery.invalid"] += int(rec.get("invalid", 0))
            c["recovery.n_replay"] += int(rec.get("n_replay", 0))
        # the next cell's setup starts after this run
        self._setup_mark = self.total["mst"] + self.total["build"]

    def _close_cell(self, row: Dict[str, Any]) -> None:
        cell = self.cells[-1]
        cell["n_data_msgs"] = int(row["n_data_msgs"])
        cell["digest"] = cell_digest(row, cell["output"])

    # -- layer report ------------------------------------------------------
    def raw(self) -> Dict[str, Dict[str, float]]:
        """Span and counter totals; raw totals of several passes or
        processes combine by :func:`merge_raw`."""
        return {
            "total": dict(self.total),
            "self": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def merge_raw(raws: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {"total": {}, "self": {}, "calls": {}, "counts": {}}
    for raw in raws:
        for part, values in raw.items():
            acc = out[part]
            for k, v in values.items():
                acc[k] = acc.get(k, 0) + v
    return out


def layers(raw: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics from traced raw totals."""
    t, self_s = defaultdict(float, raw["total"]), defaultdict(float, raw["self"])
    n, c = defaultdict(int, raw["calls"]), defaultdict(int, raw["counts"])
    pushed = c["sim.source_arrivals_pushed"]
    return {
        "mst.s": t["mst"],
        "mst.probes": n["mst.probe"],
        "build.s": t["build"],
        "build.events": c["build.events"],
        "sim.run_s": t["sim.run"],
        "sim.loop_self_s": self_s["sim.run"],
        "sim.heap_pushes": sum(c["sim.heap_pushes." + k] for k in EVENT_KINDS),
        **{"sim.heap_pushes." + k: c["sim.heap_pushes." + k] for k in EVENT_KINDS},
        "sim.head_pushes": c["sim.head_pushes"],
        "sim.source_arrivals_pushed": pushed,
        "sim.source_useful_ratio": c["sim.source_emitted"] / pushed if pushed else 0.0,
        "sim.data_msgs": c["sim.data_msgs"],
        "sim.marker_msgs": c["sim.marker_msgs"],
        "sim.dedup_drops": c["sim.dedup_drops"],
        "sim.dup_sink_arrivals": c["sim.dup_sink_arrivals"],
        "ops.process_s": t["ops.process"],
        "ops.process_calls": n["ops.process"],
        "ops.snapshot_s": t["ops.snapshot"],
        "ops.snapshots": n["ops.snapshot"],
        "ops.restore_s": t["ops.restore"],
        "ops.snapshot_bytes": c["ops.snapshot_bytes"],
        "proto.on_send_s": t["proto.on_send"],
        "proto.before_process_s": t["proto.before_process"],
        "proto.on_marker_s": t["proto.on_marker"],
        "proto.forced_ckpts": c["proto.forced_ckpts"],
        "state.replay_range_s": t["state.replay_range"],
        "state.replay_range_calls": n["state.replay_range"],
        "state.logged_msgs": c["state.logged_msgs"],
        "state.checkpoints": c["state.checkpoints"],
        "recovery.plan_s": t["recovery.plan"],
        "recovery.line_s": t["recovery.line"],
        "recovery.ckpts_scanned": c["recovery.ckpts_scanned"],
        "recovery.invalid": c["recovery.invalid"],
        "recovery.n_replay": c["recovery.n_replay"],
        "metrics.row_s": t["metrics.row"],
    }
