"""Discrete-event simulator of a distributed streaming dataflow.

This is the Styx-testbed substitute (DESIGN.md §1): W workers, each hosting
one parallel instance of every operator (the paper's deployment layout),
FIFO channels with latency, a single-server CPU per worker, replayable
sources, an external durable sink (the paper's Kafka sink), and pluggable
checkpointing protocols.

Execution model (all virtual time, deterministic given the config):

- A message is *dispatched* on its destination worker when the worker is
  free and the message is the oldest arrival among the worker's unblocked
  channel queues. State changes, checkpoint snapshots, sequence-number
  assignment and message logging all take effect atomically at dispatch;
  the produced messages physically leave at dispatch + service time and
  arrive one channel latency later. This gives per-channel FIFO and makes
  every checkpoint a consistent cut of its instance.
- COOR markers travel in-stream and therefore queue behind data backlog —
  the mechanism behind the paper's straggler/skew findings.
- Sources are scheduled lazily: the heap holds at most one pending
  arrival per source cursor, the record at its offset. Popping it pushes
  the next record, under the heap counter reserved for it when the
  cursor was (re)scheduled, so events pop in the same order as if the
  whole remaining topic had been pushed at once. This relies on every
  partition being in ingest-time order, which the constructor checks.
- A failure clears all worker-resident state and in-flight worker-to-worker
  messages (epoch bump); messages already sent toward the external sink
  still arrive. Recovery restores the protocol's recovery line, rewinds
  source offsets, replays logged in-flight messages, and resumes.
"""
from __future__ import annotations

import heapq
import operator
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .costs import SimCost
from .graph import Edge, LogicalGraph
from .kafka_sim import ReplayableLog, SourceCursor
from .messages import (
    MARKER_BYTES,
    Channel,
    InstanceId,
    Kind,
    Message,
    Record,
    payload_bytes_for,
)
from .state import CheckpointMeta, CheckpointStore, MessageLog, StoredCheckpoint
from .telemetry import Telemetry

_SRC = "__src__"


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    telemetry: Telemetry
    sink_results: Dict[str, Dict[str, Any]]  #: sink op -> uid -> value
    duration: float
    n_dedup_drops: int
    n_duplicate_sink_arrivals: int
    state_fingerprints: Dict[InstanceId, Any]
    store: CheckpointStore
    protocol_name: str

    def sink_values(self, sink: Optional[str] = None) -> Dict[str, Any]:
        if sink is None:
            sink = next(iter(self.sink_results))
        return self.sink_results[sink]


def _check_ingest_order(log: ReplayableLog, partition: int) -> None:
    """Lazy source scheduling is exact only on ingest-time ordered partitions."""
    ts = [rec.ingest_ts for rec in log.partitions[partition]]
    if all(map(operator.le, ts, ts[1:])):
        return
    off = next(i for i in range(1, len(ts)) if ts[i] < ts[i - 1])
    raise ValueError(
        f"topic {log.topic!r} partition {partition} is not in ingest-time order: "
        f"offset {off} has ingest_ts {ts[off]} < {ts[off - 1]}"
    )


class Simulation:
    """One runnable simulation instance. Not reusable after :meth:`run`."""

    def __init__(
        self,
        graph: LogicalGraph,
        n_workers: int,
        protocol,
        topics: Dict[str, ReplayableLog],
        cost: Optional[SimCost] = None,
        seed: int = 0,
    ):
        graph.validate()
        self.graph = graph
        self.W = n_workers
        self.protocol = protocol
        self.cost = cost or SimCost()
        self.rng = np.random.default_rng(seed)
        self.telemetry = Telemetry()
        self.store = CheckpointStore()
        self.msg_log = MessageLog()

        # --- instances -----------------------------------------------------
        self.instances: Dict[InstanceId, Any] = {}
        #: sink op -> uid -> value of the first arrival (the external sink
        #: deduplicates by content-addressed uid)
        self.sink_results: Dict[str, Dict[str, Any]] = {}
        self.cursors: Dict[InstanceId, SourceCursor] = {}
        for name, spec in graph.ops.items():
            if spec.is_sink:
                self.sink_results[name] = {}
                continue
            for w in range(n_workers):
                self.instances[(name, w)] = spec.factory(w, n_workers)
                if spec.is_source:
                    log = topics[spec.source_topic]
                    if log.n_partitions != n_workers:
                        raise ValueError(
                            f"topic {spec.source_topic!r} has {log.n_partitions} "
                            f"partitions, need {n_workers}"
                        )
                    self.cursors[(name, w)] = SourceCursor(log, w)
                    _check_ingest_order(log, w)

        # --- static routes: op -> [(edge, edge ends at a sink)] ------------
        self.sink_ops = frozenset(name for name, spec in graph.ops.items() if spec.is_sink)
        self.routes: Dict[str, List[Tuple[Edge, bool]]] = {name: [] for name in graph.ops}
        for e in graph.edges:
            self.routes[e.src].append((e, e.dst in self.sink_ops))

        # --- static channel lists per instance -----------------------------
        self.out_channels: Dict[InstanceId, List[Channel]] = {i: [] for i in self.instances}
        self.in_channels: Dict[InstanceId, List[Channel]] = {i: [] for i in self.instances}
        for e in graph.edges:
            for i in range(n_workers):
                if e.dst in self.sink_ops:
                    self.out_channels[(e.src, i)].append((e.src, i, e.dst, 0))
                elif e.routing == "forward":
                    ch = (e.src, i, e.dst, i)
                    self.out_channels[(e.src, i)].append(ch)
                    self.in_channels[(e.dst, i)].append(ch)
                else:  # hash
                    for j in range(n_workers):
                        ch = (e.src, i, e.dst, j)
                        self.out_channels[(e.src, i)].append(ch)
                        self.in_channels[(e.dst, j)].append(ch)

        # --- channel state -------------------------------------------------
        self.sent_seq: Dict[Channel, int] = {}
        self.recv_seq: Dict[Channel, int] = {}
        self.queues: Dict[Channel, deque] = {}
        self.in_ready: Dict[Channel, bool] = {}

        # --- worker state --------------------------------------------------
        self.busy_until = [0.0] * n_workers
        self.current: List[Optional[List[Message]]] = [None] * n_workers
        self.heads: List[list] = [[] for _ in range(n_workers)]

        # --- event loop ----------------------------------------------------
        self.heap: list = []
        #: source instance -> (its partition's records, arrival time floor,
        #: heap counter of offset 0) for the current schedule
        self._src_plan: Dict[InstanceId, Tuple[List[Record], float, int]] = {}
        self._counter = 0
        self.now = 0.0
        self.epoch = 0
        self.failed = False
        #: virtual time after which protocols stop scheduling new timers /
        #: rounds, so the event loop can drain to quiescence (set in run())
        self.horizon = float("inf")
        self.n_dedup_drops = 0
        self.n_dup_sink = 0
        self._extra_service = 0.0
        self._outbox: Optional[List[Message]] = None

        # implicit initial checkpoints (index 0) for every worker instance
        for inst in self.instances:
            self._store_checkpoint(inst, kind="initial", round_id=None, count=False, ts=0.0)

        self.protocol.bind(self)

    # ------------------------------------------------------------------ util
    def _push(self, t: float, kind: str, data: Any, epoch_exempt: bool = False) -> None:
        """Schedule an event of one of the four kinds :meth:`run` handles:
        ``arrive`` (a message reaches a worker), ``proc`` (a worker finishes
        a dispatch), ``sink`` (a message reaches the external sink) and
        ``call`` (``data(t)``: protocol timers, a worker kick after a
        checkpoint, and the failure, detection and resume steps)."""
        self._counter += 1
        epoch = -1 if epoch_exempt else self.epoch
        heapq.heappush(self.heap, (t, self._counter, kind, epoch, data))

    def call_at(self, t: float, fn: Callable[[float], None]) -> None:
        """Schedule a protocol callback (dropped on epoch change)."""
        self._push(max(t, self.now), "call", fn)

    def enqueue_trigger(self, inst: InstanceId, meta: dict) -> None:
        """Enqueue a coordinator trigger as an in-stream pseudo-message.

        The trigger is dispatched through the worker's CPU in arrival order
        like any record, which models two real effects at once: a marker can
        never overtake a record its source is mid-emitting (it would become
        an orphan across the aligned cut), and on a straggling worker the
        trigger — hence the source's marker — waits behind the backlog,
        which is the mechanism behind COOR's skew sensitivity (paper
        §VII-B, skewed NexMark).
        """
        msg = Message(
            kind=Kind.MARKER,
            channel=("__coord__", 0, inst[0], inst[1]),
            seq=0,
            record=None,
            payload_bytes=0,
        )
        msg.meta.update(meta)
        msg.meta["trigger"] = True
        self._enqueue(self.now, msg)

    # --------------------------------------------------------------- sources
    def _schedule_source_records(self, inst: InstanceId, t_floor: float) -> None:
        """Schedule the cursor's remaining records, arriving no earlier than
        ``t_floor``. Only the record at the cursor is pushed; the heap
        counters of the rest are reserved, one per record, and
        :meth:`_push_source_record` uses them as each predecessor pops."""
        cur = self.cursors[inst]
        records = cur.log.partitions[cur.partition]
        n_left = len(records) - cur.offset
        if n_left <= 0:
            return
        self._src_plan[inst] = (records, t_floor, self._counter + 1 - cur.offset)
        self._counter += n_left
        self._push_source_record(inst, cur.offset)

    def _push_source_record(self, inst: InstanceId, off: int) -> None:
        records, t_floor, base = self._src_plan[inst]
        if off >= len(records):
            return
        rec = records[off]
        msg = Message(
            kind=Kind.DATA, channel=(_SRC, 0, inst[0], inst[1]), seq=off, record=rec,
            payload_bytes=0,
        )
        heapq.heappush(
            self.heap, (max(rec.ingest_ts, t_floor), base + off, "arrive", self.epoch, msg)
        )

    # --------------------------------------------------------- channel plumb
    def _enqueue(self, t: float, msg: Message) -> None:
        ch = msg.channel
        msg.meta["arr"] = t
        q = self.queues.get(ch)
        if q is None:
            q = self.queues[ch] = deque()
        q.append(msg)
        if not self.in_ready.get(ch) and not self.protocol.is_blocked(ch):
            self.in_ready[ch] = True
            w = ch[3]
            heapq.heappush(self.heads[w], (t, self._counter, ch))
            self._counter += 1
            self._dispatch(w, t)

    def unblock_channel(self, ch: Channel) -> None:
        """Called by COOR when alignment completes for a channel."""
        q = self.queues.get(ch)
        if q and not self.in_ready.get(ch):
            self.in_ready[ch] = True
            w = ch[3]
            heapq.heappush(self.heads[w], (q[0].meta["arr"], self._counter, ch))
            self._counter += 1
            self._dispatch(w, self.now)

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, w: int, t: float) -> None:
        if self.failed or self.current[w] is not None or self.busy_until[w] > t:
            return
        heads = self.heads[w]
        while heads:
            arr, _, ch = heapq.heappop(heads)
            if not self.in_ready.get(ch):
                continue
            if self.protocol.is_blocked(ch):
                self.in_ready[ch] = False
                continue
            q = self.queues.get(ch)
            if not q:
                self.in_ready[ch] = False
                continue
            msg = q.popleft()
            if q:
                heapq.heappush(heads, (q[0].meta["arr"], self._counter, ch))
                self._counter += 1
            else:
                self.in_ready[ch] = False
            dur = self._process(w, ch, msg, t)
            if dur is None:
                continue  # duplicate dropped with zero cost
            self.busy_until[w] = t + dur
            self._push(t + dur, "proc", w)
            return

    def _process(self, w: int, ch: Channel, msg: Message, t: float) -> Optional[float]:
        cost = self.cost
        inst = (ch[2], ch[3])
        self._outbox = []
        self._extra_service = 0.0
        # reentrancy guard: protocol hooks (unblock_channel) may try to
        # re-dispatch this worker while we are mid-process
        self.current[w] = self._outbox
        spec = self.graph.ops[inst[0]]

        if ch[0] == _SRC:
            self.cursors[inst].advance()
            self.telemetry.n_source_emitted += 1
            service = cost.op_service("source")
            self._emit(t, inst, msg.record)
        elif msg.kind == Kind.MARKER:
            service = cost.op_service("marker")
            self.protocol.on_marker(t, inst, msg)
        else:
            prev = self.recv_seq.get(ch, 0)
            if msg.seq <= prev:
                self.n_dedup_drops += 1
                self._outbox = None
                self.current[w] = None
                return None
            extra = self.protocol.before_process(t, inst, msg)
            self._extra_service += extra
            self.recv_seq[ch] = msg.seq
            service = cost.op_service(spec.kind)
            service += cost.serialize_per_byte * msg.proto_bytes
            for rec in self.instances[inst].process(msg.record, ch[0]):
                self._emit(t, inst, rec)

        send_cost = sum(cost.serialize_per_byte * m.proto_bytes for m in self._outbox)
        dur = service + self._extra_service + send_cost
        self._outbox = None
        return dur

    def _emit(self, t: float, inst: InstanceId, rec: Record) -> None:
        op, idx = inst
        for edge, to_sink in self.routes[op]:
            targets = (0,) if to_sink else edge.route(rec, idx, self.W)
            for j in targets:
                ch = (op, idx, edge.dst, j)
                seq = self.sent_seq.get(ch, 0) + 1
                self.sent_seq[ch] = seq
                msg = Message(
                    kind=Kind.DATA,
                    channel=ch,
                    seq=seq,
                    record=rec,
                    payload_bytes=payload_bytes_for(rec),
                )
                self.protocol.on_send(t, inst, msg)
                self.telemetry.n_data_msgs += 1
                self.telemetry.data_payload_bytes += msg.payload_bytes
                self.telemetry.piggyback_bytes += msg.proto_bytes
                self._outbox.append(msg)

    def emit_marker(self, inst: InstanceId, round_id: int) -> None:
        """COOR: broadcast a marker on every non-sink outgoing channel.

        Markers do not consume data sequence numbers; channel-FIFO relative
        to data holds because arrival times are monotone in send times.
        """
        for ch in self.out_channels[inst]:
            if ch[2] in self.sink_ops:
                continue
            msg = Message(
                kind=Kind.MARKER,
                channel=ch,
                seq=self.sent_seq.get(ch, 0),
                record=None,
                payload_bytes=0,
                proto_bytes=MARKER_BYTES,
            )
            msg.meta["round"] = round_id
            self.telemetry.n_marker_msgs += 1
            self.telemetry.marker_bytes += MARKER_BYTES
            self._outbox.append(msg)

    # ----------------------------------------------------------- checkpoints
    def _store_checkpoint(
        self, inst: InstanceId, kind: str, round_id: Optional[int], count: bool,
        ts: float, extra_duration: float = 0.0,
    ) -> CheckpointMeta:
        spec = self.graph.ops[inst[0]]
        op = self.instances[inst]
        state = op.snapshot() if spec.stateful else None
        sb = op.state_bytes()
        meta = CheckpointMeta(
            instance=inst,
            index=len(self.store.checkpoints(inst)),
            ts=ts,
            kind=kind,
            round_id=round_id,
            state_bytes=sb,
            last_sent={ch: self.sent_seq.get(ch, 0) for ch in self.out_channels[inst]},
            last_recv={ch: self.recv_seq.get(ch, 0) for ch in self.in_channels[inst]},
            source_offset=self.cursors[inst].snapshot() if spec.is_source else None,
            duration=self.cost.snapshot_time(sb) + extra_duration,
        )
        self.store.put(StoredCheckpoint(meta=meta, state=state))
        if count and self.protocol.counts_in_totals(inst):
            self.telemetry.record_checkpoint(
                op=inst[0],
                idx=inst[1],
                index=meta.index,
                ts=ts,
                kind=kind,
                duration=meta.duration,
                state_bytes=sb,
                round_id=round_id,
            )
        return meta

    def take_checkpoint(
        self, inst: InstanceId, kind: str, round_id: Optional[int] = None,
        extra_duration: float = 0.0,
    ) -> CheckpointMeta:
        """Protocol-facing checkpoint: snapshot now, charge the synchronous
        part to the hosting worker, count it in telemetry. ``extra_duration``
        models protocol-specific persistence work (e.g. CIC's vectors)."""
        meta = self._store_checkpoint(
            inst, kind=kind, round_id=round_id, count=True, ts=self.now,
            extra_duration=extra_duration,
        )
        w = inst[1]
        if self.current[w] is not None:
            self._extra_service += self.cost.snapshot_sync
        else:
            self.busy_until[w] = max(self.busy_until[w], self.now) + self.cost.snapshot_sync
            self._push(self.busy_until[w], "call", partial(self._dispatch, w))
        return meta

    def log_proto_message(self, n_bytes: int) -> None:
        """Account a standalone protocol message (e.g. checkpoint metadata
        to the coordinator); these bypass worker CPUs."""
        self.telemetry.proto_msg_bytes += n_bytes

    # -------------------------------------------------------------- failures
    def _fail(self, t: float) -> None:
        self.failed = True
        self.epoch += 1
        self.queues.clear()
        self.in_ready.clear()
        self.heads = [[] for _ in range(self.W)]
        self.current = [None] * self.W
        self.busy_until = [t] * self.W
        self.telemetry.recovery["t_fail"] = t
        self._push(t + self.cost.detect_delay, "call", self._detect)

    def _detect(self, t: float) -> None:
        plan = self.protocol.plan_recovery(t)
        restore_bytes = 0
        for inst, idx in plan.line.items():
            restore_bytes = max(restore_bytes, self.store.get(inst, idx).meta.state_bytes)
        restart = self.cost.restart_time(restore_bytes, plan.n_replay, plan.ckpts_scanned)
        self.telemetry.recovery.update(
            t_detect=t,
            restart_time=restart,
            n_replay=plan.n_replay,
            invalid=plan.invalid,
            line_info=plan.info,
        )
        self._push(t + restart, "call", partial(self._resume, plan))

    def _resume(self, plan, t: float) -> None:
        for inst, idx in plan.line.items():
            cp = self.store.get(inst, idx)
            spec = self.graph.ops[inst[0]]
            if spec.stateful:
                self.instances[inst].restore(cp.state)
            if spec.is_source:
                self.cursors[inst].restore(cp.meta.source_offset or 0)
            for ch, s in cp.meta.last_sent.items():
                self.sent_seq[ch] = s
            for ch, s in cp.meta.last_recv.items():
                self.recv_seq[ch] = s
        self.failed = False
        for inst in self.cursors:
            self._schedule_source_records(inst, t + 1e-6)
        k = 0
        for ch in sorted(plan.replay.keys()):
            for seq, rec in plan.replay[ch]:
                msg = Message(
                    kind=Kind.DATA,
                    channel=ch,
                    seq=seq,
                    record=rec,
                    payload_bytes=payload_bytes_for(rec),
                )
                k += 1
                self._push(t + self.cost.channel_latency + k * 1e-7, "arrive", msg)
        self.telemetry.recovery["t_resume"] = t
        self.protocol.on_resume(t)

    # ------------------------------------------------------------------ sink
    def _sink_arrive(self, t: float, msg: Message) -> None:
        results = self.sink_results[msg.channel[2]]
        rec = msg.record
        if rec.uid in results:
            self.n_dup_sink += 1
            return
        results[rec.uid] = rec.value
        self.telemetry.latencies.append((t, rec.ingest_ts))
        self.telemetry.n_sinked += 1

    # ------------------------------------------------------------------- run
    def run(
        self,
        duration: float,
        fail_at: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> SimResult:
        """Run the workload to quiescence (all events drained).

        ``duration`` bounds the *workload* (sources only serve records with
        ingest_ts < duration — the topics are generated that way) and the
        protocol timer horizon; the event loop continues past it until every
        message has been processed, so latency tails and recovery behaviour
        are fully observed.
        """
        self.horizon = duration
        for inst in self.cursors:
            self._schedule_source_records(inst, 0.0)
        self.protocol.on_start()
        if fail_at is not None:
            self._push(fail_at, "call", self._fail, epoch_exempt=True)

        pops = 0
        heap = self.heap
        sink_ops = self.sink_ops
        while heap:
            pops += 1
            if pops > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            t, _, kind, epoch, data = heapq.heappop(heap)
            self.now = t
            if epoch not in (-1, self.epoch):
                continue  # stale (pre-failure) event
            if kind == "arrive":
                if data.channel[0] == _SRC:
                    self._push_source_record(data.channel[2:], data.seq + 1)
                if not self.failed:
                    self._enqueue(t, data)
            elif kind == "proc":
                w = data
                for m in self.current[w] or ():
                    if m.channel[2] in sink_ops:
                        self._push(t + self.cost.channel_latency, "sink", m, epoch_exempt=True)
                    else:
                        self._push(t + self.cost.channel_latency, "arrive", m)
                self.current[w] = None
                self._dispatch(w, t)
            elif kind == "sink":
                self._sink_arrive(t, data)
            else:  # "call"
                data(t)

        fingerprints = {
            inst: op.state_fingerprint()
            for inst, op in self.instances.items()
            if self.graph.ops[inst[0]].stateful
        }
        return SimResult(
            telemetry=self.telemetry,
            sink_results=self.sink_results,
            duration=self.now,
            n_dedup_drops=self.n_dedup_drops,
            n_duplicate_sink_arrivals=self.n_dup_sink,
            state_fingerprints=fingerprints,
            store=self.store,
            protocol_name=self.protocol.name,
        )
