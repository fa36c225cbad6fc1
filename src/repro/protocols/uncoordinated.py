"""Uncoordinated checkpointing — UNC (paper §III-B).

Every participating operator instance snapshots on its own local timer
(independent intervals + deterministic jitter). Exactly-once needs two
extra mechanisms the paper calls out:

- **Upstream backup / message logging**: every worker-to-worker data
  message is appended to a durable sender-side log at send time. After a
  rollback to a recovery line, the per-channel interval
  ``(receiver.last_recv, sender.last_sent]`` is replayed from the log —
  these are exactly the in-flight messages of Def. 5.
- **Deduplication**: receivers drop messages whose per-channel sequence
  number is not beyond their restored counter.

Stateless non-source operators do not take counted state checkpoints
(paper: "the stateless, non-source operators do not need to participate");
they do persist their channel counters (cheap metadata-only checkpoints)
so the recovery line is well defined on every channel.
"""
from __future__ import annotations

from typing import Dict, Optional

from repro.dataflow.messages import CKPT_META_BYTES, InstanceId, Kind, Message

from .base import Protocol, RecoveryPlan
from .recovery import find_recovery_line


class UncoordinatedProtocol(Protocol):
    """UNC: independent checkpoints + message logging + rollback propagation."""

    name = "UNC"
    supports_cycles = True
    features = {
        "blocking_markers": False,
        "inflight_logging": True,
        "dedup_required": True,
        "message_overhead": False,
        "independent_checkpoints": True,
        "straggler_stalls": False,
        "unused_checkpoints": True,
        "forced_checkpoints": False,
    }

    def __init__(self, interval: float = 4.0, intervals: Optional[Dict[str, float]] = None,
                 jitter: float = 0.05):
        """``interval`` is the default checkpoint period; ``intervals`` may
        override it per logical operator (§III-B: "different operators can
        have different checkpoint intervals")."""
        super().__init__()
        self.interval = interval
        self.intervals = intervals or {}
        self.jitter = jitter
        self._period: Dict[InstanceId, float] = {}

    # -- timers ------------------------------------------------------------
    def bind(self, sim) -> None:
        super().bind(sim)
        rng = sim.rng
        for inst in sim.instances:
            if sim.graph.ops[inst[0]].is_sink:
                continue
            base = self.intervals.get(inst[0], self.interval)
            self._period[inst] = base * (1.0 + self.jitter * (2 * rng.random() - 1))

    def on_start(self) -> None:
        rng = self.sim.rng
        for inst, period in self._period.items():
            first = period * (0.25 + 0.75 * rng.random())
            self.sim.call_at(first, self._make_timer(inst))

    def on_resume(self, t: float) -> None:
        rng = self.sim.rng
        for inst, period in self._period.items():
            self.sim.call_at(t + period * (0.25 + 0.75 * rng.random()), self._make_timer(inst))

    def _make_timer(self, inst: InstanceId):
        def fire(t: float) -> None:
            if t >= self.sim.horizon:
                return  # workload over: stop checkpointing, let the run drain
            self.on_local_checkpoint(inst)
            self.sim.call_at(t + self._period[inst], fire)

        return fire

    def checkpoint_extra_duration(self, inst: InstanceId) -> float:
        """Protocol-state persistence time on top of the state snapshot
        (zero for UNC; CIC persists its vectors too)."""
        return 0.0

    def on_local_checkpoint(self, inst: InstanceId, kind: str = "local") -> None:
        self.sim.take_checkpoint(
            inst, kind, extra_duration=self.checkpoint_extra_duration(inst)
        )
        # checkpoint metadata announced to the coordinator (Table II: the
        # only message overhead UNC introduces)
        self.sim.log_proto_message(CKPT_META_BYTES)

    # -- data path ---------------------------------------------------------
    def on_send(self, t: float, inst: InstanceId, msg: Message) -> None:
        if msg.kind is Kind.DATA and msg.channel[2] not in self.sim.sink_ops:
            self.sim.msg_log.append(msg.channel, msg.seq, msg.record)

    # -- recovery ----------------------------------------------------------
    def plan_recovery(self, t_detect: float) -> RecoveryPlan:
        sim = self.sim
        instances = list(sim.instances.keys())
        line = find_recovery_line(sim.store, instances, sim.out_channels)
        # Table III counts only source/stateful checkpoints
        invalid = sum(
            (len(sim.store.checkpoints(i)) - 1) - line[i]
            for i in instances
            if self.counts_in_totals(i)
        )
        replay = {}
        for inst in instances:
            a_meta = sim.store.get(inst, line[inst]).meta
            for ch in sim.out_channels[inst]:
                dst = (ch[2], ch[3])
                if dst not in sim.instances:
                    continue  # external sink: in-flight messages still arrive
                b_meta = sim.store.get(dst, line[dst]).meta
                after = b_meta.last_recv.get(ch, 0)
                upto = a_meta.last_sent.get(ch, 0)
                if upto > after:
                    msgs = sim.msg_log.replay_range(ch, after, upto)
                    if msgs:
                        replay[ch] = msgs
        return RecoveryPlan(
            line=line,
            replay=replay,
            invalid=invalid,
            ckpts_scanned=sum(len(sim.store.checkpoints(i)) for i in instances),
        )
