"""Durable checkpoint store — the Minio substitute.

Checkpoints (operator-state snapshots plus the channel-counter metadata the
recovery-line algorithm needs) are kept in a store that survives simulated
worker failures. Persistence cost is *modelled* (serialize + upload time in
``SimCost``), not re-measured, because absolute storage bandwidth is a
testbed property, not a protocol property.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .messages import Channel, InstanceId


@dataclass
class CheckpointMeta:
    """Metadata persisted with every checkpoint.

    ``last_sent``/``last_recv`` are the per-channel sequence counters at
    snapshot time. They serve three roles (paper §III-B): finding the
    recovery line (orphan detection), choosing the replay interval per
    channel, and receiver-side deduplication after rollback.
    """

    instance: InstanceId
    index: int  #: per-instance checkpoint ordinal (0-based)
    ts: float  #: virtual time the snapshot was taken
    kind: str  #: "local" | "forced" | "coordinated"
    round_id: Optional[int]  #: COOR round, None otherwise
    state_bytes: int
    last_sent: Dict[Channel, int] = field(default_factory=dict)
    last_recv: Dict[Channel, int] = field(default_factory=dict)
    source_offset: Optional[int] = None
    duration: float = 0.0  #: modelled checkpointing time for this snapshot


@dataclass
class StoredCheckpoint:
    meta: CheckpointMeta
    state: Any  #: operator state from ``snapshot()``: copied containers, shared record values


class CheckpointStore:
    """Durable store of checkpoints, keyed by instance, ordered by index."""

    def __init__(self):
        self._by_instance: Dict[InstanceId, List[StoredCheckpoint]] = {}

    def put(self, cp: StoredCheckpoint) -> None:
        lst = self._by_instance.setdefault(cp.meta.instance, [])
        assert cp.meta.index == len(lst), "checkpoint indices must be dense"
        lst.append(cp)

    def checkpoints(self, inst: InstanceId) -> List[StoredCheckpoint]:
        return self._by_instance.get(inst, [])

    def get(self, inst: InstanceId, index: int) -> StoredCheckpoint:
        return self._by_instance[inst][index]

    def instances(self) -> List[InstanceId]:
        return sorted(self._by_instance.keys())

    def total_count(self) -> int:
        return sum(len(v) for v in self._by_instance.values())

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for lst in self._by_instance.values():
            for cp in lst:
                out[cp.meta.kind] = out.get(cp.meta.kind, 0) + 1
        return out


class MessageLog:
    """Durable sender-side message log (upstream backup, paper §III-B).

    UNC/CIC log every data message per channel at send time. After a
    rollback to a recovery line, the messages in the interval
    ``(receiver_ckpt.last_recv, sender_ckpt.last_sent]`` per channel are
    the in-flight messages of Def. 5 and are replayed from here.
    """

    def __init__(self):
        self._log: Dict[Channel, List[Tuple[int, Any]]] = {}

    def append(self, channel: Channel, seq: int, record: Any) -> None:
        self._log.setdefault(channel, []).append((seq, record))

    def replay_range(self, channel: Channel, after_seq: int, upto_seq: int) -> List[Tuple[int, Any]]:
        """Logged (seq, record) with after_seq < seq <= upto_seq, in order."""
        return [
            (s, r)
            for (s, r) in self._log.get(channel, [])
            if after_seq < s <= upto_seq
        ]

    def total_logged(self) -> int:
        return sum(len(v) for v in self._log.values())
