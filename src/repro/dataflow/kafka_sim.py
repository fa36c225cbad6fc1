"""Replayable partitioned source log — the Apache Kafka substitute.

The checkpointing protocols only rely on two Kafka properties (paper §IV:
"Apache Kafka as a replayable fault-tolerant source"): per-partition FIFO
order and offset-based replay. ``ReplayableLog`` provides exactly that:
events are appended per partition ahead of the run; each source instance
consumes its own partition and checkpoints its offset; recovery rewinds
the offset and the exact same suffix is re-served.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .messages import Record


@dataclass
class ReplayableLog:
    """An append-only, partitioned, replayable event log for one topic."""

    topic: str
    partitions: List[List[Record]] = field(default_factory=list)

    @classmethod
    def from_records(cls, topic: str, records: List[Record], n_partitions: int) -> "ReplayableLog":
        """Distribute pre-generated records over partitions round-robin.

        Records must already be in ingest-time order; round-robin keeps each
        partition time-ordered.
        """
        parts: List[List[Record]] = [[] for _ in range(n_partitions)]
        for i, r in enumerate(records):
            parts[i % n_partitions].append(r)
        return cls(topic=topic, partitions=parts)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def total_events(self) -> int:
        return sum(len(p) for p in self.partitions)


class SourceCursor:
    """A source instance's consumer position on one partition.

    ``offset`` is the next record index to serve. Checkpointing a source
    under any protocol snapshots this integer; recovery assigns it back.
    """

    def __init__(self, log: ReplayableLog, partition: int):
        self.log = log
        self.partition = partition
        self.offset = 0

    def advance(self) -> None:
        self.offset += 1

    def snapshot(self) -> int:
        return self.offset

    def restore(self, offset: int) -> None:
        self.offset = offset
