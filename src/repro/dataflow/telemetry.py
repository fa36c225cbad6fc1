"""Telemetry collected during a simulation run.

One run produces small pandas frames (checkpoints, rounds, recovery) plus
aggregate byte counters and the sink latency log, which
:func:`repro.core.harness.metrics_row` flattens into one metrics row.
Keeping per-message data as counters (not rows) bounds memory at 50-worker
scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import pandas as pd


@dataclass
class Telemetry:
    """Mutable collector passed through the simulator."""

    # message traffic byte counters, split the way Table II needs them
    data_payload_bytes: int = 0
    piggyback_bytes: int = 0  #: CIC vectors riding on data messages
    marker_bytes: int = 0  #: COOR markers
    proto_msg_bytes: int = 0  #: standalone protocol messages (UNC ckpt meta)
    n_data_msgs: int = 0
    n_marker_msgs: int = 0

    # checkpoints: one row per snapshot
    checkpoints: List[dict] = field(default_factory=list)
    # COOR rounds: one row per completed round
    rounds: List[dict] = field(default_factory=list)
    # sink latency samples: (sink_ts, ingest_ts)
    latencies: List[tuple] = field(default_factory=list)
    # recovery bookkeeping for the (single) injected failure
    recovery: Dict[str, Any] = field(default_factory=dict)
    # counters of workload progress
    n_source_emitted: int = 0
    n_sinked: int = 0

    def record_checkpoint(
        self,
        *,
        op: str,
        idx: int,
        index: int,
        ts: float,
        kind: str,
        duration: float,
        state_bytes: int,
        round_id: Optional[int] = None,
    ) -> None:
        self.checkpoints.append(
            dict(
                op=op,
                instance=idx,
                index=index,
                ts=ts,
                kind=kind,
                duration=duration,
                state_bytes=state_bytes,
                round_id=round_id,
            )
        )

    def record_round(self, round_id: int, start: float, end: float, n_snapshots: int) -> None:
        self.rounds.append(
            dict(round_id=round_id, start=start, end=end, duration=end - start, n_snapshots=n_snapshots)
        )

    # -- frame exports -----------------------------------------------------
    def checkpoints_frame(self) -> pd.DataFrame:
        cols = ["op", "instance", "index", "ts", "kind", "duration", "state_bytes", "round_id"]
        return pd.DataFrame(self.checkpoints, columns=cols)

    def rounds_frame(self) -> pd.DataFrame:
        cols = ["round_id", "start", "end", "duration", "n_snapshots"]
        return pd.DataFrame(self.rounds, columns=cols)

    def total_message_bytes(self) -> int:
        return (
            self.data_payload_bytes
            + self.piggyback_bytes
            + self.marker_bytes
            + self.proto_msg_bytes
        )
