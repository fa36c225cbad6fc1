"""Unit tests for the replayable log (Kafka substitute) and the durable
checkpoint / message-log stores (Minio substitute)."""
import pytest

from repro.dataflow.kafka_sim import ReplayableLog, SourceCursor
from repro.dataflow.messages import Record
from repro.dataflow.state import (
    CheckpointMeta,
    CheckpointStore,
    MessageLog,
    StoredCheckpoint,
)


def recs(n):
    return [
        Record(uid=f"r{i}", key=i, value={"i": i}, ingest_ts=float(i), kind="event")
        for i in range(n)
    ]


class TestReplayableLog:
    def test_round_robin_partitioning(self):
        log = ReplayableLog.from_records("t", recs(10), 3)
        assert [len(part) for part in log.partitions] == [4, 3, 3]

    def test_partitions_time_ordered(self):
        log = ReplayableLog.from_records("t", recs(10), 3)
        for part in log.partitions:
            ts = [r.ingest_ts for r in part]
            assert ts == sorted(ts)

    def test_total_events(self):
        assert ReplayableLog.from_records("t", recs(7), 2).total_events() == 7


class TestSourceCursor:
    def test_replay_same_suffix_after_restore(self):
        log = ReplayableLog.from_records("t", recs(6), 1)
        cur = SourceCursor(log, 0)
        for _ in range(3):
            cur.advance()
        snap = cur.snapshot()

        def drain3():
            out = []
            for _ in range(3):
                out.append(cur.log.partitions[cur.partition][cur.offset].uid)
                cur.advance()
            return out

        rest = drain3()
        cur.restore(snap)
        assert drain3() == rest == ["r3", "r4", "r5"]


def meta(inst, index, ts=0.0, last_sent=None, last_recv=None):
    return CheckpointMeta(
        instance=inst, index=index, ts=ts, kind="local", round_id=None,
        state_bytes=10, last_sent=last_sent or {}, last_recv=last_recv or {},
    )


class TestCheckpointStore:
    def test_put_get_roundtrip(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), state={"x": 1}))
        assert st.get(("a", 0), 0).state == {"x": 1}

    def test_dense_indices_enforced(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), None))
        with pytest.raises(AssertionError):
            st.put(StoredCheckpoint(meta(("a", 0), 5), None))

    def test_counts(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), None))
        st.put(StoredCheckpoint(meta(("b", 1), 0), None))
        assert st.total_count() == 2
        assert st.counts_by_kind() == {"local": 2}
        assert st.instances() == [("a", 0), ("b", 1)]


class TestMessageLog:
    def test_replay_range_inclusive_exclusive(self):
        ml = MessageLog()
        ch = ("a", 0, "b", 0)
        for s in range(1, 6):
            ml.append(ch, s, f"m{s}")
        assert [s for s, _ in ml.replay_range(ch, 2, 4)] == [3, 4]

    def test_replay_range_empty_channel(self):
        assert MessageLog().replay_range(("x", 0, "y", 0), 0, 10) == []

    def test_replay_preserves_order(self):
        ml = MessageLog()
        ch = ("a", 0, "b", 0)
        for s in [1, 2, 3, 4]:
            ml.append(ch, s, s * 10)
        assert [r for _, r in ml.replay_range(ch, 0, 4)] == [10, 20, 30, 40]

    def test_total_logged(self):
        ml = MessageLog()
        ml.append(("a", 0, "b", 0), 1, "x")
        ml.append(("a", 0, "c", 0), 1, "y")
        assert ml.total_logged() == 2
