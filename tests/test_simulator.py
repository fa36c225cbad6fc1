"""Tests for the discrete-event simulator's core mechanics."""
import gc
import heapq

import pytest

from helpers import make_protocol, run_query
from repro.core.config import ExperimentConfig, build
from repro.dataflow import simulator as sim_mod
from repro.dataflow.costs import SimCost
from repro.dataflow.messages import Kind, Message, Record
from repro.dataflow.simulator import _SRC, Simulation
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import NoneProtocol


def tiny(qname="q1", rate=200.0, duration=4.0, w=2, seed=0, **kw):
    topics = topics_for_query(qname, rate=rate, duration=duration, n_workers=w, seed=seed)
    return Simulation(QUERIES[qname](), w, NoneProtocol(), topics, seed=seed, **kw)


class TestBasicExecution:
    def test_all_records_reach_sink(self):
        res = tiny().run(4.0)
        assert res.telemetry.n_sinked == res.telemetry.n_source_emitted == 800

    def test_no_duplicates_without_failure(self):
        res = tiny().run(4.0)
        assert res.n_duplicate_sink_arrivals == 0 and res.n_dedup_drops == 0

    def test_latency_positive_and_bounded(self):
        res = tiny().run(4.0)
        lats = [s - i for s, i in res.telemetry.latencies]
        assert all(l > 0 for l in lats)
        assert min(lats) >= 2 * SimCost().channel_latency  # two hops

    def test_deterministic_rerun(self):
        r1, r2 = tiny().run(4.0), tiny().run(4.0)
        assert r1.sink_values() == r2.sink_values()
        assert r1.telemetry.latencies == r2.telemetry.latencies

    def test_duration_is_quiescence_time(self):
        res = tiny().run(4.0)
        assert res.duration >= 4.0

    def test_throughput_limited_by_capacity(self):
        # way-over-capacity input drains slower than its nominal duration
        res = tiny(rate=2000.0).run(4.0)
        assert res.duration > 5.0
        assert res.telemetry.n_sinked == 8000

    def test_source_partition_mismatch_rejected(self):
        topics = topics_for_query("q1", rate=10, duration=1, n_workers=3)
        with pytest.raises(ValueError, match="partitions"):
            Simulation(QUERIES["q1"](), 2, NoneProtocol(), topics)

    def test_initial_checkpoints_stored_for_all_instances(self):
        sim = tiny(w=3)
        assert sim.store.total_count() == 3 * 2  # src + map, 3 workers
        assert all(
            sim.store.get(i, 0).meta.kind == "initial" for i in sim.store.instances()
        )


class TestChannelFifo:
    def test_per_channel_seqs_dense(self):
        sim = tiny()
        sim.run(4.0)
        for ch, n in sim.sent_seq.items():
            if ch[2] != "sink":
                assert sim.recv_seq.get(ch, 0) == n  # everything delivered

    def test_sink_arrival_order_monotone_per_channel(self):
        res = tiny().run(4.0)
        # arrivals at the sink are time-ordered overall (single collector)
        times = [t for t, _ in res.telemetry.latencies]
        assert times == sorted(times)


class TestSink:
    def test_dedups_by_uid(self):
        sim = tiny()
        rec = Record(uid="a", key=1, value={"v": 1}, ingest_ts=0.5)
        for t in (1.0, 2.0):
            msg = Message(kind=Kind.DATA, channel=("map", 0, "sink", 0), seq=1,
                          record=rec, payload_bytes=0)
            sim._sink_arrive(t, msg)
        assert sim.sink_results == {"sink": {"a": {"v": 1}}}
        assert sim.n_dup_sink == 1
        assert sim.telemetry.latencies == [(1.0, 0.5)]  # first arrival only


class TestFailureFree:
    def test_none_protocol_takes_no_checkpoints(self):
        res = tiny().run(4.0)
        assert res.telemetry.checkpoints == [] and res.telemetry.rounds == []

    def test_none_protocol_cannot_recover(self):
        with pytest.raises(RuntimeError, match="cannot recover"):
            tiny().run(4.0, fail_at=2.0)


class TestFailureInjection:
    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    def test_recovery_bookkeeping_complete(self, protocol):
        res = run_query("q1", protocol, fail_at=6.0)
        rec = res.telemetry.recovery
        assert rec["t_fail"] == 6.0
        assert rec["t_detect"] == rec["t_fail"] + SimCost().detect_delay
        assert rec["t_resume"] == rec["t_detect"] + rec["restart_time"]
        assert rec["restart_time"] > 0

    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    def test_all_records_eventually_sinked(self, protocol):
        res = run_query("q1", protocol, fail_at=6.0)
        assert len(res.sink_values()) == 4000  # every bid mapped exactly once

    def test_failure_creates_latency_spike(self):
        res = run_query("q1", "UNC", fail_at=6.0)
        lats = [(s, s - i) for s, i in res.telemetry.latencies]
        pre = max(l for s, l in lats if s < 6.0)
        post = max(l for s, l in lats if s >= 6.0)
        assert post > 10 * pre  # replayed records carry their old ingest ts

    @pytest.mark.parametrize("protocol", ["UNC", "COOR"])
    def test_run_loop_sees_four_event_kinds(self, protocol, monkeypatch):
        """Kicks, failure, detection and resume are ``call`` events."""
        kinds = set()

        class RecordingHeapq:
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heappush(heap, item):
                if len(item) == 5:  # (t, counter, kind, epoch, data)
                    kinds.add(item[2])
                heapq.heappush(heap, item)

        monkeypatch.setattr(sim_mod, "heapq", RecordingHeapq)
        topics = topics_for_query("q12", rate=400, duration=10, n_workers=4, seed=1)
        sim = Simulation(QUERIES["q12"](), 4, make_protocol(protocol), topics, seed=0)
        rec = sim.run(10.0, fail_at=6.0).telemetry.recovery
        assert rec["t_resume"] > rec["t_fail"]  # the failure and recovery ran
        assert kinds == {"arrive", "proc", "sink", "call"}


class TestSourceScheduling:
    def test_unordered_partition_rejected(self):
        topics = topics_for_query("q1", rate=10, duration=2, n_workers=2)
        part = topics["bids"].partitions[1]
        part[2], part[3] = part[3], part[2]
        with pytest.raises(ValueError, match="topic 'bids' partition 1 is not in ingest-time order"):
            Simulation(QUERIES["q1"](), 2, NoneProtocol(), topics)

    @pytest.mark.parametrize("fail_at", [None, 3.0])
    def test_heap_holds_one_arrival_per_source(self, fail_at):
        topics = topics_for_query("q3", rate=400, duration=6, n_workers=3, seed=1)
        sim = Simulation(QUERIES["q3"](), 3, make_protocol("UNC"), topics, seed=0)
        pending = []

        def probe(t):
            pending.append(
                sum(1 for e in sim.heap if e[2] == "arrive" and e[4].channel[0] == _SRC)
            )

        sim.call_at(1.0, probe)
        on_resume = sim.protocol.on_resume

        def probe_after_resume(t):
            on_resume(t)
            sim.call_at(t + 0.5, probe)

        sim.protocol.on_resume = probe_after_resume
        sim.run(6.0, fail_at=fail_at)
        assert len(pending) == (1 if fail_at is None else 2)
        assert all(0 < n <= len(sim.cursors) for n in pending)


class TestByteAccounting:
    def test_total_is_sum_of_parts(self):
        res = run_query("q12", "CIC", fail_at=None)
        t = res.telemetry
        assert t.total_message_bytes() == (
            t.data_payload_bytes + t.piggyback_bytes + t.marker_bytes + t.proto_msg_bytes
        )

    def test_none_has_zero_protocol_bytes(self):
        t = tiny().run(4.0).telemetry
        assert t.piggyback_bytes == t.marker_bytes == t.proto_msg_bytes == 0

    def test_telemetry_frames_shapes(self):
        res = run_query("q12", "UNC", fail_at=6.0)
        cf = res.telemetry.checkpoints_frame()
        assert set(cf.columns) >= {"op", "instance", "index", "ts", "kind", "duration"}


class TestMemory:
    """``run`` turns the cyclic garbage collector off for its loop, so a
    finished simulation must be freed by reference counting alone."""

    @pytest.mark.parametrize("query,protocol", [
        ("q3", "COOR"), ("q3", "UNC"), ("q3", "CIC"),
        ("q12", "COOR"), ("q12", "UNC"), ("q12", "CIC"),
        ("cyclic", "UNC"), ("cyclic", "CIC"),
    ])
    def test_finished_run_leaves_no_cyclic_garbage(self, query, protocol):
        cfg = ExperimentConfig(
            query=query, protocol=protocol, workers=3,
            rate=200.0 if query == "cyclic" else 600.0,
            duration=6.0, fail_at=3.0, n_nodes=2000,
        )
        gc.collect()
        sim = build(cfg)
        res = sim.run(cfg.duration, fail_at=cfg.fail_at)
        assert res.telemetry.recovery["t_resume"] > 3.0  # failure and recovery ran
        del sim, res
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored_after_run(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            tiny().run(4.0)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_restored_when_run_raises(self):
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="exceeded 100 events"):
            tiny().run(4.0, max_events=100)
        assert gc.isenabled()
