"""Unit tests for operator behaviours: semantics, idempotence, snapshots."""
import copy

import pytest

from repro.dataflow.messages import Record
from repro.dataflow.operators import (
    CyclicJoinOp,
    CyclicProjectOp,
    CyclicSelectOp,
    FilterOp,
    IncrementalJoinOp,
    MapOp,
    PassThrough,
    SinkOp,
    WindowCountOp,
    WindowJoinOp,
)


def rec(uid, key, value, ts=0.0, kind="event"):
    return Record(uid=uid, key=key, value=value, ingest_ts=ts, kind=kind)


class TestMapFilter:
    def test_map_transforms(self):
        op = MapOp(0, 1, fn=lambda v: {"x": v["x"] * 2}, out_kind="m")
        out = op.process(rec("a", 1, {"x": 3}), "src")
        assert len(out) == 1 and out[0].value == {"x": 6} and out[0].kind == "m"

    def test_map_uid_derived(self):
        op = MapOp(0, 1, fn=lambda v: v, out_kind="m")
        assert op.process(rec("a", 1, {}), "src")[0].uid == "a/m"

    def test_filter_keeps(self):
        op = FilterOp(0, 1, pred=lambda v: v["x"] > 0)
        assert len(op.process(rec("a", 1, {"x": 1}), "s")) == 1

    def test_filter_drops(self):
        op = FilterOp(0, 1, pred=lambda v: v["x"] > 0)
        assert op.process(rec("a", 1, {"x": -1}), "s") == []

    def test_passthrough(self):
        op = PassThrough(0, 1)
        r = rec("a", 1, {})
        assert op.process(r, "s") == [r]

    def test_stateless_ops_have_no_state(self):
        for op in [MapOp(0, 1, fn=lambda v: v, out_kind="m"), FilterOp(0, 1, pred=bool)]:
            assert op.state_bytes() == 0 and op.snapshot() is None


def make_join():
    return IncrementalJoinOp(
        0, 1, left_op="L", right_op="R",
        emit=lambda l, r: (f"j:{l['id']}:{r['id']}", l["id"], {"l": l["id"], "r": r["id"]}),
        out_kind="pair",
    )


class TestIncrementalJoin:
    def test_no_match_no_output(self):
        j = make_join()
        assert j.process(rec("l1", 1, {"id": 1}), "L") == []

    def test_pair_emitted_on_second_arrival(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        out = j.process(rec("r1", 1, {"id": 9}), "R")
        assert [o.uid for o in out] == ["j:1:9"]

    def test_pair_emitted_once_regardless_of_order(self):
        j1, j2 = make_join(), make_join()
        a, b = rec("l1", 1, {"id": 1}), rec("r1", 1, {"id": 9})
        out1 = j1.process(a, "L") + j1.process(b, "R")
        out2 = j2.process(b, "R") + j2.process(a, "L")
        assert {o.uid for o in out1} == {o.uid for o in out2} == {"j:1:9"}

    def test_duplicate_input_is_noop(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        j.process(rec("r1", 1, {"id": 9}), "R")
        assert j.process(rec("r1", 1, {"id": 9}), "R") == []

    def test_multi_match_fanout(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        j.process(rec("l2", 1, {"id": 2}), "L")
        out = j.process(rec("r1", 1, {"id": 9}), "R")
        assert {o.uid for o in out} == {"j:1:9", "j:2:9"}

    def test_snapshot_restore_roundtrip(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        snap = j.snapshot()
        j.process(rec("r1", 1, {"id": 9}), "R")
        fp_after = j.state_fingerprint()
        j.restore(snap)
        assert j.state_fingerprint() != fp_after
        out = j.process(rec("r1", 1, {"id": 9}), "R")  # re-derivable
        assert [o.uid for o in out] == ["j:1:9"]

    def test_state_bytes_grow(self):
        j = make_join()
        b0 = j.state_bytes()
        j.process(rec("l1", 1, {"id": 1}), "L")
        assert j.state_bytes() > b0

    def test_fingerprint_order_independent(self):
        j1, j2 = make_join(), make_join()
        a, b = rec("l1", 1, {"id": 1}), rec("l2", 2, {"id": 2})
        j1.process(a, "L"); j1.process(b, "L")
        j2.process(b, "L"); j2.process(a, "L")
        assert j1.state_fingerprint() == j2.state_fingerprint()


def make_wjoin(window=10.0):
    return WindowJoinOp(
        0, 1, left_op="L", right_op="R", window=window,
        emit=lambda l, r, w: (f"w:{l['id']}:{r['id']}:{w}", l["id"], {"w": w}),
        out_kind="pair",
    )


class TestWindowJoin:
    def test_same_window_match(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        out = j.process(rec("r1", 1, {"id": 9}, ts=7.0), "R")
        assert [o.uid for o in out] == ["w:1:9:0"]

    def test_cross_window_no_match(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        assert j.process(rec("r1", 1, {"id": 9}, ts=13.0), "R") == []

    def test_eviction_after_horizon(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")  # window 0
        j.process(rec("l2", 1, {"id": 2}, ts=25.0), "L")  # window 2 -> evict 0
        assert 0 not in j.windows

    def test_late_record_for_evicted_window_dropped(self):
        j = make_wjoin()
        j.process(rec("l2", 1, {"id": 2}, ts=25.0), "L")
        assert j.process(rec("r0", 1, {"id": 9}, ts=3.0), "R") == []

    def test_duplicate_noop(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        assert j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L") == []

    def test_snapshot_restore(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        snap = j.snapshot()
        j.process(rec("l2", 1, {"id": 2}, ts=25.0), "L")
        j.restore(snap)
        assert j.max_window == 0 and 0 in j.windows


class TestWindowCount:
    def test_running_counts(self):
        c = WindowCountOp(0, 1, window=10.0, out_kind="o")
        o1 = c.process(rec("b1", 5, {}, ts=1.0), "s")
        o2 = c.process(rec("b2", 5, {}, ts=2.0), "s")
        assert o1[0].value["count"] == 1 and o2[0].value["count"] == 2

    def test_replayed_record_not_double_counted(self):
        c = WindowCountOp(0, 1, window=10.0, out_kind="o")
        c.process(rec("b1", 5, {}, ts=1.0), "s")
        assert c.process(rec("b1", 5, {}, ts=1.0), "s") == []
        out = c.process(rec("b2", 5, {}, ts=2.0), "s")
        assert out[0].value["count"] == 2

    def test_per_key_per_window(self):
        c = WindowCountOp(0, 1, window=10.0, out_kind="o")
        c.process(rec("b1", 5, {}, ts=1.0), "s")
        o = c.process(rec("b2", 6, {}, ts=1.0), "s")
        assert o[0].value["count"] == 1
        o = c.process(rec("b3", 5, {}, ts=11.0), "s")
        assert o[0].value["count"] == 1 and o[0].value["window"] == 1

    def test_uid_content_addressed(self):
        c = WindowCountOp(0, 1, window=10.0, out_kind="o")
        out = c.process(rec("b1", 5, {}, ts=1.0), "s")
        assert out[0].uid == "q12:5:0:1"

    def test_snapshot_restore(self):
        c = WindowCountOp(0, 1, window=10.0, out_kind="o")
        c.process(rec("b1", 5, {}, ts=1.0), "s")
        snap = c.snapshot()
        c.process(rec("b2", 5, {}, ts=2.0), "s")
        c.restore(snap)
        out = c.process(rec("b2", 5, {}, ts=2.0), "s")
        assert out[0].value["count"] == 2


class TestSink:
    def test_dedups_by_uid(self):
        s = SinkOp(0, 1)
        s._now = 1.0
        s.process(rec("a", 1, {"v": 1}), "x")
        s.process(rec("a", 1, {"v": 1}), "x")
        assert len(s.results) == 1 and len(s.arrivals) == 2


def make_cjoin():
    return CyclicJoinOp(0, 1, link_op="L", source_op="S", loop_op="P")


def link(uid, u, v, op="add_link"):
    return rec(uid, u, {"op": op, "u": u, "v": v}, kind="link")


def srcn(uid, s, path=None, op="source"):
    v = {"op": op, "s": s}
    if op == "source":
        v["path"] = tuple(path or (s,))
    return rec(uid, s, v, kind="source_node")


class TestCyclicJoin:
    def test_link_then_source_joins(self):
        j = make_cjoin()
        j.process(link("l1", 1, 2), "L")
        out = j.process(srcn("s1", 1), "S")
        assert len(out) == 1 and out[0].value["link"] == (1, 2)

    def test_source_then_link_joins(self):
        j = make_cjoin()
        j.process(srcn("s1", 1), "S")
        out = j.process(link("l1", 1, 2), "L")
        assert len(out) == 1

    def test_del_link_removes(self):
        j = make_cjoin()
        j.process(link("l1", 1, 2), "L")
        j.process(link("d1", 1, 2, op="del_link"), "L")
        assert j.process(srcn("s1", 1), "S") == []

    def test_del_source_removes_all_derived(self):
        j = make_cjoin()
        j.process(srcn("s1", 7), "S")
        j.process(srcn("s2", 7, path=(7, 3)), "S")
        j.process(srcn("d", 7, op="del_source"), "S")
        assert j.process(link("l1", 7, 9), "L") == []
        assert j.process(link("l2", 3, 9), "L") == []

    def test_pair_uid_content_addressed(self):
        j1, j2 = make_cjoin(), make_cjoin()
        o1 = (j1.process(link("l1", 1, 2), "L") or []) + j1.process(srcn("s1", 1), "S")
        o2 = (j2.process(srcn("s1", 1), "S") or []) + j2.process(link("l1", 1, 2), "L")
        assert {o.uid for o in o1} == {o.uid for o in o2}

    def test_snapshot_restore(self):
        j = make_cjoin()
        j.process(link("l1", 1, 2), "L")
        snap = j.snapshot()
        j.process(link("l2", 1, 3), "L")
        j.restore(snap)
        assert j.state_fingerprint()[0] == ((1, ((1, 2),)),)


class TestCyclicSelectProject:
    def _pair(self, path, l):
        return rec("p", l[1], {"src": path[0], "path": tuple(path), "link": tuple(l)},
                   kind="pair")

    def test_select_drops_cycles(self):
        s = CyclicSelectOp(0, 1)
        assert s.process(self._pair((1, 2), (2, 1)), "j") == []

    def test_select_keeps_simple_extension(self):
        s = CyclicSelectOp(0, 1)
        assert len(s.process(self._pair((1, 2), (2, 3)), "j")) == 1

    def test_select_caps_path_length(self):
        s = CyclicSelectOp(0, 1)
        long_path = tuple(range(CyclicSelectOp.MAX_PATH_LEN))
        assert s.process(self._pair(long_path, (long_path[-1], 999)), "j") == []

    def test_project_extends_path(self):
        p = CyclicProjectOp(0, 1)
        out = p.process(self._pair((1, 2), (2, 3)), "s")
        assert out[0].value["path"] == (1, 2, 3)
        assert out[0].uid == "path:1:1-2-3"
        assert out[0].key == 3


#: stateful operator -> (factory, inputs before the snapshot, inputs after
#: it). The later inputs grow a key the snapshot already holds, add new
#: keys, and delete or evict state, so every container level is mutated.
SNAPSHOT_CASES = {
    "IncrementalJoinOp": (
        make_join,
        [(rec("l1", 1, {"id": 1}), "L"), (rec("r1", 1, {"id": 9}), "R")],
        [(rec("l2", 1, {"id": 2}), "L"), (rec("r2", 1, {"id": 8}), "R"),
         (rec("l3", 2, {"id": 3}), "L")],
    ),
    "WindowJoinOp": (
        make_wjoin,
        [(rec("l1", 1, {"id": 1}, ts=3.0), "L"), (rec("r1", 1, {"id": 9}, ts=4.0), "R")],
        [(rec("l2", 1, {"id": 2}, ts=5.0), "L"), (rec("r2", 2, {"id": 8}, ts=6.0), "R"),
         (rec("l3", 1, {"id": 3}, ts=35.0), "L")],
    ),
    "WindowCountOp": (
        lambda: WindowCountOp(0, 1, window=10.0, out_kind="o"),
        [(rec("b1", 5, {}, ts=1.0), "s"), (rec("b2", 6, {}, ts=2.0), "s")],
        [(rec("b3", 5, {}, ts=3.0), "s"), (rec("b4", 7, {}, ts=4.0), "s"),
         (rec("b5", 5, {}, ts=45.0), "s")],
    ),
    "CyclicJoinOp": (
        make_cjoin,
        [(link("l1", 1, 2), "L"), (srcn("s1", 1), "S"), (srcn("s2", 4, path=(4, 1)), "S")],
        [(link("l2", 1, 3), "L"), (srcn("s3", 5, path=(5, 1)), "S"),
         (link("d1", 1, 2, op="del_link"), "L"), (srcn("d2", 4, op="del_source"), "S")],
    ),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOT_CASES))
class TestSnapshotIsolation:
    def _fed(self, name):
        factory, before, after = SNAPSHOT_CASES[name]
        op = factory()
        for r, src in before:
            op.process(r, src)
        return op, after

    @staticmethod
    def _mutate(op, inputs):
        fp = op.state_fingerprint()
        for r, src in inputs:
            op.process(r, src)
        assert op.state_fingerprint() != fp  # the inputs really change state

    def test_snapshot_unchanged_by_later_mutation(self, name):
        op, after = self._fed(name)
        snap = op.snapshot()
        frozen = copy.deepcopy(snap)
        self._mutate(op, after)
        assert snap == frozen

    def test_restore_does_not_alias_snapshot(self, name):
        op, after = self._fed(name)
        snap = op.snapshot()
        frozen = copy.deepcopy(snap)
        op.restore(snap)
        fp = op.state_fingerprint()
        self._mutate(op, after)
        assert snap == frozen
        op.restore(snap)
        assert op.state_fingerprint() == fp
