"""Unit tests for logical dataflow graphs, routing and validation."""
import pytest

from repro.dataflow.graph import Edge, LogicalGraph, OperatorSpec
from repro.dataflow.messages import Record, stable_hash
from repro.dataflow.operators import PassThrough
from repro.nexmark.cyclic import reachability_graph
from repro.nexmark.queries import QUERIES


def _rec(key=7, value=None):
    return Record(uid="r", key=key, value=value or {}, ingest_ts=0.0, kind="event")


def chain() -> LogicalGraph:
    g = LogicalGraph()
    g.add_op(OperatorSpec("src", "source", stateful=False, factory=PassThrough, source_topic="t"))
    g.add_op(OperatorSpec("map", "map", stateful=False, factory=PassThrough))
    g.add_op(OperatorSpec("sink", "sink", stateful=False))
    g.add_edge(Edge("src", "map", routing="forward"))
    g.add_edge(Edge("map", "sink", routing="forward"))
    return g


class TestValidation:
    def test_valid_chain(self):
        assert chain().validate() is not None

    def test_duplicate_op_rejected(self):
        g = chain()
        with pytest.raises(ValueError, match="duplicate"):
            g.add_op(OperatorSpec("map", "map", stateful=False, factory=PassThrough))

    def test_edge_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            chain().add_edge(Edge("map", "nope"))

    def test_source_inbound_rejected(self):
        with pytest.raises(ValueError, match="sources cannot"):
            chain().add_edge(Edge("map", "src"))

    @pytest.mark.parametrize("routing", ["forwad", "broadcast", ""])
    def test_unknown_routing_rejected(self, routing):
        g = chain()
        with pytest.raises(ValueError, match=f"edge src->map: routing .* not {routing!r}"):
            g.add_edge(Edge("src", "map", routing=routing))
        assert len(g.edges) == 2

    def test_no_source_rejected(self):
        g = LogicalGraph()
        g.add_op(OperatorSpec("sink", "sink", stateful=False))
        with pytest.raises(ValueError, match="source"):
            g.validate()

    def test_unreachable_op_rejected(self):
        g = chain()
        g.add_op(OperatorSpec("lonely", "map", stateful=False, factory=PassThrough))
        g.add_edge(Edge("lonely", "sink"))
        with pytest.raises(ValueError, match="unreachable"):
            g.validate()

    def test_dead_end_rejected(self):
        g = chain()
        g.add_op(OperatorSpec("dead", "map", stateful=False, factory=PassThrough))
        g.add_edge(Edge("src", "dead"))
        with pytest.raises(ValueError, match="dead end"):
            g.validate()

    def test_unmarked_cycle_rejected(self):
        g = chain()
        g.add_op(OperatorSpec("a", "map", stateful=False, factory=PassThrough))
        g.add_op(OperatorSpec("b", "map", stateful=False, factory=PassThrough))
        g.add_edge(Edge("src", "a"))
        g.add_edge(Edge("a", "b"))
        g.add_edge(Edge("b", "a"))  # cycle, not marked loop=True
        g.add_edge(Edge("b", "sink"))
        with pytest.raises(ValueError, match="loop=True"):
            g.validate()


class TestCycles:
    def test_chain_acyclic(self):
        assert not chain().has_cycle()

    @pytest.mark.parametrize("qname", ["q1", "q3", "q8", "q12"])
    def test_nexmark_acyclic(self, qname):
        assert not QUERIES[qname]().has_cycle()

    def test_reachability_cyclic(self):
        assert reachability_graph().has_cycle()


class TestRouting:
    def test_forward_routes_to_same_index(self):
        e = Edge("a", "b", routing="forward")
        assert e.route(_rec(), 3, 8) == [3]

    def test_hash_uses_record_key_by_default(self):
        e = Edge("a", "b", routing="hash")
        assert e.route(_rec(key=7), 0, 4) == [stable_hash(7) % 4]

    def test_hash_uses_key_fn(self):
        e = Edge("a", "b", routing="hash", key_fn=lambda r: r.value["k"])
        assert e.route(_rec(value={"k": 11}), 0, 4) == [stable_hash(11) % 4]

    def test_hash_deterministic(self):
        e = Edge("a", "b", routing="hash")
        assert e.route(_rec(key=5), 0, 7) == e.route(_rec(key=5), 3, 7)

    def test_broadcast_pred_overrides_hash(self):
        e = Edge("a", "b", routing="hash",
                 broadcast_pred=lambda r: r.value.get("op") == "del_source")
        assert e.route(_rec(value={"op": "del_source"}), 0, 3) == [0, 1, 2]
        assert len(e.route(_rec(value={"op": "source"}, key=1), 0, 3)) == 1

