"""Unit + property tests for the recovery line of rollback propagation
(paper §III-B, Algorithm 1), checked against a brute-force oracle."""
import itertools
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.state import CheckpointMeta, CheckpointStore, StoredCheckpoint
from repro.protocols.recovery import find_recovery_line


class Builder:
    """Hand-build a consistent execution history of sends/receives and
    checkpoints over single-instance operators."""

    def __init__(self, ops: List[str], channels: List[tuple]):
        self.insts = [(op, 0) for op in ops]
        self.channels = [(a, 0, b, 0) for a, b in channels]
        self.sent = {ch: 0 for ch in self.channels}
        self.recv = {ch: 0 for ch in self.channels}
        self.store = CheckpointStore()
        self.out = {i: [ch for ch in self.channels if (ch[0], ch[1]) == i] for i in self.insts}
        self.inn = {i: [ch for ch in self.channels if (ch[2], ch[3]) == i] for i in self.insts}
        for i in self.insts:
            self.checkpoint(i[0])  # implicit initial checkpoints

    def send(self, a: str, b: str, n: int = 1):
        self.sent[(a, 0, b, 0)] += n

    def deliver(self, a: str, b: str, n: int = 1):
        ch = (a, 0, b, 0)
        self.recv[ch] = min(self.sent[ch], self.recv[ch] + n)

    def checkpoint(self, op: str):
        inst = (op, 0)
        idx = len(self.store.checkpoints(inst))
        meta = CheckpointMeta(
            instance=inst, index=idx, ts=float(idx), kind="local", round_id=None,
            state_bytes=0,
            last_sent={ch: self.sent[ch] for ch in self.out[inst]},
            last_recv={ch: self.recv[ch] for ch in self.inn[inst]},
        )
        self.store.put(StoredCheckpoint(meta, None))

    def line(self):
        return find_recovery_line(self.store, self.insts, self.out)

    def consistent(self, line) -> bool:
        """No orphan message on any channel across ``line`` (Def. 5)."""
        return all(
            self.store.get((ch[2], 0), line[(ch[2], 0)]).meta.last_recv[ch]
            <= self.store.get((ch[0], 0), line[(ch[0], 0)]).meta.last_sent[ch]
            for ch in self.channels
        )

    def maximal_line(self):
        """Brute force over every index vector: the componentwise maximum
        of all consistent lines."""
        ranges = [range(len(self.store.checkpoints(i))) for i in self.insts]
        lines = [dict(zip(self.insts, v)) for v in itertools.product(*ranges)]
        lines = [line for line in lines if self.consistent(line)]
        best = {i: max(line[i] for line in lines) for i in self.insts}
        assert self.consistent(best)  # consistent lines are closed under max
        return best


class TestSimpleScenarios:
    def test_no_traffic_latest_line(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.checkpoint("A"); b.checkpoint("B")
        line = b.line()
        assert line == {("A", 0): 1, ("B", 0): 1}

    def test_clean_cut_latest_line(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.send("A", "B", 5); b.deliver("A", "B", 5)
        b.checkpoint("A"); b.checkpoint("B")
        line = b.line()
        assert line == {("A", 0): 1, ("B", 0): 1}

    def test_orphan_rolls_receiver_back(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.checkpoint("A")        # A ckpt1: sent=0
        b.send("A", "B", 3); b.deliver("A", "B", 3)
        b.checkpoint("B")        # B ckpt1: recv=3 > A.ckpt1.sent=0 -> orphan
        line = b.line()
        assert line == {("A", 0): 1, ("B", 0): 0}

    def test_no_orphan_when_sender_checkpoints_after(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.send("A", "B", 3); b.deliver("A", "B", 3)
        b.checkpoint("B")        # recv=3
        b.checkpoint("A")        # sent=3 >= recv -> consistent
        line = b.line()
        assert line == {("A", 0): 1, ("B", 0): 1}

    def test_domino_chain(self):
        b = Builder(["A", "B", "C"], [("A", "B"), ("B", "C")])
        b.checkpoint("A")
        b.send("A", "B"); b.deliver("A", "B")
        b.checkpoint("B")  # orphan wrt A ckpt1 - but B->C also cascades:
        b.send("B", "C"); b.deliver("B", "C")
        b.checkpoint("C")  # orphan wrt B ckpt1
        line = b.line()
        assert line == {("A", 0): 1, ("B", 0): 0, ("C", 0): 0}

    def test_mutual_orphans_roll_both(self):
        b = Builder(["A", "B"], [("A", "B"), ("B", "A")])
        b.checkpoint("A")
        b.send("A", "B"); b.deliver("A", "B")
        b.checkpoint("B")
        b.send("B", "A"); b.deliver("B", "A")
        b.checkpoint("A")  # A ckpt2 saw B's post-ckpt... build z-pattern
        line = b.line()
        assert line == {("A", 0): 1, ("B", 0): 0}

    def test_initial_checkpoints_always_fallback(self):
        b = Builder(["A", "B"], [("A", "B")])
        # traffic but no real checkpoints at all: line = initial everywhere
        b.send("A", "B", 4); b.deliver("A", "B", 4)
        line = b.line()
        assert line == {("A", 0): 0, ("B", 0): 0}


RING = (["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
FAN_IN = (["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")])


@st.composite
def execution(draw, topology):
    """Random consistent execution over ``topology = (ops, channels)``."""
    ops, channels = topology
    b = Builder(ops, channels)
    n = max(len(ops), len(channels))
    steps = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, n - 1)), max_size=60))
    for kind, which in steps:
        if kind == 2:
            b.checkpoint(ops[which % len(ops)])
        else:
            a, c = channels[which % len(channels)]
            (b.send if kind == 0 else b.deliver)(a, c)
    return b


def assert_maximal(b: Builder, line) -> None:
    assert line == b.maximal_line()


class TestRollbackPropagationProperties:
    @settings(max_examples=60, deadline=None)
    @given(execution(RING))
    def test_ring_line_is_the_maximal_consistent_line(self, b):
        assert_maximal(b, b.line())

    @settings(max_examples=60, deadline=None)
    @given(execution(FAN_IN))
    def test_fan_in_line_is_the_maximal_consistent_line(self, b):
        assert_maximal(b, b.line())

    def test_oracle_rejects_a_line_one_step_lower(self):
        # without traffic every line is consistent, so only the maximality
        # half of the oracle can reject a lowered one
        b = Builder(*FAN_IN)
        for op in "ABCD":
            b.checkpoint(op)
        line = b.line()
        for inst in b.insts:
            lowered = {**line, inst: line[inst] - 1}
            assert b.consistent(lowered)
            with pytest.raises(AssertionError):
                assert_maximal(b, lowered)
