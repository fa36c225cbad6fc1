"""Communication-induced checkpointing — CIC / HMNR (paper §III-C).

Built on top of UNC (timers, message logging, dedup, recovery line) with
loose coordination piggybacked on every data message to break Z-cycles via
*forced* checkpoints.

Per paper §III-C, each operator instance keeps:

- a Lamport ``clock`` incremented on every checkpoint,
- a vector ``ckpt`` of known checkpoint counts,
- boolean vectors ``sent_to`` (messages sent since my last checkpoint),
  ``taken`` (Z-path existence since the last known checkpoint) and
  ``greater`` (is my clock greater than each other's),

and piggybacks ``(clock, ckpt, taken, greater)`` on every message. On
receive, a checkpoint is forced *before* processing when "there is a
message previously sent from it to the sender and the sender's clock is
larger than its own, or there is a Z-path detected in the current
checkpoint interval of the sender" (paper's stated HMNR condition; the
full HMNR refinements beyond this description are approximated —
DESIGN.md §2.2).

Implementation notes: boolean vectors are immutable int bitmasks and the
``ckpt`` vector an immutable tuple, so piggybacking is reference-passing
(no per-message copying); merges are skipped when the sender's vector
object is unchanged since the last merge. The piggyback *byte* model
(driving Table II) is ``8 + 4*K + 2*ceil(N/8)`` with K logical operators
and N = K*W instances — the streaming adaptation discussed in DESIGN.md.
"""
from __future__ import annotations

from typing import Dict, Tuple

from repro.dataflow.messages import InstanceId, Kind, Message

from .uncoordinated import UncoordinatedProtocol


class CICState:
    """Per-instance HMNR protocol state."""

    __slots__ = ("clock", "ckpt", "taken", "greater", "sent_to", "_merged")

    def __init__(self, n: int):
        self.clock = 0
        self.ckpt: Tuple[int, ...] = (0,) * n
        self.taken = 0  #: bitmask over instances
        self.greater = 0
        self.sent_to = 0
        self._merged: Dict[int, int] = {}  #: sender idx -> id(last merged ckpt tuple)


class CICProtocol(UncoordinatedProtocol):
    """CIC: UNC + piggybacked HMNR vectors + forced checkpoints."""

    name = "CIC"
    features = {
        "blocking_markers": False,
        "inflight_logging": True,
        "dedup_required": True,
        "message_overhead": True,
        "independent_checkpoints": True,
        "straggler_stalls": False,
        "unused_checkpoints": True,
        "forced_checkpoints": True,
    }

    def __init__(self, interval: float = 4.0, intervals=None, jitter: float = 0.05):
        super().__init__(interval=interval, intervals=intervals, jitter=jitter)
        self.states: Dict[InstanceId, CICState] = {}
        self.inst_index: Dict[InstanceId, int] = {}
        self.n_instances = 0
        self.piggyback_nbytes = 0

    def bind(self, sim) -> None:
        super().bind(sim)
        worker_ops = [n for n, s in sim.graph.ops.items() if not s.is_sink]
        k = len(worker_ops)
        insts = [(op, w) for op in worker_ops for w in range(sim.W)]
        self.inst_index = {inst: i for i, inst in enumerate(insts)}
        self.n_instances = len(insts)
        self.states = {inst: CICState(self.n_instances) for inst in insts}
        self.piggyback_nbytes = 8 + 4 * k + 2 * ((self.n_instances + 7) // 8)

    # -- checkpoints update the protocol state -----------------------------
    def checkpoint_extra_duration(self, inst: InstanceId) -> float:
        """CIC persists the clock + vectors with every checkpoint; the cost
        scales with the number of participating instances."""
        return self.sim.cost.proto_state_per_entry * self.n_instances

    def on_local_checkpoint(self, inst: InstanceId, kind: str = "local") -> None:
        super().on_local_checkpoint(inst, kind)
        st = self.states[inst]
        me = self.inst_index[inst]
        st.clock += 1
        ck = list(st.ckpt)
        ck[me] += 1
        st.ckpt = tuple(ck)
        st.sent_to = 0
        st.taken = 0

    # -- data path ---------------------------------------------------------
    def on_send(self, t: float, inst: InstanceId, msg: Message) -> None:
        super().on_send(t, inst, msg)
        st = self.states[inst]
        dst = (msg.channel[2], msg.channel[3])
        di = self.inst_index.get(dst)
        if di is not None:
            st.sent_to |= 1 << di
        msg.proto_bytes = self.piggyback_nbytes
        msg.piggyback = {
            "clock": st.clock,
            "ckpt": st.ckpt,
            "taken": st.taken,
            "greater": st.greater,
            "sender": self.inst_index[inst],
        }

    def before_process(self, t: float, inst: InstanceId, msg: Message) -> float:
        pb = msg.piggyback
        if pb is None or msg.kind is not Kind.DATA:
            return 0.0  # replayed messages carry no live piggyback
        st = self.states[inst]
        me = self.inst_index[inst]
        s = pb["sender"]
        force = pb["clock"] > st.clock and (
            (st.sent_to >> s) & 1 or (pb["taken"] >> me) & 1
        )
        if force:
            self.on_local_checkpoint(inst, kind="forced")
        # merge protocol knowledge from the piggyback
        if pb["clock"] > st.clock:
            st.clock = pb["clock"]
        ck = pb["ckpt"]
        if st._merged.get(s) != id(ck):
            st._merged[s] = id(ck)
            if ck != st.ckpt:
                st.ckpt = tuple(max(a, b) for a, b in zip(st.ckpt, ck))
        st.taken |= pb["taken"] | (1 << s)
        if st.clock > pb["clock"]:
            st.greater |= 1 << s
        else:
            st.greater &= ~(1 << s)
        return 0.0
