"""Deterministic streaming-operator behaviours.

The paper's testbed implements "map, filter, window, join, aggregates"
(§IV) plus the cyclic reachability query's join/select/project (§VI).
Each class here is the per-instance behaviour object created by
``OperatorSpec.factory``.

Design rules that make exactly-once verifiable:

- **Content-addressed outputs** — every derived record's ``uid`` is a pure
  function of its logical derivation (e.g. ``q3:{person}:{auction}``), never
  of arrival order, so a record re-derived after rollback is recognisably
  the same record at the sink.
- **Idempotent keyed state** — state is dictionaries/sets keyed by content
  (the window count keeps the *set* of contributing bid uids rather than a
  bare counter), so replaying a message the state already reflects is a
  no-op. Together with the protocols' sequence-number deduplication this
  yields exactly-once *processing* (paper Def. 3): the post-recovery state
  equals the failure-free state.
- **Snapshot = container copy** — asynchronous checkpointing is modelled
  by copying state at snapshot time; cost is modelled separately from
  bytes. Only the containers (dicts of dicts or sets) are copied. Record
  values and tuples are shared between live state and snapshots, which
  is safe because nothing mutates a record value after it is created.
  ``restore`` copies again, so a stored checkpoint never aliases live
  state.
"""
from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .messages import Record


def _copy_nested(d: Dict[Any, Any]) -> Dict[Any, Any]:
    """Copy a dict of dicts or sets one level down, sharing the members."""
    return {k: v.copy() for k, v in d.items()}


class Operator:
    """Base per-instance operator behaviour."""

    def __init__(self, idx: int, n_workers: int):
        self.idx = idx
        self.n_workers = n_workers

    # -- data path ---------------------------------------------------------
    def process(self, record: Record, from_op: str) -> List[Record]:
        raise NotImplementedError

    # -- state management --------------------------------------------------
    def snapshot(self) -> Any:
        return None

    def restore(self, snap: Any) -> None:
        pass

    def state_bytes(self) -> int:
        return 0

    def state_fingerprint(self) -> Any:
        """Order-independent canonical view of state for equality tests."""
        return None


class PassThrough(Operator):
    """Source-side behaviour: forwards records unchanged (offset tracking
    lives in the simulator's source bookkeeping, not here)."""

    def process(self, record: Record, from_op: str) -> List[Record]:
        return [record]


class MapOp(Operator):
    """Stateless 1->1 transformation (NexMark Q1 currency conversion)."""

    def __init__(self, idx: int, n_workers: int, fn, out_kind: str):
        super().__init__(idx, n_workers)
        self.fn = fn
        self.out_kind = out_kind

    def process(self, record: Record, from_op: str) -> List[Record]:
        value = self.fn(record.value)
        return [
            Record(
                uid=f"{record.uid}/m",
                key=record.key,
                value=value,
                ingest_ts=record.ingest_ts,
                kind=self.out_kind,
            )
        ]


class FilterOp(Operator):
    """Stateless predicate filter."""

    def __init__(self, idx: int, n_workers: int, pred):
        super().__init__(idx, n_workers)
        self.pred = pred

    def process(self, record: Record, from_op: str) -> List[Record]:
        return [record] if self.pred(record.value) else []


class IncrementalJoinOp(Operator):
    """Stateful incremental hash join (NexMark Q3, §VI: "incremental
    stateful join" of persons with auctions).

    Both sides are retained forever; a joined pair is emitted exactly once,
    when the later of its two inputs arrives. Pair uids are content-based.
    """

    def __init__(
        self,
        idx: int,
        n_workers: int,
        left_op: str,
        right_op: str,
        emit,  #: (left_value, right_value) -> (uid, key, value) of the pair
        out_kind: str,
    ):
        super().__init__(idx, n_workers)
        self.left_op = left_op
        self.right_op = right_op
        self.emit = emit
        self.out_kind = out_kind
        # key -> {uid: value}; keyed inserts are idempotent.
        self.left: Dict[Any, Dict[str, Any]] = {}
        self.right: Dict[Any, Dict[str, Any]] = {}

    def process(self, record: Record, from_op: str) -> List[Record]:
        mine, other = (
            (self.left, self.right) if from_op == self.left_op else (self.right, self.left)
        )
        slot = mine.setdefault(record.key, {})
        if record.uid in slot:  # idempotent re-insert (replayed duplicate)
            return []
        slot[record.uid] = record.value
        out: List[Record] = []
        for ov in other.get(record.key, {}).values():
            lv, rv = (record.value, ov) if from_op == self.left_op else (ov, record.value)
            uid, key, value = self.emit(lv, rv)
            out.append(
                Record(uid=uid, key=key, value=value, ingest_ts=record.ingest_ts, kind=self.out_kind)
            )
        return out

    def snapshot(self) -> Any:
        return (_copy_nested(self.left), _copy_nested(self.right))

    def restore(self, snap: Any) -> None:
        self.left, self.right = _copy_nested(snap[0]), _copy_nested(snap[1])

    def state_bytes(self) -> int:
        n = sum(len(v) for v in self.left.values()) + sum(len(v) for v in self.right.values())
        return 64 * n

    def state_fingerprint(self) -> Any:
        canon = lambda side: tuple(
            sorted((k, tuple(sorted(v.keys()))) for k, v in side.items() if v)
        )
        return (canon(self.left), canon(self.right))


class WindowJoinOp(Operator):
    """Running tumbling-window join (NexMark Q8).

    Windows are keyed on the record's event/ingest timestamp, which is part
    of the generated data — hence deterministic across replay (DESIGN.md §4).
    Processing is triggered on record arrival ("running window", §VI) and
    windows are evicted once the watermark (max seen window) has moved two
    windows past them.
    """

    EVICT_HORIZON = 2

    def __init__(
        self,
        idx: int,
        n_workers: int,
        left_op: str,
        right_op: str,
        window: float,
        emit,
        out_kind: str,
    ):
        super().__init__(idx, n_workers)
        self.left_op = left_op
        self.right_op = right_op
        self.window = window
        self.emit = emit
        self.out_kind = out_kind
        # window_id -> side -> key -> {uid: value}
        self.windows: Dict[int, Tuple[Dict, Dict]] = {}
        self.max_window = -1

    def _win(self, ts: float) -> int:
        return int(ts // self.window)

    def process(self, record: Record, from_op: str) -> List[Record]:
        w = self._win(record.ingest_ts)
        if w <= self.max_window - self.EVICT_HORIZON:
            return []  # record for an already-evicted window (late)
        if w > self.max_window:
            self.max_window = w
            for old in [k for k in self.windows if k <= w - self.EVICT_HORIZON]:
                del self.windows[old]
        left, right = self.windows.setdefault(w, ({}, {}))
        mine, other = (left, right) if from_op == self.left_op else (right, left)
        slot = mine.setdefault(record.key, {})
        if record.uid in slot:
            return []
        slot[record.uid] = record.value
        out: List[Record] = []
        for ov in other.get(record.key, {}).values():
            lv, rv = (record.value, ov) if from_op == self.left_op else (ov, record.value)
            uid, key, value = self.emit(lv, rv, w)
            out.append(
                Record(uid=uid, key=key, value=value, ingest_ts=record.ingest_ts, kind=self.out_kind)
            )
        return out

    def snapshot(self) -> Any:
        return (self._copy_windows(self.windows), self.max_window)

    def restore(self, snap: Any) -> None:
        self.windows = self._copy_windows(snap[0])
        self.max_window = snap[1]

    @staticmethod
    def _copy_windows(windows: Dict[int, Tuple[Dict, Dict]]) -> Dict[int, Tuple[Dict, Dict]]:
        return {w: (_copy_nested(left), _copy_nested(right)) for w, (left, right) in windows.items()}

    def state_bytes(self) -> int:
        n = 0
        for left, right in self.windows.values():
            n += sum(len(v) for v in left.values()) + sum(len(v) for v in right.values())
        return 64 * n

    def state_fingerprint(self) -> Any:
        out = []
        for w in sorted(self.windows):
            left, right = self.windows[w]
            canon = lambda side: tuple(
                sorted((k, tuple(sorted(v.keys()))) for k, v in side.items() if v)
            )
            out.append((w, canon(left), canon(right)))
        return tuple(out)


class WindowCountOp(Operator):
    """Running tumbling-window count per key (NexMark Q12: bids per bidder).

    The state is the *set* of contributing record uids per (key, window) so
    that replayed records cannot double-count; the emitted running count is
    the set's size. The final (maximum) count per (key, window) equals the
    batch ``COUNT(*)`` — that is what the oracle checks.
    """

    EVICT_HORIZON = 2

    def __init__(self, idx: int, n_workers: int, window: float, out_kind: str):
        super().__init__(idx, n_workers)
        self.window = window
        self.out_kind = out_kind
        self.counts: Dict[int, Dict[Any, set]] = {}  # window -> key -> {uids}
        self.max_window = -1

    def process(self, record: Record, from_op: str) -> List[Record]:
        w = int(record.ingest_ts // self.window)
        if w <= self.max_window - self.EVICT_HORIZON:
            return []
        if w > self.max_window:
            self.max_window = w
            for old in [k for k in self.counts if k <= w - self.EVICT_HORIZON]:
                del self.counts[old]
        slot = self.counts.setdefault(w, {}).setdefault(record.key, set())
        if record.uid in slot:
            return []
        slot.add(record.uid)
        count = len(slot)
        return [
            Record(
                uid=f"q12:{record.key}:{w}:{count}",
                key=record.key,
                value={"bidder": record.key, "window": w, "count": count},
                ingest_ts=record.ingest_ts,
                kind=self.out_kind,
            )
        ]

    def snapshot(self) -> Any:
        return ({w: _copy_nested(km) for w, km in self.counts.items()}, self.max_window)

    def restore(self, snap: Any) -> None:
        self.counts = {w: _copy_nested(km) for w, km in snap[0].items()}
        self.max_window = snap[1]

    def state_bytes(self) -> int:
        return 40 * sum(len(s) for km in self.counts.values() for s in km.values())

    def state_fingerprint(self) -> Any:
        return tuple(
            sorted(
                (w, k, tuple(sorted(uids)))
                for w, km in self.counts.items()
                for k, uids in km.items()
            )
        )


class SinkOp(Operator):
    """Terminal collector.

    Keeps the *deduplicated* set of results (uid -> (value, first arrival
    time)) plus a per-record latency log used by the latency analytics.
    Sinks never checkpoint in any protocol (they hold no query state that
    upstream recovery cannot regenerate).
    """

    def __init__(self, idx: int, n_workers: int):
        super().__init__(idx, n_workers)
        self.results: Dict[str, Any] = {}
        self.arrivals: List[Tuple[float, float, str]] = []  # (sink_ts, ingest_ts, uid)
        self._now = 0.0  # set by the simulator before each process() call

    def process(self, record: Record, from_op: str) -> List[Record]:
        self.arrivals.append((self._now, record.ingest_ts, record.uid))
        if record.uid not in self.results:
            self.results[record.uid] = record.value
        return []


# ---------------------------------------------------------------------------
# Cyclic reachability query operators (paper §VI, Fig. 6; adapted from FFP).
# ---------------------------------------------------------------------------


class CyclicJoinOp(Operator):
    """The reachability query's stateful join.

    State: directed links keyed by their start node, and discovered sources
    keyed by their reachable (path-end) node. Link events join with sources
    whose path ends at the link's start node; source events join with links
    starting at their reachable node. Delete events remove state (paper:
    "it will remove every link or source affected from its state").
    """

    def __init__(self, idx: int, n_workers: int, link_op: str, source_op: str, loop_op: str):
        super().__init__(idx, n_workers)
        self.link_op = link_op
        self.source_op = source_op
        self.loop_op = loop_op
        self.links: Dict[Any, Dict[Tuple, None]] = {}  # start -> {(u, v): None}
        self.sources: Dict[Any, Dict[Tuple, None]] = {}  # end-node -> {(src, path): None}

    @staticmethod
    def _pair_record(src_tuple: Tuple, link: Tuple, ingest_ts: float) -> Record:
        s, path = src_tuple
        u, v = link
        uid = f"pair:{s}:{'-'.join(map(str, path))}:{u}-{v}"
        return Record(
            uid=uid,
            key=v,
            value={"src": s, "path": path, "link": link},
            ingest_ts=ingest_ts,
            kind="pair",
        )

    def process(self, record: Record, from_op: str) -> List[Record]:
        v = record.value
        out: List[Record] = []
        if from_op == self.link_op:
            if v["op"] == "del_link":
                self.links.get(v["u"], {}).pop((v["u"], v["v"]), None)
                return []
            link = (v["u"], v["v"])
            slot = self.links.setdefault(v["u"], {})
            if link in slot:
                return []
            slot[link] = None
            for st in self.sources.get(v["u"], {}):
                out.append(self._pair_record(st, link, record.ingest_ts))
        else:  # source events: fresh sources, recursive sources, or deletes
            if v["op"] == "del_source":
                for end in list(self.sources):
                    for st in [t for t in self.sources[end] if t[0] == v["s"]]:
                        del self.sources[end][st]
                return []
            st = (v["s"], tuple(v["path"]))
            end = st[1][-1]
            slot = self.sources.setdefault(end, {})
            if st in slot:
                return []
            slot[st] = None
            for link in self.links.get(end, {}):
                out.append(self._pair_record(st, link, record.ingest_ts))
        return out

    def snapshot(self) -> Any:
        return (_copy_nested(self.links), _copy_nested(self.sources))

    def restore(self, snap: Any) -> None:
        self.links, self.sources = _copy_nested(snap[0]), _copy_nested(snap[1])

    def state_bytes(self) -> int:
        n_links = sum(len(v) for v in self.links.values())
        n_src = sum(
            len(path) * 4 + 16 for slot in self.sources.values() for (_, path) in slot
        )
        return 24 * n_links + n_src

    def state_fingerprint(self) -> Any:
        return (
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.links.items() if v)),
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.sources.items() if v)),
        )


class CyclicSelectOp(Operator):
    """Drops joined pairs whose link end-node already appears in the path
    (cycle avoidance, paper §VI). ``MAX_PATH_LEN`` bounds path growth —
    a safety valve against combinatorial explosion on dense graphs; the
    reference implementation uses the same bound."""

    MAX_PATH_LEN = 12

    def process(self, record: Record, from_op: str) -> List[Record]:
        v = record.value
        if v["link"][1] in v["path"] or len(v["path"]) >= self.MAX_PATH_LEN:
            return []
        return [record]


class CyclicProjectOp(Operator):
    """Extends the path with the link's end node and emits the new source
    record, which flows both to the sink and back to the join (loop)."""

    def process(self, record: Record, from_op: str) -> List[Record]:
        v = record.value
        new_path = tuple(v["path"]) + (v["link"][1],)
        uid = f"path:{v['src']}:{'-'.join(map(str, new_path))}"
        return [
            Record(
                uid=uid,
                key=new_path[-1],
                value={"op": "source", "s": v["src"], "path": new_path},
                ingest_ts=record.ingest_ts,
                kind="source_node",
            )
        ]
