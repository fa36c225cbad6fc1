"""Logical dataflow graphs.

The paper's deployment model (§VII-A): every worker runs exactly one
parallel instance of every operator of the pipeline, so an operator's
parallelism equals the worker count. A logical graph therefore only names
operators and edges; instance fan-out happens in the simulator.

Routing on an edge is one of:

- ``forward`` — instance i sends to instance i of the downstream operator
  (chain pipelines, no shuffle; NexMark Q1).
- ``hash``    — key-hash partitioning across all downstream instances
  (shuffles; joins/aggregations). COOR markers go to every downstream
  instance of a hash edge, and ``Edge.broadcast_pred`` may send single
  records to all of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .messages import stable_hash


@dataclass(frozen=True)
class Edge:
    """A directed channel bundle between two logical operators."""

    src: str
    dst: str
    routing: str = "hash"  #: "forward" | "hash"
    key_fn: Optional[Callable[[Any], Any]] = None  #: routing key for "hash"
    loop: bool = False  #: True for the cyclic query's feedback edge
    #: per-record broadcast override (e.g. the cyclic query's del_source
    #: events must reach every join instance because derived sources are
    #: partitioned by path end-node, not by source id)
    broadcast_pred: Optional[Callable[[Any], bool]] = None

    def route(self, record, src_idx: int, n_workers: int) -> List[int]:
        """Destination instance indices for ``record`` sent by ``src_idx``."""
        if self.broadcast_pred is not None and self.broadcast_pred(record):
            return list(range(n_workers))
        if self.routing == "forward":
            return [src_idx]
        key = self.key_fn(record) if self.key_fn else record.key
        return [stable_hash(key) % n_workers]


@dataclass
class OperatorSpec:
    """A logical operator.

    ``stateful`` drives which operators take checkpoints under UNC/CIC
    (paper §III-B: stateless non-source operators need not participate);
    under COOR every operator participates in marker alignment.
    ``factory(idx, n_workers)`` builds the per-instance behaviour object
    (see :mod:`repro.dataflow.operators`).
    """

    name: str
    kind: str  #: "source" | "sink" | operator type tag
    stateful: bool
    factory: Callable[[int, int], Any] = None
    source_topic: Optional[str] = None  #: kafka_sim topic for sources

    @property
    def is_source(self) -> bool:
        return self.kind == "source"

    @property
    def is_sink(self) -> bool:
        return self.kind == "sink"


@dataclass
class LogicalGraph:
    """A validated logical dataflow graph."""

    ops: Dict[str, OperatorSpec] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)

    def add_op(self, spec: OperatorSpec) -> "LogicalGraph":
        if spec.name in self.ops:
            raise ValueError(f"duplicate operator {spec.name!r}")
        self.ops[spec.name] = spec
        return self

    def add_edge(self, edge: Edge) -> "LogicalGraph":
        if edge.src not in self.ops or edge.dst not in self.ops:
            raise ValueError(f"edge {edge.src}->{edge.dst} references unknown operator")
        if self.ops[edge.dst].is_source:
            raise ValueError("sources cannot have inbound edges")
        if edge.routing not in ("forward", "hash"):
            raise ValueError(
                f"edge {edge.src}->{edge.dst}: routing must be 'forward' or 'hash', "
                f"not {edge.routing!r}"
            )
        self.edges.append(edge)
        return self

    # -- queries -----------------------------------------------------------
    def sources(self) -> List[str]:
        return [n for n, s in self.ops.items() if s.is_source]

    def sinks(self) -> List[str]:
        return [n for n, s in self.ops.items() if s.is_sink]

    def out_edges(self, op: str) -> List[Edge]:
        return [e for e in self.edges if e.src == op]

    def in_edges(self, op: str) -> List[Edge]:
        return [e for e in self.edges if e.dst == op]

    def has_cycle(self) -> bool:
        """True if the graph has a directed cycle (e.g. the reachability
        query's feedback edge). COOR refuses such graphs (paper §VII)."""
        color: Dict[str, int] = {}

        def visit(n: str) -> bool:
            color[n] = 1
            for e in self.out_edges(n):
                c = color.get(e.dst, 0)
                if c == 1:
                    return True
                if c == 0 and visit(e.dst):
                    return True
            color[n] = 2
            return False

        return any(color.get(n, 0) == 0 and visit(n) for n in self.ops)

    def validate(self) -> "LogicalGraph":
        if not self.sources():
            raise ValueError("graph needs at least one source")
        if not self.sinks():
            raise ValueError("graph needs at least one sink")
        for name, spec in self.ops.items():
            if not spec.is_source and not self.in_edges(name):
                raise ValueError(f"operator {name!r} is unreachable (no inbound edges)")
            if not spec.is_sink and not self.out_edges(name):
                raise ValueError(f"operator {name!r} is a dead end (no outbound edges)")
        if self.has_cycle() and not any(e.loop for e in self.edges):
            raise ValueError("cyclic graph must mark its feedback edge with loop=True")
        return self
