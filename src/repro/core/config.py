"""Experiment configuration (paper §VII-A).

One :class:`ExperimentConfig` describes one simulation run: query,
protocol, parallelism, input rate, skew, failure time. ``build`` turns it
into a ready :class:`Simulation`.

The UNC/CIC per-query checkpoint intervals are chosen so checkpoint totals
land in the paper's reported ballpark (Table III); the paper does not
publish its intervals and §III-B explicitly allows per-operator intervals.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, Optional

from repro.dataflow.costs import SimCost
from repro.dataflow.simulator import Simulation
from repro.nexmark.cyclic import cyclic_topics, reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import (
    CICProtocol,
    CoordinatedProtocol,
    NoneProtocol,
    UncoordinatedProtocol,
)

#: default UNC/CIC checkpoint interval per query (seconds)
UNC_INTERVALS: Dict[str, float] = {
    "q1": 2.0,
    "q3": 4.0,
    "q8": 4.6,
    "q12": 4.2,
    "cyclic": 4.0,
}

#: COOR round interval (next round starts this long after the previous
#: round completed)
COOR_INTERVAL = 5.0

#: paper run shape (§VII-B)
RUN_DURATION = 60.0
FAIL_AT = 18.0
CYCLIC_FAIL_AT = 48.0


@dataclass
class ExperimentConfig:
    """One simulation run's parameters."""

    query: str  #: "q1" | "q3" | "q8" | "q12" | "cyclic"
    protocol: str  #: "none" | "COOR" | "UNC" | "CIC"
    workers: int
    rate: float  #: total input rate, events/s
    duration: float = RUN_DURATION
    fail_at: Optional[float] = FAIL_AT
    hot_ratio: float = 0.0
    n_hot: int = 1
    seed: int = 7
    coor_interval: float = COOR_INTERVAL
    n_nodes: int = 1_000_000  #: cyclic query node-set size (paper: 1M static nodes)
    deletions: bool = True  #: cyclic query delete events on/off

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)


def make_protocol(cfg: ExperimentConfig):
    interval = UNC_INTERVALS.get(cfg.query, 4.0)
    if cfg.protocol == "none":
        return NoneProtocol()
    if cfg.protocol == "COOR":
        return CoordinatedProtocol(round_interval=cfg.coor_interval)
    if cfg.protocol == "UNC":
        return UncoordinatedProtocol(interval=interval)
    if cfg.protocol == "CIC":
        return CICProtocol(interval=interval)
    raise ValueError(f"unknown protocol {cfg.protocol!r}")


def build(cfg: ExperimentConfig, cost: Optional[SimCost] = None) -> Simulation:
    """Materialise a configured simulation (graph + topics + protocol)."""
    if cfg.query == "cyclic":
        graph = reachability_graph()
        topics = cyclic_topics(
            rate=cfg.rate,
            duration=cfg.duration,
            n_workers=cfg.workers,
            seed=cfg.seed,
            n_nodes=cfg.n_nodes,
            deletions=cfg.deletions,
        )
    else:
        graph = QUERIES[cfg.query]()
        topics = topics_for_query(
            cfg.query,
            rate=cfg.rate,
            duration=cfg.duration,
            n_workers=cfg.workers,
            seed=cfg.seed,
            hot_ratio=cfg.hot_ratio,
            n_hot=cfg.n_hot,
        )
    return Simulation(
        graph, cfg.workers, make_protocol(cfg), topics, cost=cost, seed=cfg.seed
    )
