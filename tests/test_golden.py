"""Golden-behaviour gate: a fixed grid of small failure runs must keep
bit-identical outputs.

Each cell hashes a canonical ``repr`` of its metrics row, sink results,
state fingerprints and sink latency log. The latency log is in sink
arrival order, so any change in the simulator's event order shows up
here. Performance and refactoring changes must leave every hash alone;
a change that alters behaviour on purpose updates ``GOLDEN`` and says
why in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.harness import METRIC_COLUMNS, run_config

#: (query, protocol) -> sha256 prefix of the cell's canonical outputs
GOLDEN = {
    ("q3", "COOR"): "bcb633795b85a3e4d183",
    ("q3", "UNC"): "78ae4d4cc92a831bfc17",
    ("q3", "CIC"): "0e5f4e6eea695f639447",
    ("q12", "COOR"): "72d253a6b1f7ee95c395",
    ("q12", "UNC"): "54f9c34e8c1664d5f40e",
    ("q12", "CIC"): "bd5452a4902deb7a087c",
    ("cyclic", "UNC"): "b3285e737ebe05858cf5",
    ("cyclic", "CIC"): "e970f48e175f9ae6971c",
}


def canon(x):
    """Order-independent canonical form: dict items and set members sorted
    by ``repr``, sequences kept in order, NumPy scalars as Python values."""
    if isinstance(x, dict):
        return tuple(sorted(((canon(k), canon(v)) for k, v in x.items()), key=repr))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted((canon(v) for v in x), key=repr))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if isinstance(x, np.generic):
        return x.item()
    return x


def cell_hash(query: str, protocol: str) -> str:
    cfg = ExperimentConfig(
        query=query,
        protocol=protocol,
        workers=6,
        rate=300.0 if query == "cyclic" else 1500.0,
        duration=15.0,
        fail_at=6.0,
        n_nodes=20_000,
    )
    row, res = run_config(cfg, keep_result=True)
    outputs = (
        {c: row.get(c) for c in METRIC_COLUMNS},
        res.sink_results,
        res.state_fingerprints,
        res.telemetry.latencies,
    )
    return hashlib.sha256(repr(canon(outputs)).encode()).hexdigest()[:20]


@pytest.mark.parametrize("query,protocol", sorted(GOLDEN))
def test_golden_cell(query, protocol):
    assert cell_hash(query, protocol) == GOLDEN[(query, protocol)]
