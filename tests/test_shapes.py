"""Figure-shaped findings asserted as tests (DESIGN.md §3).

Figures are out of scope, but the paper's qualitative findings must hold
in the reproduction. These run at reduced scale (W=4-10, short windows)
so the whole suite stays fast; the full-scale numbers live in
EXPERIMENTS.md via the jobs.
"""
import math
from functools import lru_cache

import pytest

from repro.core.config import ExperimentConfig
from repro.core.harness import run_config, sweep_local
from repro.core.mst import measure_mst
from repro.core.tables import table23_configs

W = 4


def _run(query, protocol, **kw):
    cfg = ExperimentConfig(
        query=query, protocol=protocol, workers=kw.pop("workers", W),
        rate=kw.pop("rate", -0.8), duration=kw.pop("duration", 20.0),
        fail_at=kw.pop("fail_at", None), **kw,
    )
    row, _ = run_config(cfg)
    return row


@lru_cache(maxsize=None)
def _table23_grid(query):
    """The shared Table II/III grid for one query at 6 workers, 20 s, with
    the failure at 8 s; indexed by protocol."""
    cfgs = table23_configs(workers=(6,), queries=(query,), duration=20.0, fail_at=8.0)
    return sweep_local(cfgs).set_index("protocol")


class TestFig7MSTShape:
    """Fig. 7: COOR tracks the checkpoint-free MST; UNC is close; CIC falls
    clearly behind and degrades with parallelism."""

    @pytest.mark.parametrize("query", ["q1", "q12"])
    def test_ordering(self, query):
        base = measure_mst(query, "none", W)
        coor = measure_mst(query, "COOR", W)
        unc = measure_mst(query, "UNC", W)
        cic = measure_mst(query, "CIC", W)
        assert coor > 0.9 * base
        assert unc > 0.85 * base
        assert cic < unc

    def test_cic_degrades_with_parallelism(self):
        small = measure_mst("q12", "CIC", 2) / measure_mst("q12", "none", 2)
        big = measure_mst("q12", "CIC", 8) / measure_mst("q12", "none", 8)
        assert big < small


class TestFig8CheckpointTimeShape:
    """Fig. 8: UNC/CIC snapshot in ~milliseconds; COOR needs a full round,
    1-2 orders of magnitude longer on shuffle queries."""

    def test_unc_cic_milliseconds(self):
        for p in ["UNC", "CIC"]:
            row = _run("q12", p)
            assert row["avg_ckpt_time"] < 0.01

    def test_coor_round_much_longer_on_shuffle(self):
        coor = _run("q12", "COOR")
        unc = _run("q12", "UNC")
        assert coor["avg_ckpt_time"] > 5 * unc["avg_ckpt_time"]


class TestFig11RestartShape:
    """Fig. 11: COOR restarts faster — UNC/CIC must fetch and prepare the
    replay messages."""

    def test_coor_restart_fastest(self):
        coor = _run("q12", "COOR", fail_at=8.0)
        unc = _run("q12", "UNC", fail_at=8.0)
        cic = _run("q12", "CIC", fail_at=8.0)
        assert coor["restart_time"] < unc["restart_time"]
        assert coor["restart_time"] < cic["restart_time"]
        assert coor["n_replay"] == 0 < unc["n_replay"]


class TestRecoveryShape:
    """§VII-B: COOR recovers at least as fast as UNC (no replay)."""

    def test_recovery_times_finite_and_ordered(self):
        coor = _run("q12", "COOR", fail_at=8.0, duration=30.0)
        unc = _run("q12", "UNC", fail_at=8.0, duration=30.0)
        assert math.isfinite(coor["recovery_time"])
        assert math.isfinite(unc["recovery_time"])
        assert coor["recovery_time"] <= unc["recovery_time"] + 1.0


class TestTable2Shape:
    def test_cic_overhead_dominates(self):
        cic = _run("q12", "CIC", duration=10.0)
        unc = _run("q12", "UNC", duration=10.0)
        coor = _run("q12", "COOR", duration=10.0)
        ratio = lambda r: r["total_bytes"] / r["data_bytes"]
        assert ratio(cic) > 1.5
        assert ratio(unc) < 1.03
        assert ratio(coor) < 1.05

    def test_cic_overhead_dominates_on_q1_grid(self):
        """Q1 has the smallest records, so the largest CIC ratio."""
        grid = _table23_grid("q1")
        ratio = grid.total_bytes / grid.data_bytes
        assert ratio["CIC"] > 1.5
        assert ratio["UNC"] < 1.03
        assert ratio["COOR"] < 1.05


class TestTable3Shape:
    def test_unc_takes_more_checkpoints_than_coor(self):
        unc = _run("q12", "UNC", duration=20.0, fail_at=8.0)
        coor = _run("q12", "COOR", duration=20.0, fail_at=8.0)
        assert unc["ckpt_total"] > coor["ckpt_total"]

    def test_coor_never_invalid(self):
        coor = _run("q12", "COOR", duration=20.0, fail_at=8.0)
        assert coor["invalid"] == 0

    def test_unc_few_invalid_on_shuffle(self):
        unc = _run("q12", "UNC", duration=20.0, fail_at=8.0)
        assert 0 <= unc["invalid"] / max(unc["ckpt_total"], 1) < 0.15

    def test_q3_grid_shape(self):
        grid = _table23_grid("q3")
        assert grid.loc["COOR", "invalid"] == 0
        assert grid.loc["UNC", "ckpt_total"] > grid.loc["COOR", "ckpt_total"]
        assert 0 <= grid.loc["UNC", "invalid"] / grid.loc["UNC", "ckpt_total"] < 0.15
