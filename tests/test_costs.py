"""Tests for the virtual-time cost model."""
import pytest

from repro.dataflow.costs import SimCost


class TestSimCost:
    def test_defaults_positive(self):
        c = SimCost()
        assert all(v >= 0 for v in c.service.values())
        assert c.serialize_per_byte > 0 and c.channel_latency > 0

    def test_keyed_stages_dominate(self):
        """Skew only bites if the keyed stateful operators dominate the
        per-record cost (DESIGN.md / skew mechanism)."""
        c = SimCost()
        assert c.service["join"] > c.service["source"]
        assert c.service["window_count"] > c.service["source"]

    def test_marker_is_cheap(self):
        c = SimCost()
        assert c.service["marker"] < min(
            c.service["source"], c.service["join"], c.service["map"]
        )

    def test_unknown_op_falls_back(self):
        assert SimCost().op_service("nope") > 0

    def test_snapshot_time_grows_with_state(self):
        c = SimCost()
        assert c.snapshot_time(10_000_000) > c.snapshot_time(0) > 0

    def test_restart_time_linear_in_each_input(self):
        c = SimCost()
        assert c.restart_time(0, 0, 0) == c.restart_base
        for args, rate in [
            ((1000, 0, 0), c.restore_per_byte),
            ((0, 1000, 0), c.replay_prep_per_msg),
            ((0, 0, 1000), c.recovery_line_per_ckpt),
        ]:
            assert c.restart_time(*args) - c.restart_base == pytest.approx(1000 * rate)
        assert c.restart_time(2000, 20, 4) - c.restart_base == pytest.approx(
            2 * (c.restart_time(1000, 10, 2) - c.restart_base)
        )
