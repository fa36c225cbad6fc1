"""Tests for the cyclic reachability query (paper §VI, Fig. 6)."""
import pytest

from helpers import cyclic_workload, run_cyclic
from repro.core.harness import sweep_local
from repro.core.tables import table4_configs, table4_frame
from repro.nexmark.cyclic import (
    EVENT_MIX,
    cyclic_events,
    cyclic_topics,
    reachability_graph,
    reference_paths,
)


class TestGenerator:
    def test_event_mix_sums_to_one(self):
        assert sum(EVENT_MIX.values()) == pytest.approx(1.0)

    def test_rates_and_counts(self):
        links, sources = cyclic_events(rate=200, duration=5, seed=0, n_nodes=1000)
        assert len(links) + len(sources) == 1000

    def test_mix_proportions_roughly_hold(self):
        links, sources = cyclic_events(rate=1000, duration=10, seed=0, n_nodes=10**6)
        n = len(links) + len(sources)
        assert 0.7 < len(links) / n < 0.9  # add_link + del_link = 80 %

    def test_deletions_flag(self):
        links, sources = cyclic_events(rate=200, duration=5, seed=0, deletions=False)
        assert all(r.value["op"] == "add_link" for r in links)
        assert all(r.value["op"] == "source" for r in sources)

    def test_deterministic(self):
        a = cyclic_events(rate=100, duration=3, seed=5)
        b = cyclic_events(rate=100, duration=3, seed=5)
        assert [r.uid for r in a[0]] == [r.uid for r in b[0]]

    def test_deletes_reference_live_entities(self):
        links, sources = cyclic_events(rate=500, duration=10, seed=1, n_nodes=100)
        added = set()
        for r in links:
            if r.value["op"] == "add_link":
                added.add((r.value["u"], r.value["v"]))
            else:
                assert (r.value["u"], r.value["v"]) in added

    def test_topics_partitioning(self):
        topics = cyclic_topics(rate=100, duration=2, n_workers=3, n_nodes=100)
        assert topics["links"].n_partitions == 3
        assert topics["sources"].n_partitions == 3


class TestReference:
    def test_single_hop(self):
        from repro.dataflow.messages import Record

        links = [Record("l1", 1, {"op": "add_link", "u": 1, "v": 2}, 0.0, "link")]
        sources = [Record("s1", 1, {"op": "source", "s": 1, "path": (1,)}, 0.0, "source_node")]
        assert reference_paths(links, sources) == {(1, (1, 2))}

    def test_multi_hop_and_cycle_avoidance(self):
        from repro.dataflow.messages import Record

        mk = lambda i, u, v: Record(f"l{i}", u, {"op": "add_link", "u": u, "v": v}, 0.0, "link")
        links = [mk(1, 1, 2), mk(2, 2, 3), mk(3, 3, 1)]  # a ring
        sources = [Record("s1", 1, {"op": "source", "s": 1, "path": (1,)}, 0.0, "source_node")]
        assert reference_paths(links, sources) == {(1, (1, 2)), (1, (1, 2, 3))}


class TestSimulationCorrectness:
    @pytest.mark.parametrize("protocol", ["none", "UNC", "CIC"])
    def test_add_only_matches_reference(self, protocol):
        res = run_cyclic(protocol)
        links, sources = cyclic_workload()
        got = {(v["s"], tuple(v["path"])) for v in res.sink_values().values()}
        assert got == reference_paths(links, sources)

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    def test_add_only_with_failure_matches_reference(self, protocol):
        res = run_cyclic(protocol, fail_at=3.0)
        links, sources = cyclic_workload()
        got = {(v["s"], tuple(v["path"])) for v in res.sink_values().values()}
        assert got == reference_paths(links, sources)

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    def test_deletions_run_completes_with_failure(self, protocol):
        res = run_cyclic(protocol, fail_at=3.0, deletions=True)
        rec = res.telemetry.recovery
        assert rec["t_resume"] > rec["t_fail"]
        assert res.telemetry.n_sinked >= 0

    def test_loopback_traffic_exists(self):
        """The feedback edge must actually carry derived sources."""
        import repro.dataflow.simulator as S

        res = run_cyclic("UNC")
        multi_hop = [v for v in res.sink_values().values() if len(v["path"]) > 2]
        assert multi_hop  # at least one recursively derived path

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    def test_no_domino_effect(self, protocol):
        """Paper's surprise finding: UNC shows no domino effect on the
        cyclic query — the rollback stays within ~one checkpoint interval
        per instance instead of cascading to the initial state."""
        res = run_cyclic(protocol, fail_at=3.0, deletions=True)
        total = len(res.telemetry.checkpoints)
        invalid = res.telemetry.recovery["invalid"]
        assert invalid <= 0.25 * max(total, 1)

    def test_table4_shape_at_four_workers(self):
        """Table IV on a denser graph (20 k nodes) than the paper's: UNC and
        CIC checkpoint in milliseconds, recovery costs restart time, and
        the rollback stays well below half of the checkpoints — at ~5
        checkpoints per instance one interval is already ~20 %."""
        cfgs = table4_configs(workers=(4,), duration=20.0, fail_at=14.0, n_nodes=20_000)
        frame = table4_frame(sweep_local(cfgs)).set_index("protocol")
        for p in ("UNC", "CIC"):
            assert frame.loc[p, "ct_ms"] < 10.0
            assert frame.loc[p, "invalid_pct"] < 40.0
            assert frame.loc[p, "rt_ms"] > 0
