"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They use small cells, not the workloads themselves, and start no Spark.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from instrument import digest, layers, merge_raw, topic_records, topics_of  # noqa: E402
from repro.core import harness  # noqa: E402
from repro.core import mst as mst_mod  # noqa: E402
from repro.core.config import ExperimentConfig, build  # noqa: E402
from repro.dataflow import simulator as sim_mod  # noqa: E402
from repro.protocols import uncoordinated as unc_mod  # noqa: E402

SMALL = [
    ExperimentConfig(query="q3", protocol="UNC", workers=4, rate=-0.8, duration=8.0, fail_at=4.0),
    ExperimentConfig(query="q12", protocol="COOR", workers=4, rate=-0.8, duration=8.0, fail_at=4.0),
]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def test_digest_stable_across_hash_seeds():
    code = (
        "import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "from test_perfbench import SMALL\n"
        "import workloads\n"
        "print([c['digest'] for c in workloads.serial_pass(SMALL, False)['cells']])\n"
    ).format(src=os.path.join(ROOT, "src"), here=HERE)
    outs = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        outs.add(proc.stdout.strip().splitlines()[-1])
    assert len(outs) == 1


def test_traced_pass_gives_untraced_digests_and_exact_counts():
    base = workloads.serial_pass(SMALL, traced=False)
    traced = [workloads.serial_pass(SMALL, traced=True) for _ in range(2)]
    assert [c["digest"] for c in base["cells"]] == [c["digest"] for c in traced[0]["cells"]]
    counts = [
        {k: v for k, v in layers(t["raw"]).items() if run.layer_unit(k) in ("count", "B")}
        for t in traced
    ]
    assert counts[0] == counts[1]
    assert all(isinstance(v, int) for v in counts[0].values())
    assert counts[0]["sim.heap_pushes"] > 0 and counts[0]["recovery.n_replay"] > 0


def test_instrument_removes_every_wrapper():
    watched = [
        (harness, "measure_mst"), (harness, "build"), (harness, "metrics_row"),
        (mst_mod, "build"), (unc_mod, "find_recovery_line"), (sim_mod, "heapq"),
    ]
    before = [getattr(m, a) for m, a in watched]
    workloads.serial_pass(SMALL[:1], traced=True)
    assert [getattr(m, a) for m, a in watched] == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_goes_into_the_generated_inputs(workload):
    def inputs(seed):
        # the workload's own cell at a fixed small rate, so no MST probe runs
        cfg = replace(workloads.cells(workload, seed)[0], rate=500.0, duration=4.0)
        assert cfg.seed == seed
        sim = build(cfg)
        return digest({t: [(r.uid, r.value, r.ingest_ts) for r in topic_records(log)]
                       for t, log in topics_of(sim).items()})

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_golden_covers_every_cell():
    golden = run.load_golden()
    assert golden["seed"] == workloads.SEED
    assert sorted(golden["workloads"]) == sorted(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        labels = [workloads.label(c) for c in workloads.cells(name, workloads.SEED)]
        assert [g["cell"] for g in golden["workloads"][name]] == labels


def test_names_and_units_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    fake = workloads._pass(SMALL, [{"cell_s": 1.0, "rss_mb": 1.0}] * len(SMALL), wall_s=2.0,
                           sim_s=1.0, raw=merge_raw([]), partitions=[0, 0], cores=1)
    e2e = run.e2e_metrics([fake], attempted=2, failed=0)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        k: run.E2E_UNITS[k] for k in e2e
    }
    per_layer = run.layer_metrics(fake)
    assert [m["name"] for m in BENCH["per_layer"]] == list(per_layer)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in BENCH["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cyclic-fail", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
