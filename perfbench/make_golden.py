"""Write ``golden.json``: every cell's digest at the committed seed, plus
the failure-free output digest of each order-independent cell.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Cells run serially in this process, also
those the benchmark runs on Spark, so the benchmark's sweep is checked
against serial runs. Workloads not named keep their entries.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core import harness  # noqa: E402

import workloads  # noqa: E402
from instrument import Instrument  # noqa: E402
from run import GOLDEN_PATH  # noqa: E402


def failure_free_output(cfg) -> str:
    """Output digest of the same protocol at the same rate, no failure."""
    with Instrument(traced=False) as ins:
        harness.run_config(replace(harness.resolve_rate(cfg), fail_at=None))
    return ins.cells[-1]["output"]


def golden_cells(workload: str) -> list:
    cfgs = workloads.cells(workload, workloads.SEED)
    out = []
    for cfg, rec in zip(cfgs, workloads.serial_pass(cfgs, traced=False)["cells"]):
        if "error" in rec:
            raise RuntimeError(f"{rec['label']} raised:\n{rec['error']}")
        entry = {"cell": rec["label"], "digest": rec["digest"]}
        # the cyclic query with deletions is order-dependent by design
        if cfg.query != "cyclic":
            entry["failure_free_output"] = (
                rec["output"] if cfg.fail_at is None else failure_free_output(cfg)
            )
        out.append(entry)
        print(entry, flush=True)
    return out


def main() -> None:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    golden = {"seed": workloads.SEED, "workloads": {}}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as f:
            golden["workloads"] = json.load(f)["workloads"]
    for name in names:
        golden["workloads"][name] = golden_cells(name)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
