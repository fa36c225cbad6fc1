"""Benchmark of the checkpointing simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
The workloads and why they were chosen are listed in ``BENCHMARK.json``;
their cells are defined in ``workloads.py``.

``--trace 0`` makes passes over the workload's cells, each cell once per
pass, until ``--seconds`` have elapsed (at least one pass), and reports
the medians over passes of the end-to-end metrics. ``--trace 1`` makes one
traced pass and reports its per-layer metrics and its wall seconds,
``trace.wall_s``, measured like ``wall_s``: the tracing overhead is
``trace.wall_s`` minus the untraced run's ``wall_s``. (An untraced pass in
the same process would make a traced run of q3-fail-w50 take well over two
minutes.)

Every cell is checked. At ``--seed 7``, the seed ``golden.json`` was
written for, each cell's digest (metrics row, sink results, state
fingerprints) must equal its golden digest; at other seeds the digests are
printed instead. Exactly-once is checked for order-independent cells: the
recovered output must equal the committed failure-free output (seed 7) and
the DuckDB answer over the cell's own inputs (any seed). The golden digests
come from untraced runs, so at seed 7 a traced pass must reproduce them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
cells that raised, differ from their golden digest or break exactly-once;
``correct`` is false if a cell raised or differs from its golden digest.

Exit status 2, with no result line, when the program is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
WORK_DIR = os.path.join(HERE, ".work")

#: end-to-end metric -> unit
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_msgs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cell_ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_eff"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def check(passes, golden_cells):
    """Check every cell; returns (correct, attempted, failed, notes)."""
    correct, attempted, failed, notes = True, 0, 0, []
    for p in passes:
        for i, cell in enumerate(p["cells"]):
            attempted += 1
            problems = []
            if "error" in cell:
                correct = False
                problems.append("raised:\n" + cell["error"])
            else:
                if golden_cells is not None:
                    ref = golden_cells[i]
                    if ref["cell"] != cell["label"] or ref["digest"] != cell["digest"]:
                        correct = False
                        problems.append("digest differs from golden " + ref["digest"])
                    ff = ref.get("failure_free_output")
                    if ff is not None and cell["output"] != ff:
                        problems.append("exactly-once: output differs from the failure-free run")
                if cell["oracle_ok"] is False:
                    problems.append("exactly-once: sink output differs from the DuckDB oracle")
            if problems:
                failed += 1
                notes.append(f"FAILED {cell['label']}: " + "; ".join(problems))
    return correct, attempted, failed, notes


def e2e_metrics(passes, attempted: int, failed: int) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "sim_msgs_per_s": statistics.median(
            p["data_msgs"] / p["sim_s"] if p["sim_s"] else 0.0 for p in passes
        ),
        "peak_rss_mb": max(max(p["rss_mb"]) for p in passes),
        "cell_ok_ratio": (attempted - failed) / attempted,
    }


def layer_metrics(traced) -> dict:
    from instrument import layers

    out = layers(traced["raw"])
    out.update(traced["sweep"])
    out["trace.wall_s"] = traced["wall_s"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool):
    import workloads

    cfgs = workloads.cells(workload, seed)
    spark, session_s = None, 0.0
    t_start = time.perf_counter()
    if workload in workloads.SPARK_WORKLOADS:
        from spark_cells import start_spark

        spark, session_s = start_spark(ROOT, WORK_DIR)
    try:
        passes = []
        while not passes or (not trace and time.perf_counter() - t_start < seconds):
            passes.append(workloads.run_pass(spark, cfgs, trace))
    finally:
        if spark is not None:
            from spark_cells import stop_spark

            stop_spark(spark)
    return passes, session_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the seed golden.json was written for)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    golden = load_golden()
    seed = golden["seed"] if args.seed is None else args.seed
    golden_cells = golden["workloads"][args.workload] if seed == golden["seed"] else None
    passes, session_s = run(args.workload, seed, args.seconds, bool(args.trace))

    correct, attempted, failed, notes = check(passes, golden_cells)
    for cell in passes[0]["cells"]:
        print(f"cell {cell['label']}: digest {cell.get('digest')} output {cell.get('output')} "
              f"oracle_ok {cell.get('oracle_ok')}")
    # the session start belongs to the first pass
    passes[0]["wall_s"] += session_s
    passes[0]["setup_s"] += session_s
    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in layer_metrics(passes[0]).items()}
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e_metrics(passes, attempted, failed).items()}
    for note in notes:
        print(note)
    print(f"session_s {session_s}")
    for p in passes:
        print(f"pass: wall_s {p['wall_s']} setup_s {p['setup_s']} sim_s {p['sim_s']} "
              f"data_msgs {p['data_msgs']} cell_sum_s {p['sweep']['sweep.cell_sum_s']}")
    print(f"cell_fail_ratio {failed / attempted} ratio ({failed}/{attempted})")
    for k, (v, unit) in metrics.items():
        print(f"{k} {v} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
