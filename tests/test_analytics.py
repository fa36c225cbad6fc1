"""Oracle checks for the analytics: the Spark SQL table aggregations and
the latency and recovery metrics of ``harness.metrics_row``."""
import math

import duckdb
import pandas as pd
import pytest

from helpers import W, run_query
from repro.analytics.checkpoints import INVALID_SQL, invalid_summary
from repro.analytics.overhead import OVERHEAD_SQL, overhead_ratios
from repro.core.config import ExperimentConfig
from repro.core.harness import WARMUP, metrics_row, recovered_threshold
from repro.oracle import assert_equivalent

#: per-window latency percentiles over a table ``lat(sink_ts, ingest_ts)``;
#: parameters: warmup end, failure time (twice), resume time
WINDOW_SQL = """
SELECT
  (SELECT quantile_cont(sink_ts - ingest_ts, 0.5) FROM lat
    WHERE sink_ts >= ? AND sink_ts < ?) AS p50_pre,
  (SELECT quantile_cont(sink_ts - ingest_ts, 0.99) FROM lat
    WHERE sink_ts >= ? AND sink_ts < ?) AS p99_pre,
  (SELECT quantile_cont(sink_ts - ingest_ts, 0.5) FROM lat
    WHERE sink_ts >= ?) AS p50_post
"""

#: first whole second after resume whose median latency is back under the
#: threshold, measured from the failure; parameters: resume time,
#: threshold, failure time
RECOVERY_SQL = """
SELECT min(sec) + 1 - ? AS recovery_time FROM (
  SELECT floor(sink_ts) AS sec, median(sink_ts - ingest_ts) AS p50
  FROM lat WHERE sink_ts >= ? GROUP BY floor(sink_ts)
) WHERE p50 <= ?
"""

#: q12 UNC runs with a failure at 6 s: the short one never returns to its
#: pre-failure latency, the long one does
RUNS = {
    "short": dict(fail_at=6.0),
    "long": dict(fail_at=6.0, duration=25.0, rate=200.0),
}


def unc_row(run: str):
    kw = RUNS[run]
    res = run_query("q12", "UNC", **kw)
    cfg = ExperimentConfig(
        query="q12", protocol="UNC", workers=W, rate=kw.get("rate", 400.0),
        duration=kw.get("duration", 10.0), fail_at=kw["fail_at"], seed=1,
    )
    return metrics_row(cfg, res, float("nan")), res


def duckdb_latency(res, fail_at: float):
    lat = pd.DataFrame(res.telemetry.latencies, columns=["sink_ts", "ingest_ts"])
    t_resume = res.telemetry.recovery["t_resume"]
    warm = min(WARMUP, fail_at / 2)
    con = duckdb.connect()
    try:
        con.register("lat", lat)
        p50_pre, p99_pre, p50_post = con.execute(
            WINDOW_SQL, [warm, fail_at, warm, fail_at, t_resume]
        ).fetchone()
        (rt,) = con.execute(
            RECOVERY_SQL, [fail_at, t_resume, recovered_threshold(p50_pre)]
        ).fetchone()
    finally:
        con.close()
    return dict(p50_pre=p50_pre, p99_pre=p99_pre, p50_post=p50_post,
                recovery_time=float("nan") if rt is None else float(rt))


@pytest.fixture(scope="module")
def metrics_frame():
    rows = [
        dict(query="q1", workers=10, protocol="none", total_bytes=1000, data_bytes=1000,
             ckpt_total=0, invalid=0),
        dict(query="q1", workers=10, protocol="COOR", total_bytes=1010, data_bytes=1000,
             ckpt_total=240, invalid=0),
        dict(query="q1", workers=10, protocol="UNC", total_bytes=1005, data_bytes=1000,
             ckpt_total=303, invalid=3),
        dict(query="q1", workers=10, protocol="CIC", total_bytes=2100, data_bytes=1000,
             ckpt_total=285, invalid=5),
    ]
    return pd.DataFrame(rows)


class TestLatencyMetrics:
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_match_duckdb(self, run):
        row, res = unc_row(run)
        want = duckdb_latency(res, RUNS[run]["fail_at"])
        for col, v in want.items():
            if math.isnan(v):
                assert math.isnan(row[col]), col
            else:
                assert row[col] == pytest.approx(v, rel=1e-12), col

    def test_failure_visible_in_row(self):
        row, _ = unc_row("short")
        assert row["p50_post"] > 10 * row["p99_pre"]

    def test_recovery_time_finite_for_long_run(self):
        row, _ = unc_row("long")
        assert math.isfinite(row["recovery_time"]) and row["recovery_time"] > 0


class TestOverheadAnalytics:
    def test_matches_duckdb(self, spark, metrics_frame):
        got = overhead_ratios(spark, metrics_frame)
        assert_equivalent(got, OVERHEAD_SQL, metrics=metrics_frame)

    def test_values(self, spark, metrics_frame):
        pdf = overhead_ratios(spark, metrics_frame).toPandas().set_index("protocol")
        assert pdf.loc["CIC", "ratio"] == pytest.approx(2.1)
        assert pdf.loc["COOR", "ratio"] == pytest.approx(1.01)
        assert "none" not in pdf.index


class TestCheckpointAnalytics:
    def test_invalid_summary_matches_duckdb(self, spark, metrics_frame):
        got = invalid_summary(spark, metrics_frame)
        assert_equivalent(got, INVALID_SQL, metrics=metrics_frame)

