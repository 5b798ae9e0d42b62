"""E12 — Streaming summary-aware joins and the join-COUNT fast path.

PR 1 made single-table scans scale-free; this experiment shows the same for
multi-table SPJ queries.  A selective FK–PK join over the Figure-1 fact
relation is executed along three routes (see ``bench_pushdown.Vendor``: a
route is what the vendor attaches plus the one engine option):

* **materialised** — materialise both joined relations, then execute: the
  materialising hash join over full scans.  One measured region — time and
  peak memory include the materialisation (O(both relations));
* **streaming** — dataless build/probe: the dimension side (smaller summary
  cardinality) is built, the fact side streams batch-by-batch with semi-join
  FK pushdown skipping summary segments that cannot join: peak memory is
  O(build + batch + output);
* **default** — dataless: ``COUNT`` over the single FK–PK join is answered
  from the two summaries in O(#summary rows) via round-robin interval
  arithmetic, generating zero tuples.

All routes must produce bit-identical counts and AQP annotations.  The
streaming route must allocate ≥5× less peak memory than the materialised
route, the summary route must be ≥10× faster at the largest scale, and the
volumetric-verification results must not depend on the route.
"""

from __future__ import annotations

import tracemalloc

from bench_pushdown import ROUTES, Vendor, run_route
from reporting import record

from repro.plans.planner import build_plan
from repro.sql.parser import parse_query
from repro.telemetry import telemetry_session
from repro.verify.comparator import VolumetricComparator

JOIN_COUNT_SQL = (
    "select count(*) from R, S where R.S_fk = S.S_pk and S.A >= 20 and S.A < 22"
)


def _workload_aqps(database, aqps):
    """The fixture workload plus the benchmark's own join query AQP.

    Including the join query in the summary-building workload is the paper's
    setting: the summary then preserves its cardinalities exactly, so the
    benchmark exercises a selective-but-non-trivial join at every scale.
    """
    from repro.client.extractor import AQPExtractor
    from repro.sql.parser import parse_query

    extractor = AQPExtractor(database=database)
    query = parse_query(JOIN_COUNT_SQL, database.schema, name="join_count")
    return list(aqps) + [extractor.extract(query)]


def test_e12_join_routes_and_count_fastpath(benchmark, toy_client):
    database, metadata, _queries, aqps = toy_client
    aqps = _workload_aqps(database, aqps)
    plan = build_plan(
        parse_query(JOIN_COUNT_SQL, metadata.schema, name="join_count"), metadata.schema
    )

    print()
    print(f"E12: selective FK–PK join COUNT(*) over R ⋈ S — {JOIN_COUNT_SQL!r}")
    timings: dict[int, dict[str, float]] = {}
    factors = (1, 10, 100)
    for factor in factors:
        vendor = Vendor(metadata, aqps, factor)
        rows = vendor.dataless.row_count("R")
        outcomes = {name: run_route(vendor, plan, name) for name in ROUTES}
        counts = {name: outcome[0] for name, outcome in outcomes.items()}
        annotations = {name: outcome[1] for name, outcome in outcomes.items()}
        assert counts["materialised"] == counts["streaming"] == counts["default"]
        assert annotations["materialised"] == annotations["streaming"] == annotations["default"]
        timings[factor] = {name: outcome[2] for name, outcome in outcomes.items()}
        for name, (count, _annotations, elapsed, scanned) in outcomes.items():
            print(
                f"  x{factor:>4} ({rows:>12,} rows) {name:>13}: count={count:>10,} "
                f"in {elapsed * 1e3:9.2f} ms, {scanned:>12,} rows generated"
            )

    largest = timings[factors[-1]]
    speedup = largest["materialised"] / max(largest["default"], 1e-9)
    print(f"  summary route vs materialise-then-execute at x{factors[-1]}: {speedup:,.0f}x faster")
    assert speedup >= 10.0
    # The summary route is O(#summary rows): it must not degrade with scale.
    assert timings[factors[-1]]["default"] < timings[factors[0]]["materialised"] * 10

    benchmark.extra_info["timings_ms"] = {
        str(factor): {name: round(seconds * 1e3, 3) for name, seconds in routes.items()}
        for factor, routes in timings.items()
    }
    benchmark.extra_info["speedup_at_largest_scale"] = round(speedup, 1)

    # Attach the join-route counters of one instrumented summary-route run.
    with telemetry_session() as session:
        run_route(vendor, plan, "default")
    counters = session.metrics.snapshot()["counters"]
    record("E12", "join_count_fastpath_speedup", speedup, metrics=counters)
    benchmark.pedantic(lambda: run_route(vendor, plan, "default"), rounds=5, iterations=1)


def test_e12_streaming_join_is_memory_bounded(toy_client):
    """Probe-side peak allocation drops ≥5× versus materialise-then-join."""
    database, metadata, _queries, aqps = toy_client
    aqps = _workload_aqps(database, aqps)
    vendor = Vendor(metadata, aqps, 40)
    plan = build_plan(parse_query(JOIN_COUNT_SQL, metadata.schema), metadata.schema)

    peaks = {}
    for name in ("materialised", "streaming"):
        tracemalloc.start()
        run_route(vendor, plan, name, annotate=False)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[name] = peak

    rows = vendor.dataless.row_count("R")
    print()
    print(f"E12 (memory): {rows:,} probe-side rows")
    for name, peak in peaks.items():
        print(f"  {name:>13}: peak allocation {peak / 1e6:8.2f} MB")
    # The materialised route holds the probe side's full join-key column (at
    # least); streaming stays within the build side plus a few batches.
    assert peaks["materialised"] > rows * 8
    assert peaks["streaming"] < peaks["materialised"] / 5
    record("E12", "probe_peak_bytes_materialising", peaks["materialised"])
    record("E12", "probe_peak_bytes_streaming", peaks["streaming"])


def test_e12_verification_is_route_independent(toy_client):
    """Volumetric-accuracy results are bit-identical between join routes."""
    database, metadata, _queries, aqps = toy_client
    aqps = _workload_aqps(database, aqps)
    vendor = Vendor(metadata, aqps, 1)
    materialised = vendor.hydra.regenerate(vendor.summary, materialize=vendor.summary.relations)

    baseline = VolumetricComparator(database=materialised).verify(aqps).comparisons
    assert baseline
    assert VolumetricComparator(database=vendor.dataless).verify(aqps).comparisons == baseline
    print()
    print(
        f"E12 (verification): {len(baseline)} operator edges identical on the "
        "materialised and the dataless database"
    )
