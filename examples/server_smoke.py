"""Server smoke test: build a summary, serve it, drive every endpoint.

The regeneration server (``repro.server``, ``hydra serve``) loads a summary
once into its refcounted cache and serves queries, verifications, exports
and NDJSON regeneration streams to concurrent HTTP clients.  This
walkthrough closes the loop over a real socket:

1. build a toy client database and its HYDRA summary (as in quickstart);
2. start a :class:`repro.server.BackgroundServer` on an ephemeral port and
   load the summary through the typed client;
3. run a query and assert it matches a direct serial engine execution;
4. verify the workload volumetrically through the server;
5. export to CSV through the server and validate the export against the
   summary through the same endpoint the CLI's ``--against`` flag uses;
6. stream a full regeneration as NDJSON and account for every row;
7. swap the version under a held query and evict.

Run with:  python examples/server_smoke.py
(CI executes this file as a smoke test; it exits non-zero on any mismatch.)
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import AQPExtractor, Hydra, ServerClient
from repro.client.package import InformationPackage
from repro.executor.engine import ExecutionEngine
from repro.plans.planner import build_plan
from repro.server import BackgroundServer, SummaryService
from repro.server.service import external_result_columns
from repro.sql.parser import parse_query
from repro.workload.toy import FIGURE1_QUERY, ToyConfig, generate_toy_database

QUERY = "select count(*) from S where S.A >= 20 and S.A < 60"


def main() -> int:
    # 1. Client site: toy database, metadata, AQPs, summary.
    database = generate_toy_database(ToyConfig(r_rows=5_000, s_rows=500, t_rows=50))
    extractor = AQPExtractor(database=database)
    metadata = extractor.profile_metadata()
    aqps = [extractor.extract_sql(FIGURE1_QUERY, name="figure1")]
    hydra = Hydra(metadata=metadata)
    summary = hydra.build_summary(aqps).summary
    print(f"summary: {summary.size_bytes():,} bytes, {summary.total_rows():,} rows")

    # Direct serial engine run: the correctness baseline.
    direct_db = hydra.regenerate(summary)
    engine = ExecutionEngine(database=direct_db)
    plan = build_plan(parse_query(QUERY, direct_db.schema), direct_db.schema)
    direct = engine.execute(plan)
    expected = external_result_columns(direct_db, direct.columns)

    # 2. Serve it.
    service = SummaryService()
    # The client keeps its connections open between calls; leaving the
    # ``with`` closes them (each holds one server thread until then).
    with BackgroundServer(service) as server, ServerClient("127.0.0.1", server.port) as client:
        info = client.load_summary("toy", summary=summary.to_dict())
        print(f"loaded '{info.name}' generation {info.generation} ({info.fingerprint[:12]})")

        # 3. Query: bit-identical to the direct run.
        response = client.query("toy", QUERY)
        if response.columns != expected:
            print(f"MISMATCH: served {response.columns} != direct {expected}")
            return 1
        print(f"query: count={response.columns['count'][0]} "
              f"route={response.aggregate_route} (matches direct engine run)")

        # 4. Volumetric verification through the server.
        with tempfile.TemporaryDirectory() as tmp:
            package_path = Path(tmp) / "package.json"
            InformationPackage(metadata=metadata, aqps=aqps).save(package_path)
            verification = client.verify("toy", package_path=str(package_path))
            if not verification.ok:
                print(f"volumetric verification failed: {verification}")
                return 1
            print(f"verify: {verification.total_edges} edges, "
                  f"max rel. error {verification.max_relative_error:.4f}")

            # 5. Export + export-validation through the server.
            out_dir = Path(tmp) / "export"
            export = client.export("toy", format="csv", out_dir=str(out_dir))
            against = client.verify(
                "toy", package_path=str(package_path), against_dir=str(out_dir)
            )
            if not against.ok:
                print(f"export validation failed: {against.problems}")
                return 1
            print(f"export: {export.total_rows:,} rows to csv, revalidated "
                  f"({against.rows_checked:,} rows checked)")

        # 6. NDJSON regeneration stream.
        done = [event for event in client.regenerate("toy") if event.event == "done"]
        if not done or done[0].rows != summary.total_rows():
            print(f"regeneration stream lost rows: {done}")
            return 1
        print(f"regenerate: streamed {done[0].rows:,} rows "
              f"in {done[0].seconds:.2f}s as NDJSON")

        # 7. Version swap + evict.
        swapped = client.load_summary("toy", summary=summary.to_dict())
        if not swapped.cache_hit:
            print("re-loading identical content must be a cache hit")
            return 1
        if not client.evict("toy").evicted:
            print("evict must report the entry removed")
            return 1
        print(f"cache: identical reload was a hit, evict ok "
              f"({len(client.list_summaries())} summaries left)")

    print("server smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
