"""Shared fixtures for the HYDRA reproduction test suite."""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from typing import Any, Callable

import numpy as np
import pytest

from repro.catalog.metadata import collect_metadata
from repro.client.extractor import AQPExtractor
from repro.core.columns import FKColumn, integer_prefix
from repro.core.errors import SummaryError
from repro.core.summary import SummaryRow
from repro.executor.engine import ExecutionEngine
from repro.sql.parser import parse_query
from repro.sql.predicates import Interval, IntervalSet
from repro.storage.database import Database
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.toy import FIGURE1_QUERY, ToyConfig, generate_toy_database, toy_schema
from repro.workload.tpcds import TPCDSConfig, generate_tpcds_database
from repro.workload.tpch import TPCHConfig, generate_tpch_database

from aggregate_reference import stream_aggregate


@pytest.fixture(scope="session")
def toy_database():
    """A small materialised instance of the paper's Figure-1 schema."""
    return generate_toy_database(ToyConfig(r_rows=5_000, s_rows=500, t_rows=50, seed=42))


@pytest.fixture(scope="session")
def toy_metadata(toy_database):
    return collect_metadata(toy_database)


@pytest.fixture()
def toy_schema_fixture():
    return toy_schema()


@pytest.fixture(scope="session")
def toy_figure1_aqp(toy_database):
    """The Figure-1 query, planned and annotated on the toy client database."""
    extractor = AQPExtractor(database=toy_database)
    return extractor.extract_sql(FIGURE1_QUERY, name="figure1")


@pytest.fixture(scope="session")
def toy_workload(toy_database, toy_metadata):
    """A mixed workload of hand-written queries on the toy schema."""
    schema = toy_database.schema
    sqls = [
        ("q_s_only", "select * from S where S.A >= 10 and S.A < 30"),
        ("q_t_only", "select count(*) from T where T.C >= 5"),
        ("q_rs", "select * from R, S where R.S_fk = S.S_pk and S.B < 25"),
        (
            "q_rst",
            "select * from R, S, T where R.S_fk = S.S_pk and R.T_fk = T.T_pk "
            "and S.A >= 20 and S.A < 60 and T.C >= 2 and T.C < 3",
        ),
        (
            "q_rst2",
            "select * from R, S, T where R.S_fk = S.S_pk and R.T_fk = T.T_pk "
            "and S.A < 40 and T.C >= 4 and T.C < 8",
        ),
    ]
    return [parse_query(sql, schema, name=name) for name, sql in sqls]


@pytest.fixture(scope="session")
def toy_aqps(toy_database, toy_workload):
    extractor = AQPExtractor(database=toy_database)
    return extractor.extract_workload(toy_workload)


@pytest.fixture(scope="session")
def tpcds_database():
    """A small synthetic TPC-DS-like client database (fast to build)."""
    return generate_tpcds_database(TPCDSConfig(scale=0.05, seed=7))


@pytest.fixture(scope="session")
def tpcds_metadata(tpcds_database):
    return collect_metadata(tpcds_database)


@pytest.fixture(scope="session")
def tpcds_workload(tpcds_metadata):
    return generate_workload(
        tpcds_metadata,
        WorkloadConfig(num_queries=20, templates_per_dimension=4, seed=2018),
    )


@pytest.fixture(scope="session")
def tpcds_aqps(tpcds_database, tpcds_workload):
    extractor = AQPExtractor(database=tpcds_database)
    return extractor.extract_workload(tpcds_workload)


@pytest.fixture(scope="session")
def tpch_database():
    return generate_tpch_database(TPCHConfig(scale=0.1, seed=11))


@pytest.fixture(scope="session")
def tpch_metadata(tpch_database):
    return collect_metadata(tpch_database)


@pytest.fixture(scope="session")
def assert_same_stream():
    """``check(reference, candidate)``: two block streams agree yield for yield.

    Same ``(start, generated, matched)`` accounting, same column order,
    dtypes and bytes in every block.
    """

    def check(reference, candidate):
        assert len(reference) == len(candidate)
        for (*accounting, left), (*accounting2, right) in zip(reference, candidate):
            assert accounting == accounting2
            assert list(left) == list(right)
            for name in left:
                assert left[name].dtype == right[name].dtype
                assert np.array_equal(left[name], right[name])

    return check


@pytest.fixture(scope="session")
def fk_targets_oracle():
    """``targets(ref, offsets)``: the per-offset gather ``FKReference`` once used.

    The body of the retired ``FKReference.targets_for``, kept verbatim as the
    differential oracle for ``fill_targets`` / ``kth_target`` and as the
    brute-force enumeration behind the ``FKColumn.matched`` tests.
    """

    def targets(ref, offsets):
        total = ref.target_count()
        if total <= 0:
            raise SummaryError(
                f"foreign-key reference to {ref.ref_table!r} has no admissible target"
            )
        offsets = np.asarray(offsets, dtype=np.int64) % total
        sizes = np.array([interval.count_integers() for interval in ref.intervals], dtype=np.int64)
        starts = np.array(
            [int(np.ceil(interval.low)) for interval in ref.intervals], dtype=np.int64
        )
        boundaries = np.cumsum(sizes)
        which = np.searchsorted(boundaries, offsets, side="right")
        previous = np.concatenate(([0], boundaries[:-1]))
        return starts[which] + (offsets - previous[which])

    return targets


@pytest.fixture(scope="session")
def fk_count_oracle():
    """``count(ref, num_offsets, allowed)``: the nested loop of the first scalar FK count.

    One ``IntervalSet`` intersection per (admissible piece × allowed
    interval) pair, kept as the second differential oracle for the
    vectorised count (``fk_matched``) — the first is the brute-force
    enumeration through ``fk_targets_oracle``, which cannot reach large
    offset counts.
    """

    def count(ref, num_offsets, allowed):
        total = ref.target_count()
        if total <= 0 or num_offsets <= 0:
            return 0
        full_cycles, remainder = divmod(int(num_offsets), total)
        pieces = [interval for interval in ref.intervals if interval.count_integers()]
        starts = [math.ceil(piece.low) for piece in pieces]
        bounds = list(accumulate((piece.count_integers() for piece in pieces), initial=0))
        matched = 0
        for interval, base, position in zip(pieces, starts, bounds):
            for piece in allowed.intersect(IntervalSet([interval])):
                piece_size = piece.count_integers()
                if piece_size == 0:
                    continue
                lo = position + (math.ceil(piece.low) - base)
                hi = lo + piece_size
                matched += piece_size * full_cycles
                matched += max(0, min(hi, remainder) - lo)
        return matched

    return count


@pytest.fixture(scope="session")
def fk_matched():
    """``matched(ref, start, stop, allowed, bounds=None)``: ``FKColumn.matched`` over one spread.

    How many offsets ``start..stop-1`` of a row spreading ``ref`` reach a
    target in ``allowed``, as the difference of the vectorised primitive at
    the two ends.  With ``bounds`` (a referenced relation's cumulative pk
    offsets) one count per referenced row, through a prefix with one weight
    per row — as the summary route's fold weighs a ``SUM``'s owner rows.
    """

    def matched(ref, start, stop, allowed, bounds=None):
        fk = FKColumn([SummaryRow(count=0, fk_refs={"fk": ref})], "fk")
        if bounds is not None:
            rows = [Interval(low, high) for low, high in zip(bounds, bounds[1:])]
            allowed = [allowed.intersect(IntervalSet([row])) for row in rows]
        prefixes = [
            integer_prefix(part, fk.low, fk.high)
            for part in ([allowed] if bounds is None else allowed)
        ]
        at, _reachable = fk.matched(
            lambda x: np.stack([prefix(x) for prefix in prefixes], axis=1),
            np.array([start, stop], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        )
        counts = (at[1] - at[0]).tolist()
        return counts[0] if bounds is None else counts

    return matched


@pytest.fixture(scope="session")
def engine_routes():
    """``routes(dataless_database)``: the three ways a plan can run.

    The engine picks its route from what it observes, so a route is a
    ``(database, execute)`` pair, ``execute(plan)`` running the plan on
    that database: *materialised* (every relation materialised — scans,
    generic filters and the materialising hash join; the independent
    reference), *streaming* (dataless, an aggregate taken over its executed
    child: :func:`aggregate_reference.stream_aggregate`) and *default*
    (dataless).
    """

    def routes(dataless: Database) -> dict[str, tuple[Database, Callable[..., Any]]]:
        schema = dataless.schema
        materialised = Database.from_table_data(
            schema,
            [dataless.provider(name).materialize(schema.table(name)) for name in dataless],
        )
        return {
            "materialised": (materialised, ExecutionEngine(database=materialised).execute),
            "streaming": (dataless, partial(stream_aggregate, dataless)),
            "default": (dataless, ExecutionEngine(database=dataless).execute),
        }

    return routes
