"""A synthetic TPC-H-like schema and data generator.

A second, structurally different workload substrate (snowflake rather than
pure star: ``lineitem -> orders -> customer`` plus ``lineitem -> part`` and
``lineitem -> supplier``) used by the examples and by the tests that exercise
multi-level borrowed predicates (a filter on ``customer`` reaching
``lineitem`` through ``orders``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..catalog.schema import Column, ForeignKey, Schema, Table
from ..catalog.types import DATE, FLOAT, INTEGER, StringType
from ..storage.database import Database
from ..storage.table import TableData

__all__ = [
    "TPCHConfig",
    "tpch_schema",
    "generate_tpch_database",
    "CHAIN_COUNT_QUERY",
]


# The snowflake chain lineitem → orders → customer: a 3-relation FK chain
# COUNT, the shape served by the engine's multi-way summary fast path when
# the customer filter covers whole orders regions all-or-nothing.
CHAIN_COUNT_QUERY = (
    "select count(*) from lineitem, orders, customer "
    "where lineitem.l_orderkey = orders.o_orderkey "
    "and orders.o_custkey = customer.c_custkey "
    "and customer.c_mktsegment = 'BUILDING'"
)


SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PART_TYPES = ("BRASS", "COPPER", "ECONOMY", "NICKEL", "PROMO", "STANDARD", "STEEL")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")


@dataclass(frozen=True)
class TPCHConfig:
    """Scale configuration of the synthetic TPC-H-like database."""

    scale: float = 1.0
    seed: int = 11

    @property
    def lineitem_rows(self) -> int:
        return max(1, int(60_000 * self.scale))

    @property
    def orders_rows(self) -> int:
        return max(1, int(15_000 * self.scale))

    @property
    def customer_rows(self) -> int:
        return max(1, int(1_500 * self.scale))

    @property
    def part_rows(self) -> int:
        return max(1, int(2_000 * self.scale))

    @property
    def supplier_rows(self) -> int:
        return max(1, int(100 * self.scale))


def tpch_schema() -> Schema:
    customer = Table(
        name="customer",
        columns=[
            Column("c_custkey", INTEGER),
            Column("c_mktsegment", StringType(dictionary=SEGMENTS)),
            Column("c_acctbal", FLOAT),
            Column("c_nationkey", INTEGER),
        ],
        primary_key="c_custkey",
    )
    orders = Table(
        name="orders",
        columns=[
            Column("o_orderkey", INTEGER),
            Column("o_custkey", INTEGER),
            Column("o_orderdate", DATE),
            Column("o_totalprice", FLOAT),
            Column("o_orderpriority", INTEGER),
        ],
        primary_key="o_orderkey",
        foreign_keys=[ForeignKey(column="o_custkey", ref_table="customer", ref_column="c_custkey")],
    )
    part = Table(
        name="part",
        columns=[
            Column("p_partkey", INTEGER),
            Column("p_type", StringType(dictionary=PART_TYPES)),
            Column("p_size", INTEGER),
            Column("p_retailprice", FLOAT),
        ],
        primary_key="p_partkey",
    )
    supplier = Table(
        name="supplier",
        columns=[
            Column("s_suppkey", INTEGER),
            Column("s_region", StringType(dictionary=REGIONS)),
            Column("s_acctbal", FLOAT),
        ],
        primary_key="s_suppkey",
    )
    lineitem = Table(
        name="lineitem",
        columns=[
            Column("l_linekey", INTEGER),
            Column("l_orderkey", INTEGER),
            Column("l_partkey", INTEGER),
            Column("l_suppkey", INTEGER),
            Column("l_quantity", INTEGER),
            Column("l_extendedprice", FLOAT),
            Column("l_discount", FLOAT),
            Column("l_shipdate", DATE),
        ],
        primary_key="l_linekey",
        foreign_keys=[
            ForeignKey(column="l_orderkey", ref_table="orders", ref_column="o_orderkey"),
            ForeignKey(column="l_partkey", ref_table="part", ref_column="p_partkey"),
            ForeignKey(column="l_suppkey", ref_table="supplier", ref_column="s_suppkey"),
        ],
    )
    return Schema.from_tables([lineitem, orders, part, supplier, customer])


def generate_tpch_database(config: TPCHConfig | None = None) -> Database:
    """Materialise the synthetic TPC-H-like client database."""
    config = config or TPCHConfig()
    rng = np.random.default_rng(config.seed)
    schema = tpch_schema()

    customer = TableData.from_columns(
        schema.table("customer"),
        {
            "c_custkey": np.arange(config.customer_rows, dtype=np.int64),
            "c_mktsegment": rng.integers(0, len(SEGMENTS), size=config.customer_rows),
            "c_acctbal": np.round(rng.uniform(-999.0, 9999.0, size=config.customer_rows), 2),
            "c_nationkey": rng.integers(0, 25, size=config.customer_rows),
        },
    )
    orders = TableData.from_columns(
        schema.table("orders"),
        {
            "o_orderkey": np.arange(config.orders_rows, dtype=np.int64),
            "o_custkey": rng.integers(0, config.customer_rows, size=config.orders_rows),
            # Days since the DATE epoch (1990-01-01): orders span 1995-1999.
            "o_orderdate": rng.integers(1826, 3652, size=config.orders_rows),
            "o_totalprice": np.round(rng.gamma(2.5, 40_000.0, size=config.orders_rows), 2),
            "o_orderpriority": rng.integers(1, 6, size=config.orders_rows),
        },
    )
    part = TableData.from_columns(
        schema.table("part"),
        {
            "p_partkey": np.arange(config.part_rows, dtype=np.int64),
            "p_type": rng.integers(0, len(PART_TYPES), size=config.part_rows),
            "p_size": rng.integers(1, 51, size=config.part_rows),
            "p_retailprice": np.round(rng.uniform(900.0, 2000.0, size=config.part_rows), 2),
        },
    )
    supplier = TableData.from_columns(
        schema.table("supplier"),
        {
            "s_suppkey": np.arange(config.supplier_rows, dtype=np.int64),
            "s_region": rng.integers(0, len(REGIONS), size=config.supplier_rows),
            "s_acctbal": np.round(rng.uniform(-999.0, 9999.0, size=config.supplier_rows), 2),
        },
    )
    lineitem = TableData.from_columns(
        schema.table("lineitem"),
        {
            "l_linekey": np.arange(config.lineitem_rows, dtype=np.int64),
            "l_orderkey": rng.integers(0, config.orders_rows, size=config.lineitem_rows),
            "l_partkey": ((rng.zipf(1.4, size=config.lineitem_rows) - 1) % config.part_rows).astype(np.int64),
            "l_suppkey": rng.integers(0, config.supplier_rows, size=config.lineitem_rows),
            "l_quantity": rng.integers(1, 51, size=config.lineitem_rows),
            "l_extendedprice": np.round(rng.gamma(2.0, 15_000.0, size=config.lineitem_rows), 2),
            "l_discount": np.round(rng.uniform(0.0, 0.1, size=config.lineitem_rows), 2),
            "l_shipdate": rng.integers(1826, 3700, size=config.lineitem_rows),
        },
    )

    return Database.from_table_data(
        schema, [lineitem, orders, part, supplier, customer]
    )
