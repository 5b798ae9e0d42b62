"""A synthetic TPC-DS-like star schema and data generator.

The paper's headline experiment builds the summary of a 131-query workload on
the TPC-DS database.  The official TPC-DS data generator and query set are not
redistributable, so this module provides the closest equivalent that exercises
the same code paths: a retail constellation schema whose three fact tables
(``store_sales``, ``web_sales``, ``catalog_sales``) share four dimensions
(``item``, ``customer``, ``date_dim``, ``store``), with realistic cardinality
ratios and skewed value distributions, at a configurable scale factor.
Spreading the workload over several fact tables matches the structure of the
real TPC-DS query set (and of the paper's experiment), where each individual
relation receives a moderate number of constraints.  The ITEM columns mirror
the ones shown in the demo's Figure 4 / Table 1 (``i_manager_id``,
``i_class``, ``i_category`` ...) so the sample-tuple experiment reads the same
way as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any
import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Column, ForeignKey, Schema, Table
from ..catalog.types import FLOAT, INTEGER, StringType
from ..storage.database import Database
from ..storage.table import TableData

__all__ = [
    "TPCDSConfig",
    "tpcds_schema",
    "generate_tpcds_database",
    "ITEM_CLASSES",
    "ITEM_CATEGORIES",
]


ITEM_CATEGORIES = (
    "Books",
    "Children",
    "Electronics",
    "Home",
    "Jewelry",
    "Men",
    "Music",
    "Shoes",
    "Sports",
    "Women",
)

ITEM_CLASSES = (
    "accessories",
    "athletic",
    "classical",
    "computers",
    "dresses",
    "fiction",
    "fragrances",
    "infants",
    "pop",
    "reference",
    "rock",
    "swimwear",
)

STORE_STATES = ("AL", "CA", "GA", "IL", "MI", "NY", "TN", "TX", "WA")


@dataclass(frozen=True)
class TPCDSConfig:
    """Scale configuration of the synthetic TPC-DS-like database.

    ``scale`` multiplies every table's base row count; ``scale=1.0`` gives a
    laptop-friendly instance (~120k fact rows) whose workload behaviour —
    constraint counts, LP sizes, error profile — matches the paper's setup.
    """

    scale: float = 1.0
    seed: int = 7

    @property
    def store_sales_rows(self) -> int:
        return max(1, int(120_000 * self.scale))

    @property
    def web_sales_rows(self) -> int:
        return max(1, int(48_000 * self.scale))

    @property
    def catalog_sales_rows(self) -> int:
        return max(1, int(72_000 * self.scale))

    @property
    def item_rows(self) -> int:
        return max(1, int(6_000 * self.scale))

    @property
    def customer_rows(self) -> int:
        return max(1, int(20_000 * self.scale))

    @property
    def date_rows(self) -> int:
        # The calendar does not grow with data volume.
        return 1_826  # five years of days

    @property
    def store_rows(self) -> int:
        return max(1, int(60 * max(1.0, self.scale ** 0.5)))


def tpcds_schema() -> Schema:
    """The synthetic star schema (fact + four dimensions)."""
    item = Table(
        name="item",
        columns=[
            Column("i_item_sk", INTEGER),
            Column("i_manager_id", INTEGER),
            Column("i_class", StringType(dictionary=ITEM_CLASSES)),
            Column("i_category", StringType(dictionary=ITEM_CATEGORIES)),
            Column("i_current_price", FLOAT),
            Column("i_brand_id", INTEGER),
        ],
        primary_key="i_item_sk",
    )
    customer = Table(
        name="customer",
        columns=[
            Column("c_customer_sk", INTEGER),
            Column("c_birth_year", INTEGER),
            Column("c_birth_month", INTEGER),
            Column("c_preferred_cust_flag", INTEGER),
            Column("c_current_hdemo_sk", INTEGER),
        ],
        primary_key="c_customer_sk",
    )
    date_dim = Table(
        name="date_dim",
        columns=[
            Column("d_date_sk", INTEGER),
            Column("d_year", INTEGER),
            Column("d_moy", INTEGER),
            Column("d_dom", INTEGER),
            Column("d_qoy", INTEGER),
        ],
        primary_key="d_date_sk",
    )
    store = Table(
        name="store",
        columns=[
            Column("s_store_sk", INTEGER),
            Column("s_state", StringType(dictionary=STORE_STATES)),
            Column("s_number_employees", INTEGER),
            Column("s_floor_space", INTEGER),
        ],
        primary_key="s_store_sk",
    )
    store_sales = Table(
        name="store_sales",
        columns=[
            Column("ss_sales_sk", INTEGER),
            Column("ss_item_sk", INTEGER),
            Column("ss_customer_sk", INTEGER),
            Column("ss_sold_date_sk", INTEGER),
            Column("ss_store_sk", INTEGER),
            Column("ss_quantity", INTEGER),
            Column("ss_sales_price", FLOAT),
            Column("ss_net_profit", FLOAT),
        ],
        primary_key="ss_sales_sk",
        foreign_keys=[
            ForeignKey(column="ss_item_sk", ref_table="item", ref_column="i_item_sk"),
            ForeignKey(column="ss_customer_sk", ref_table="customer", ref_column="c_customer_sk"),
            ForeignKey(column="ss_sold_date_sk", ref_table="date_dim", ref_column="d_date_sk"),
            ForeignKey(column="ss_store_sk", ref_table="store", ref_column="s_store_sk"),
        ],
    )
    web_sales = Table(
        name="web_sales",
        columns=[
            Column("ws_sales_sk", INTEGER),
            Column("ws_item_sk", INTEGER),
            Column("ws_bill_customer_sk", INTEGER),
            Column("ws_sold_date_sk", INTEGER),
            Column("ws_quantity", INTEGER),
            Column("ws_net_paid", FLOAT),
        ],
        primary_key="ws_sales_sk",
        foreign_keys=[
            ForeignKey(column="ws_item_sk", ref_table="item", ref_column="i_item_sk"),
            ForeignKey(column="ws_bill_customer_sk", ref_table="customer", ref_column="c_customer_sk"),
            ForeignKey(column="ws_sold_date_sk", ref_table="date_dim", ref_column="d_date_sk"),
        ],
    )
    catalog_sales = Table(
        name="catalog_sales",
        columns=[
            Column("cs_sales_sk", INTEGER),
            Column("cs_item_sk", INTEGER),
            Column("cs_bill_customer_sk", INTEGER),
            Column("cs_sold_date_sk", INTEGER),
            Column("cs_quantity", INTEGER),
            Column("cs_wholesale_cost", FLOAT),
        ],
        primary_key="cs_sales_sk",
        foreign_keys=[
            ForeignKey(column="cs_item_sk", ref_table="item", ref_column="i_item_sk"),
            ForeignKey(column="cs_bill_customer_sk", ref_table="customer", ref_column="c_customer_sk"),
            ForeignKey(column="cs_sold_date_sk", ref_table="date_dim", ref_column="d_date_sk"),
        ],
    )
    return Schema.from_tables(
        [store_sales, web_sales, catalog_sales, item, customer, date_dim, store]
    )


def _skewed_foreign_keys(rng: np.random.Generator, count: int, domain: int) -> NDArray[Any]:
    """Zipf-skewed foreign-key choices folded into ``[0, domain)``."""
    raw = rng.zipf(1.3, size=count)
    return ((raw - 1) % domain).astype(np.int64)


def generate_tpcds_database(config: TPCDSConfig | None = None) -> Database:
    """Materialise the synthetic TPC-DS-like client database."""
    config = config or TPCDSConfig()
    rng = np.random.default_rng(config.seed)
    schema = tpcds_schema()

    item = TableData.from_columns(
        schema.table("item"),
        {
            "i_item_sk": np.arange(config.item_rows, dtype=np.int64),
            "i_manager_id": rng.integers(0, 100, size=config.item_rows),
            "i_class": rng.integers(0, len(ITEM_CLASSES), size=config.item_rows),
            "i_category": rng.integers(0, len(ITEM_CATEGORIES), size=config.item_rows),
            "i_current_price": np.round(rng.gamma(2.0, 25.0, size=config.item_rows), 2),
            "i_brand_id": rng.integers(1, 1000, size=config.item_rows),
        },
    )
    customer = TableData.from_columns(
        schema.table("customer"),
        {
            "c_customer_sk": np.arange(config.customer_rows, dtype=np.int64),
            "c_birth_year": rng.integers(1930, 2000, size=config.customer_rows),
            "c_birth_month": rng.integers(1, 13, size=config.customer_rows),
            "c_preferred_cust_flag": rng.integers(0, 2, size=config.customer_rows),
            "c_current_hdemo_sk": rng.integers(0, 7200, size=config.customer_rows),
        },
    )
    years = rng.integers(1998, 2003, size=config.date_rows)
    months = rng.integers(1, 13, size=config.date_rows)
    date_dim = TableData.from_columns(
        schema.table("date_dim"),
        {
            "d_date_sk": np.arange(config.date_rows, dtype=np.int64),
            "d_year": years,
            "d_moy": months,
            "d_dom": rng.integers(1, 29, size=config.date_rows),
            "d_qoy": (months - 1) // 3 + 1,
        },
    )
    store = TableData.from_columns(
        schema.table("store"),
        {
            "s_store_sk": np.arange(config.store_rows, dtype=np.int64),
            "s_state": rng.integers(0, len(STORE_STATES), size=config.store_rows),
            "s_number_employees": rng.integers(200, 300, size=config.store_rows),
            "s_floor_space": rng.integers(5_000_000, 10_000_000, size=config.store_rows),
        },
    )

    fact_rows = config.store_sales_rows
    store_sales = TableData.from_columns(
        schema.table("store_sales"),
        {
            "ss_sales_sk": np.arange(fact_rows, dtype=np.int64),
            "ss_item_sk": _skewed_foreign_keys(rng, fact_rows, config.item_rows),
            "ss_customer_sk": _skewed_foreign_keys(rng, fact_rows, config.customer_rows),
            "ss_sold_date_sk": rng.integers(0, config.date_rows, size=fact_rows),
            "ss_store_sk": rng.integers(0, config.store_rows, size=fact_rows),
            "ss_quantity": rng.integers(1, 100, size=fact_rows),
            "ss_sales_price": np.round(rng.gamma(2.0, 40.0, size=fact_rows), 2),
            "ss_net_profit": np.round(rng.normal(20.0, 60.0, size=fact_rows), 2),
        },
    )
    web_rows = config.web_sales_rows
    web_sales = TableData.from_columns(
        schema.table("web_sales"),
        {
            "ws_sales_sk": np.arange(web_rows, dtype=np.int64),
            "ws_item_sk": _skewed_foreign_keys(rng, web_rows, config.item_rows),
            "ws_bill_customer_sk": rng.integers(0, config.customer_rows, size=web_rows),
            "ws_sold_date_sk": rng.integers(0, config.date_rows, size=web_rows),
            "ws_quantity": rng.integers(1, 100, size=web_rows),
            "ws_net_paid": np.round(rng.gamma(2.0, 55.0, size=web_rows), 2),
        },
    )
    catalog_rows = config.catalog_sales_rows
    catalog_sales = TableData.from_columns(
        schema.table("catalog_sales"),
        {
            "cs_sales_sk": np.arange(catalog_rows, dtype=np.int64),
            "cs_item_sk": _skewed_foreign_keys(rng, catalog_rows, config.item_rows),
            "cs_bill_customer_sk": _skewed_foreign_keys(rng, catalog_rows, config.customer_rows),
            "cs_sold_date_sk": rng.integers(0, config.date_rows, size=catalog_rows),
            "cs_quantity": rng.integers(1, 100, size=catalog_rows),
            "cs_wholesale_cost": np.round(rng.gamma(2.0, 30.0, size=catalog_rows), 2),
        },
    )

    return Database.from_table_data(
        schema,
        [store_sales, web_sales, catalog_sales, item, customer, date_dim, store],
    )
