"""Workload substrate: synthetic schemas, data generators and SPJ workloads."""

from .generator import (
    WorkloadConfig,
    WorkloadGenerator,
    generate_workload,
)
from .synth import (
    QuerySynthesizer,
    SchemaSynthesizer,
    SynthConfig,
    SynthQuery,
    SynthScenario,
    synthesize_scenario,
)
from .toy import FIGURE1_QUERY, ToyConfig, generate_toy_database, toy_schema
from .tpcds import TPCDSConfig, generate_tpcds_database, tpcds_schema
from .tpch import TPCHConfig, generate_tpch_database, tpch_schema

__all__ = [
    "FIGURE1_QUERY",
    "QuerySynthesizer",
    "SchemaSynthesizer",
    "SynthConfig",
    "SynthQuery",
    "SynthScenario",
    "TPCDSConfig",
    "TPCHConfig",
    "ToyConfig",
    "WorkloadConfig",
    "WorkloadGenerator",
    "generate_toy_database",
    "generate_tpcds_database",
    "generate_tpch_database",
    "generate_workload",
    "synthesize_scenario",
    "toy_schema",
    "tpcds_schema",
    "tpch_schema",
]
