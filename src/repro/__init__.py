"""HYDRA: a workload-dependent dynamic big data regenerator.

Reproduction of *"HYDRA: A Dynamic Big Data Regenerator"* (Sanghi, Sood,
Singh, Haritsa, Tirthapura — PVLDB 11(12), 2018) as a pure-Python library.

The public API is re-exported here; the typical flow is::

    from repro import (
        generate_tpcds_database, WorkloadConfig, generate_workload,
        AQPExtractor, InformationPackage, Hydra, VolumetricComparator,
    )

    client_db = generate_tpcds_database()
    extractor = AQPExtractor(database=client_db)
    metadata = extractor.profile_metadata()
    queries = generate_workload(metadata, WorkloadConfig(num_queries=30))
    aqps = extractor.extract_workload(queries)

    hydra = Hydra(metadata=metadata)
    result = hydra.build_summary(aqps)                 # minuscule summary
    vendor_db = hydra.regenerate(result.summary)       # dataless database
    report = VolumetricComparator(vendor_db).verify(aqps)
"""

from .catalog import (
    Column,
    DatabaseMetadata,
    ForeignKey,
    Schema,
    Table,
    collect_metadata,
)
from .client import AQPExtractor, Anonymizer, InformationPackage
from .core import (
    DatabaseSummary,
    Hydra,
    HydraBuildResult,
    InfeasibleConstraintsError,
    Scenario,
    SummaryBuildReport,
    TupleGenerator,
    build_scenario,
    check_feasibility,
    grid_variable_count,
)
from .executor import (
    DataGenRelation,
    ExecutionEngine,
    RateLimiter,
    VirtualClock,
)
from .fuzz import FuzzConfig, FuzzReport, SqliteOracle, run_fuzz
from .plans import AnnotatedQueryPlan, build_plan
from .server import (
    BackgroundServer,
    ErrorBody,
    EvictResponse,
    ExportRequest,
    ExportResponse,
    HydraServer,
    LoadSummaryRequest,
    ProgressEvent,
    QueryRequest,
    QueryResponse,
    RegenerateRequest,
    RouteEventBody,
    ServerClient,
    ServerClientError,
    ServerInfo,
    SummaryCache,
    SummaryInfo,
    SummaryListResponse,
    SummaryService,
    VerifyRequest,
    VerifyResponse,
)
from .sinks import (
    CsvSink,
    Manifest,
    Sink,
    SqliteSink,
    export_summary,
    sink_for_format,
    validate_export_against,
    verify_export,
)
from .sql import Query, parse_query
from .storage import Database, TableData
from .verify import QualityReport, VerificationResult, VolumetricComparator
from .workload import (
    SynthConfig,
    SynthScenario,
    TPCDSConfig,
    TPCHConfig,
    ToyConfig,
    WorkloadConfig,
    generate_toy_database,
    generate_tpcds_database,
    generate_tpch_database,
    generate_workload,
    synthesize_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "AQPExtractor",
    "AnnotatedQueryPlan",
    "Anonymizer",
    "BackgroundServer",
    "Column",
    "CsvSink",
    "DataGenRelation",
    "Database",
    "DatabaseMetadata",
    "DatabaseSummary",
    "ErrorBody",
    "EvictResponse",
    "ExecutionEngine",
    "ExportRequest",
    "ExportResponse",
    "ForeignKey",
    "FuzzConfig",
    "FuzzReport",
    "Hydra",
    "HydraBuildResult",
    "HydraServer",
    "InfeasibleConstraintsError",
    "InformationPackage",
    "LoadSummaryRequest",
    "Manifest",
    "ProgressEvent",
    "QualityReport",
    "Query",
    "QueryRequest",
    "QueryResponse",
    "RateLimiter",
    "RegenerateRequest",
    "RouteEventBody",
    "Scenario",
    "Schema",
    "ServerClient",
    "ServerClientError",
    "ServerInfo",
    "Sink",
    "SqliteOracle",
    "SqliteSink",
    "SummaryBuildReport",
    "SummaryCache",
    "SummaryInfo",
    "SummaryListResponse",
    "SummaryService",
    "SynthConfig",
    "SynthScenario",
    "TPCDSConfig",
    "TPCHConfig",
    "Table",
    "TableData",
    "ToyConfig",
    "TupleGenerator",
    "VerificationResult",
    "VerifyRequest",
    "VerifyResponse",
    "VirtualClock",
    "VolumetricComparator",
    "WorkloadConfig",
    "build_plan",
    "build_scenario",
    "check_feasibility",
    "collect_metadata",
    "export_summary",
    "generate_toy_database",
    "generate_tpcds_database",
    "generate_tpch_database",
    "generate_workload",
    "grid_variable_count",
    "parse_query",
    "run_fuzz",
    "sink_for_format",
    "synthesize_scenario",
    "validate_export_against",
    "verify_export",
    "__version__",
]
