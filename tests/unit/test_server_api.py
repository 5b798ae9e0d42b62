"""Unit tests for the versioned server API contract (repro.server.api).

Every dataclass must round-trip through to_dict/from_dict, every to_dict
must stamp schema_version, and from_dict must reject unknown keys, missing
required keys, wrong types and mismatched schema versions with ApiError.
"""

import json

import pytest

from repro.server.api import (
    API_PREFIX,
    SCHEMA_VERSION,
    ApiError,
    ErrorBody,
    EvictResponse,
    ExportRequest,
    ExportResponse,
    LoadSummaryRequest,
    ProgressEvent,
    QueryRequest,
    QueryResponse,
    RegenerateRequest,
    RouteEventBody,
    ServerInfo,
    SummaryInfo,
    SummaryListResponse,
    VerifyRequest,
    VerifyResponse,
)

SUMMARY_INFO = SummaryInfo(
    name="toy",
    fingerprint="ab12" * 16,
    summary_version=2,
    generation=3,
    relations={"S": 2000, "T": 200},
    total_rows=2200,
    summary_bytes=4096,
    cache_hit=True,
)

ROUND_TRIPPABLE = [
    ErrorBody(error="not_found", detail="no summary 'x'", status=404),
    ErrorBody(error="rate_limited", detail="slow down", status=429, retry_after=0.25),
    ServerInfo(server="hydra-server", schema_version=SCHEMA_VERSION,
               summaries_loaded=2, requests_served=17),
    LoadSummaryRequest(name="toy", path="/tmp/summary.json"),
    LoadSummaryRequest(name="toy", summary={"relations": {}}),
    SUMMARY_INFO,
    SummaryListResponse(summaries=[SUMMARY_INFO]),
    SummaryListResponse(),
    EvictResponse(name="toy", evicted=True),
    QueryRequest(sql="select count(*) from S"),
    QueryRequest(sql="select * from S", rows_per_second=1000.0),
    QueryResponse(
        columns={"S.A": [1, 2, 3], "count": [3]},
        row_count=3,
        scanned_rows=2000,
        aggregate_route="summary",
        route_events=[RouteEventBody(kind="aggregate", route="summary", reason="exact")],
        annotations=[{"node_id": 1, "operator": "scan", "description": "S", "cardinality": 2000}],
        fingerprint="cd34" * 16,
        summary_version=1,
        generation=1,
        elapsed_seconds=0.125,
    ),
    VerifyRequest(package={"queries": []}),
    VerifyRequest(package_path="/tmp/package.json", against_dir="/tmp/out", workers=4),
    VerifyResponse(mode="volumetric", ok=True, total_edges=12,
                   max_relative_error=0.01, mean_relative_error=0.001,
                   error_cdf=[[0.0, 0.5], [0.01, 1.0]]),
    VerifyResponse(mode="export", ok=False, relations_checked=["S", "T"],
                   rows_checked=2200, problems=["row 7 of S differs"]),
    ExportRequest(format="csv", out_dir="/tmp/out"),
    ExportRequest(format="sqlite", out_dir="/tmp/out", relations=["S"], workers=2),
    ExportResponse(format="csv", out_dir="/tmp/out", relations=["S", "T"],
                   total_rows=2200, elapsed_seconds=1.5,
                   manifest_path="/tmp/out/MANIFEST.json", fingerprint="ef56" * 16),
    RegenerateRequest(),
    RegenerateRequest(relations=["S"], workers=2, batch_size=512),
    ProgressEvent(event="start", total_rows=2200),
    ProgressEvent(event="progress", relation="S", rows=512, total_rows=2000, seconds=0.5),
    ProgressEvent(event="error", error="boom"),
]


@pytest.mark.parametrize(
    "body", ROUND_TRIPPABLE, ids=lambda body: type(body).__name__
)
def test_round_trip(body):
    """to_dict → JSON → from_dict reproduces the dataclass exactly."""
    payload = json.loads(json.dumps(body.to_dict()))
    assert type(body).from_dict(payload) == body


@pytest.mark.parametrize(
    "body", ROUND_TRIPPABLE, ids=lambda body: type(body).__name__
)
def test_to_dict_stamps_schema_version(body):
    """Every wire body carries the served contract's version."""
    assert body.to_dict()["schema_version"] == SCHEMA_VERSION


@pytest.mark.parametrize(
    "body",
    [b for b in ROUND_TRIPPABLE if not isinstance(b, RouteEventBody)],
    ids=lambda body: type(body).__name__,
)
def test_from_dict_rejects_wrong_schema_version(body):
    """A mismatched schema_version fails loudly at the boundary."""
    payload = body.to_dict()
    payload["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ApiError, match="schema_version"):
        type(body).from_dict(payload)


@pytest.mark.parametrize(
    "body", ROUND_TRIPPABLE, ids=lambda body: type(body).__name__
)
def test_from_dict_rejects_unknown_keys(body):
    """Unknown keys are contract violations, not silently dropped."""
    payload = body.to_dict()
    payload["bogus_key"] = 1
    with pytest.raises(ApiError, match="bogus_key"):
        type(body).from_dict(payload)


def test_missing_required_key_rejected():
    with pytest.raises(ApiError, match="missing required"):
        QueryRequest.from_dict({"rows_per_second": 10.0})
    with pytest.raises(ApiError, match="missing required"):
        EvictResponse.from_dict({"name": "toy"})


def test_wrong_type_rejected():
    with pytest.raises(ApiError, match="'sql'"):
        QueryRequest.from_dict({"sql": 42})
    with pytest.raises(ApiError, match="'workers'"):
        RegenerateRequest.from_dict({"workers": "four"})
    # bool is not accepted where an int is required
    with pytest.raises(ApiError, match="'batch_size'"):
        RegenerateRequest.from_dict({"batch_size": True})


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize(
    "request_type, fields",
    [
        (RegenerateRequest, {}),
        (ExportRequest, {"format": "csv", "out_dir": "/tmp/out"}),
        (VerifyRequest, {"package_path": "/tmp/package.json"}),
    ],
)
def test_non_positive_workers_rejected(request_type, fields, workers):
    """Constructed or parsed: a stream cannot run with fewer than one worker."""
    with pytest.raises(ApiError, match="'workers' must be >= 1"):
        request_type(**fields, workers=workers)
    with pytest.raises(ApiError, match="'workers' must be >= 1"):
        request_type.from_dict({**fields, "workers": workers})
    assert request_type.from_dict({**fields, "workers": 1}).workers == 1


@pytest.mark.parametrize("key", ["pushdown", "summary_fastpath", "streaming_join"])
def test_removed_route_keys_are_unknown(key):
    """The v1 route switches are gone: the engine picks the route itself."""
    with pytest.raises(ApiError, match=rf"unknown key\(s\) '{key}'"):
        QueryRequest.from_dict({"sql": "select count(*) from S", key: True})


@pytest.mark.parametrize("batch_size", [0, -1])
def test_regenerate_rejects_non_positive_batch_size(batch_size):
    """A batch that never advances would stream ``rows: 0`` progress forever."""
    with pytest.raises(ApiError, match="'batch_size' must be >= 1"):
        RegenerateRequest.from_dict({"batch_size": batch_size})
    with pytest.raises(ApiError, match="'batch_size' must be >= 1"):
        RegenerateRequest(batch_size=batch_size)


def test_non_object_body_rejected():
    with pytest.raises(ApiError, match="JSON object"):
        QueryRequest.from_dict(["select 1"])


def test_load_request_requires_exactly_one_source():
    with pytest.raises(ApiError, match="exactly one"):
        LoadSummaryRequest(name="toy")
    with pytest.raises(ApiError, match="exactly one"):
        LoadSummaryRequest(name="toy", path="/tmp/x.json", summary={})
    with pytest.raises(ApiError, match="non-empty"):
        LoadSummaryRequest(name="", path="/tmp/x.json")


def test_verify_request_requires_exactly_one_package_source():
    with pytest.raises(ApiError, match="exactly one"):
        VerifyRequest()
    with pytest.raises(ApiError, match="exactly one"):
        VerifyRequest(package={}, package_path="/tmp/p.json")


def test_query_request_rejects_blank_sql():
    with pytest.raises(ApiError, match="non-empty"):
        QueryRequest(sql="   ")


def test_export_request_rejects_empty_fields():
    with pytest.raises(ApiError, match="'format'"):
        ExportRequest(format="", out_dir="/tmp/out")
    with pytest.raises(ApiError, match="'out_dir'"):
        ExportRequest(format="csv", out_dir="")


def test_progress_event_omits_none_fields():
    payload = ProgressEvent(event="done", rows=10).to_dict()
    assert set(payload) == {"event", "rows", "schema_version"}


def test_error_body_omits_absent_retry_after():
    payload = ErrorBody(error="bad_request", detail="nope").to_dict()
    assert "retry_after" not in payload


def test_api_prefix_carries_major_version():
    assert API_PREFIX == f"/api/v{SCHEMA_VERSION}"
