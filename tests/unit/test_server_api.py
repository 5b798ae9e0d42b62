"""Unit tests for the versioned server API contract (repro.server.api).

Every dataclass must round-trip through to_dict/from_dict, every to_dict
must stamp schema_version, and from_dict must reject unknown keys, missing
required keys, wrong types and mismatched schema versions with ApiError.
"""

import dataclasses
import http.client
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import INTEGER
from repro.client.package import InformationPackage
from repro.core.errors import HydraError, SummaryError
from repro.core.summary import DatabaseSummary
from repro.server import BackgroundServer, ServerClient, ServiceError, SummaryService
from repro.server.api import (
    _ENDPOINTS,
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

#: Every body next to the exact JSON the hand-written ``to_dict`` methods the
#: codec replaced put on the wire for it, ``null``-valued keys dropped — key
#: order included — at today's ``schema_version``.  The codec must reproduce
#: these strings byte for byte.
WIRE = [
    (
        ErrorBody(error="not_found", detail="no summary 'x'", status=404),
        '{"error": "not_found", "detail": "no summary \'x\'", "status": 404, "schema_version": 3}',
    ),
    (
        ErrorBody(error="rate_limited", detail="slow down", status=429, retry_after=0.25),
        '{"error": "rate_limited", "detail": "slow down", "status": 429, "retry_after": 0.25, "schema_version": 3}',
    ),
    (
        ServerInfo(server="hydra-server", schema_version=SCHEMA_VERSION,
                   summaries_loaded=2, requests_served=17),
        '{"server": "hydra-server", "summaries_loaded": 2, "requests_served": 17, "schema_version": 3}',
    ),
    (
        LoadSummaryRequest(name="toy", path="/tmp/summary.json"),
        '{"name": "toy", "path": "/tmp/summary.json", "schema_version": 3}',
    ),
    (
        LoadSummaryRequest(name="toy", summary={"relations": {}}),
        '{"name": "toy", "summary": {"relations": {}}, "schema_version": 3}',
    ),
    (
        SUMMARY_INFO,
        '{"name": "toy", "fingerprint": "' + "ab12" * 16 + '", "summary_version": 2, "generation": 3, "relations": {"S": 2000, "T": 200}, "total_rows": 2200, "summary_bytes": 4096, "cache_hit": true, "schema_version": 3}',
    ),
    (
        SummaryListResponse(summaries=[SUMMARY_INFO]),
        '{"summaries": [{"name": "toy", "fingerprint": "' + "ab12" * 16 + '", "summary_version": 2, "generation": 3, "relations": {"S": 2000, "T": 200}, "total_rows": 2200, "summary_bytes": 4096, "cache_hit": true, "schema_version": 3}], "schema_version": 3}',
    ),
    (
        SummaryListResponse(),
        '{"summaries": [], "schema_version": 3}',
    ),
    (
        EvictResponse(name="toy", evicted=True),
        '{"name": "toy", "evicted": true, "schema_version": 3}',
    ),
    (
        QueryRequest(sql="select count(*) from S"),
        '{"sql": "select count(*) from S", "schema_version": 3}',
    ),
    (
        QueryRequest(sql="select * from S", rows_per_second=1000.0),
        '{"sql": "select * from S", "rows_per_second": 1000.0, "schema_version": 3}',
    ),
    (
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
        '{"columns": {"S.A": [1, 2, 3], "count": [3]}, "row_count": 3, "scanned_rows": 2000, "aggregate_route": "summary", "route_events": [{"kind": "aggregate", "route": "summary", "reason": "exact"}], "annotations": [{"node_id": 1, "operator": "scan", "description": "S", "cardinality": 2000}], "fingerprint": "' + "cd34" * 16 + '", "summary_version": 1, "generation": 1, "elapsed_seconds": 0.125, "schema_version": 3}',
    ),
    (
        VerifyRequest(package={"queries": []}),
        '{"package": {"queries": []}, "schema_version": 3}',
    ),
    (
        VerifyRequest(package_path="/tmp/package.json", against_dir="/tmp/out"),
        '{"package_path": "/tmp/package.json", "against_dir": "/tmp/out", "schema_version": 3}',
    ),
    (
        VerifyResponse(mode="volumetric", ok=True, total_edges=12,
                       max_relative_error=0.01, mean_relative_error=0.001,
                       error_cdf=[[0.0, 0.5], [0.01, 1.0]]),
        '{"mode": "volumetric", "ok": true, "total_edges": 12, "max_relative_error": 0.01, "mean_relative_error": 0.001, "error_cdf": [[0.0, 0.5], [0.01, 1.0]], "relations_checked": [], "rows_checked": 0, "problems": [], "schema_version": 3}',
    ),
    (
        VerifyResponse(mode="export", ok=False, relations_checked=["S", "T"],
                       rows_checked=2200, problems=["row 7 of S differs"]),
        '{"mode": "export", "ok": false, "total_edges": 0, "max_relative_error": 0.0, "mean_relative_error": 0.0, "error_cdf": [], "relations_checked": ["S", "T"], "rows_checked": 2200, "problems": ["row 7 of S differs"], "schema_version": 3}',
    ),
    (
        ExportRequest(format="csv", out_dir="/tmp/out"),
        '{"format": "csv", "out_dir": "/tmp/out", "schema_version": 3}',
    ),
    (
        ExportRequest(format="sqlite", out_dir="/tmp/out", relations=["S"]),
        '{"format": "sqlite", "out_dir": "/tmp/out", "relations": ["S"], "schema_version": 3}',
    ),
    (
        ExportResponse(format="csv", out_dir="/tmp/out", relations=["S", "T"],
                       total_rows=2200, elapsed_seconds=1.5,
                       manifest_path="/tmp/out/MANIFEST.json", fingerprint="ef56" * 16),
        '{"format": "csv", "out_dir": "/tmp/out", "relations": ["S", "T"], "total_rows": 2200, "elapsed_seconds": 1.5, "manifest_path": "/tmp/out/MANIFEST.json", "fingerprint": "' + "ef56" * 16 + '", "schema_version": 3}',
    ),
    (
        RegenerateRequest(),
        '{"batch_size": 8192, "schema_version": 3}',
    ),
    (
        RegenerateRequest(relations=["S"], batch_size=512),
        '{"relations": ["S"], "batch_size": 512, "schema_version": 3}',
    ),
    (
        ProgressEvent(event="start", total_rows=2200),
        '{"event": "start", "total_rows": 2200, "schema_version": 3}',
    ),
    (
        ProgressEvent(event="progress", relation="S", rows=512, total_rows=2000, seconds=0.5),
        '{"event": "progress", "relation": "S", "rows": 512, "total_rows": 2000, "seconds": 0.5, "schema_version": 3}',
    ),
    (
        ProgressEvent(event="error", error="boom"),
        '{"event": "error", "error": "boom", "schema_version": 3}',
    ),
    (
        RouteEventBody(kind="join", route="streaming", reason="no-streamable-leaf"),
        '{"kind": "join", "route": "streaming", "reason": "no-streamable-leaf"}',
    ),
    (
        RouteEventBody(kind="join", route="streaming"),
        '{"kind": "join", "route": "streaming"}',
    ),
]

ROUND_TRIPPABLE = [body for body, _golden in WIRE]
#: Bodies that travel on their own (``RouteEventBody`` is only ever nested).
TOP_LEVEL = [body for body in ROUND_TRIPPABLE if not isinstance(body, RouteEventBody)]
BODY_TYPES = sorted({type(body) for body in ROUND_TRIPPABLE}, key=lambda cls: cls.__name__)


def _ids(value):
    """Parametrize ids: a body's (or body class's) name; strings keep pytest's default."""
    if isinstance(value, str):
        return None
    return value.__name__ if isinstance(value, type) else type(value).__name__


@pytest.mark.parametrize("body", ROUND_TRIPPABLE, ids=_ids)
def test_round_trip(body):
    """to_dict → JSON → from_dict reproduces the dataclass exactly."""
    payload = json.loads(json.dumps(body.to_dict()))
    assert type(body).from_dict(payload) == body


@pytest.mark.parametrize("body, golden", WIRE, ids=_ids)
def test_wire_bytes_are_the_parents(body, golden):
    """The field-derived codec writes the hand-written methods' exact JSON."""
    assert json.dumps(body.to_dict()) == golden


@pytest.mark.parametrize("body, golden", WIRE, ids=_ids)
def test_parent_payloads_decode_to_equal_bodies(body, golden):
    """Both parent spellings of an absent optional — omitted and ``null`` — decode alike."""
    omitted = json.loads(golden)
    assert type(body).from_dict(omitted) == body
    with_nulls = {**{item.name: None for item in dataclasses.fields(body)}, **omitted}
    assert type(body).from_dict(with_nulls) == body


@pytest.mark.parametrize("body", TOP_LEVEL, ids=_ids)
def test_to_dict_stamps_schema_version(body):
    """Every wire body carries the served contract's version — stamped last."""
    assert list(body.to_dict())[-1] == "schema_version"
    assert body.to_dict()["schema_version"] == SCHEMA_VERSION


def test_nested_only_bodies_are_not_stamped():
    assert "schema_version" not in RouteEventBody(kind="join", route="streaming").to_dict()
    response = next(body for body in ROUND_TRIPPABLE if isinstance(body, QueryResponse))
    assert "schema_version" not in response.to_dict()["route_events"][0]


# -- the validation matrix, generated from the field declarations ------------

def _wrong_value(hint):
    """A JSON value of the wrong type: a string is wrong for everything but ``str``."""
    return 42 if hint is str else "forty-two"


def _field_cases():
    for cls in BODY_TYPES:
        hints = typing.get_type_hints(cls)
        for item in dataclasses.fields(cls):
            hint = hints[item.name]
            if type(None) in typing.get_args(hint):  # ``X | None``: test against X
                hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
            yield pytest.param(cls, item, hint, id=f"{cls.__name__}.{item.name}")


def _valid_payload(cls):
    """The payload of the first WIRE body of ``cls``."""
    return next(body for body in ROUND_TRIPPABLE if type(body) is cls).to_dict()


def _full_payload(cls):
    """Every WIRE payload of ``cls`` merged: all fields present, invariants not honoured."""
    payload = {}
    for body in reversed(ROUND_TRIPPABLE):
        if type(body) is cls:
            payload.update(body.to_dict())
    return payload


@pytest.mark.parametrize("cls, item, hint", _field_cases())
def test_field_validation(cls, item, hint):
    """missing / wrong type / bool-for-int / int-for-float / non-list, per declared field."""
    base = _full_payload(cls)  # type errors are reported before any invariant runs
    what = rf"{cls.__name__}: .*{item.name}"  # every error names the class and the key
    without = {key: value for key, value in base.items() if key != item.name}
    if item.default is dataclasses.MISSING and item.default_factory is dataclasses.MISSING:
        for absent in (without, {**without, item.name: None}):
            with pytest.raises(ApiError, match=rf"{cls.__name__}: missing required .*{item.name!r}"):
                cls.from_dict(absent)
    with pytest.raises(ApiError, match=what):
        cls.from_dict({**base, item.name: _wrong_value(hint)})
    if hint in (int, float):
        with pytest.raises(ApiError, match=what):
            cls.from_dict({**base, item.name: True})
    if typing.get_origin(hint) is list:
        for not_a_list in ({}, "S", 7):
            with pytest.raises(ApiError, match=what + "' must be of type list"):
                cls.from_dict({**base, item.name: not_a_list})
    if hint is float:
        value = getattr(cls.from_dict({**_valid_payload(cls), item.name: 1}), item.name)
        assert value == 1.0 and type(value) is float


@pytest.mark.parametrize("body", ROUND_TRIPPABLE, ids=_ids)
def test_from_dict_rejects_wrong_schema_version(body):
    """A mismatched schema_version fails loudly at the boundary — nested bodies too."""
    payload = body.to_dict()
    with pytest.raises(ApiError, match=f"{type(body).__name__}: schema_version"):
        type(body).from_dict({**payload, "schema_version": SCHEMA_VERSION + 1})
    assert type(body).from_dict({**payload, "schema_version": SCHEMA_VERSION}) == body


@pytest.mark.parametrize("body", ROUND_TRIPPABLE, ids=_ids)
def test_from_dict_rejects_unknown_keys(body):
    """Unknown keys are contract violations, not silently dropped."""
    payload = body.to_dict()
    payload["bogus_key"] = 1
    with pytest.raises(ApiError, match=rf"{type(body).__name__}: unknown key\(s\) 'bogus_key'"):
        type(body).from_dict(payload)


@pytest.mark.parametrize("cls", BODY_TYPES, ids=_ids)
def test_non_object_body_rejected_by_every_class(cls):
    for not_an_object in ([_valid_payload(cls)], "body", 7, None):
        with pytest.raises(ApiError, match=rf"{cls.__name__}: body must be a JSON object"):
            cls.from_dict(not_an_object)


def test_nested_bodies_are_validated_too():
    query = _valid_payload(QueryResponse)
    with pytest.raises(ApiError, match="RouteEventBody: missing required key\\(s\\) 'route'"):
        QueryResponse.from_dict({**query, "route_events": [{"kind": "join"}]})
    with pytest.raises(ApiError, match="RouteEventBody: body must be a JSON object, got str"):
        QueryResponse.from_dict({**query, "route_events": ["join"]})
    with pytest.raises(ApiError, match="SummaryInfo: key 'relations' item must be of type int"):
        SummaryInfo.from_dict({**_valid_payload(SummaryInfo), "relations": {"S": "many"}})
    with pytest.raises(ApiError, match="ExportRequest: key 'relations' item must be of type str"):
        ExportRequest.from_dict({"format": "csv", "out_dir": "/tmp/out", "relations": [1]})


def test_defaults_mirror_what_the_parent_treated_as_optional():
    """Only these keys were required by the hand-written ``from_dict`` methods."""
    minimal = QueryResponse.from_dict(
        {"columns": {}, "row_count": 0, "scanned_rows": 0, "fingerprint": "f"}
    )
    assert minimal == QueryResponse(columns={}, row_count=0, scanned_rows=0, fingerprint="f")
    assert (minimal.route_events, minimal.summary_version, minimal.elapsed_seconds) == ([], 1, 0.0)
    export = {"format": "csv", "out_dir": "o", "relations": [], "total_rows": 0,
              "manifest_path": "m", "fingerprint": "f"}
    assert ExportResponse.from_dict(export).elapsed_seconds == 0.0
    info = {"server": "s", "summaries_loaded": 0, "requests_served": 0}
    assert ServerInfo.from_dict(info).schema_version == SCHEMA_VERSION


def test_missing_required_key_rejected():
    with pytest.raises(ApiError, match="missing required"):
        QueryRequest.from_dict({"rows_per_second": 10.0})
    with pytest.raises(ApiError, match="missing required"):
        EvictResponse.from_dict({"name": "toy"})


def test_wrong_type_rejected():
    with pytest.raises(ApiError, match="'sql'"):
        QueryRequest.from_dict({"sql": 42})
    # bool is not accepted where an int is required
    with pytest.raises(ApiError, match="'batch_size'"):
        RegenerateRequest.from_dict({"batch_size": True})


@pytest.mark.parametrize(
    "endpoint, fields",
    [
        ("regenerate", {}),
        ("export", {"format": "csv", "out_dir": "/tmp/out"}),
        ("verify", {"package_path": "/tmp/package.json"}),
    ],
)
def test_removed_workers_key_is_400_unknown_key(endpoint, fields):
    """Version 3 dropped ``workers``: no request can make the server fork."""
    row = next(row for row in _ENDPOINTS if row.name == endpoint)
    what = row.request.__name__
    with pytest.raises(ApiError, match=rf"{what}: unknown key\(s\) 'workers'"):
        row.request.from_dict({**fields, "workers": 2})
    with pytest.raises(TypeError, match="workers"):
        row.request(**fields, workers=2)
    path = API_PREFIX + row.path.format(name="ghost")
    with BackgroundServer(SummaryService()) as server:
        body = json.dumps({**fields, "workers": 2})
        status, answer = _exchange(server.port, "POST", path, body=body)
    assert (status, answer["error"]) == (400, "bad-request"), answer
    assert "unknown key(s) 'workers'" in answer["detail"]


@pytest.mark.parametrize(
    "row", [row for row in _ENDPOINTS if row.request is not None], ids=lambda row: row.name
)
def test_version_2_request_is_400_on_every_endpoint(row):
    """A body stamped with the previous contract's version is refused, not reinterpreted."""
    stale = {**_valid_payload(row.request), "schema_version": 2}
    what = row.request.__name__
    with pytest.raises(ApiError, match=f"{what}: schema_version must be 3"):
        row.request.from_dict(stale)
    path = API_PREFIX + row.path.format(name="ghost")
    with BackgroundServer(SummaryService()) as server:
        status, answer = _exchange(server.port, row.method, path, body=json.dumps(stale))
    assert (status, answer["error"]) == (400, "bad-request"), answer
    assert "schema_version must be 3" in answer["detail"]


@pytest.mark.parametrize("method", ["regenerate", "export", "verify"])
def test_client_has_no_workers_keyword(method):
    """The three ``ServerClient`` keywords went with the wire keys."""
    assert "workers" not in inspect.signature(getattr(ServerClient, method)).parameters


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


# -- the endpoint table: server, client and docs/SERVER.md agree -------------

DOCS = Path(__file__).resolve().parents[2] / "docs" / "SERVER.md"


def _exchange(port, method, path, body=None):
    """One raw request over a real socket: ``(status, parsed JSON body or None)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        raw = response.read()
        if response.getheader("Content-Type") != "application/json":
            return response.status, None
        return response.status, json.loads(raw)
    finally:
        connection.close()


def test_endpoint_table_is_what_the_server_routes():
    """Every method × path: the table row answers, its siblings are 405, the rest 404."""
    paths = sorted({API_PREFIX + row.path.format(name="ghost") for row in _ENDPOINTS})
    routed = {(row.method, API_PREFIX + row.path.format(name="ghost")) for row in _ENDPOINTS}
    assert len(routed) == len(_ENDPOINTS) == len({row.name for row in _ENDPOINTS})
    unknown = [API_PREFIX, API_PREFIX + "/nope", API_PREFIX + "/summaries/ghost/nope",
               API_PREFIX + "/summaries/ghost/query/extra", "/healthz", "/api/v1/healthz"]
    with BackgroundServer(SummaryService()) as server:
        for path in paths + unknown:
            for method in ("GET", "POST", "DELETE", "PUT", "PATCH"):
                status, answer = _exchange(server.port, method, path, body="{}")
                where = f"{method} {path}"
                if (method, path) in routed:
                    # Routed: whatever the handler says about ``{}`` / 'ghost',
                    # it is not a routing error.
                    if answer is not None and status != 200:
                        assert answer["error"] not in ("not-found", "method-not-allowed"), where
                    assert status in (200, 400, 404), where
                elif path in paths:
                    assert (status, answer["error"]) == (405, "method-not-allowed"), where
                else:
                    assert (status, answer["error"]) == (404, "not-found"), where
        # The bodies are the row's: one unstreamed and the streamed endpoint, end to end.
        status, answer = _exchange(server.port, "GET", API_PREFIX + "/healthz")
        assert status == 200 and ServerInfo.from_dict(answer).summaries_loaded == 0


def test_endpoint_table_matches_the_documented_headings():
    """``### `METHOD path` → `Body``` headings of docs/SERVER.md ⇔ table rows."""
    headings = re.findall(r"^### `(\w+) (\S+)` → `(\w+)`", DOCS.read_text(), flags=re.M)
    assert sorted(headings) == sorted(
        (row.method, API_PREFIX + row.path, row.response.__name__) for row in _ENDPOINTS
    )
    every_heading = re.findall(r"^### `", DOCS.read_text(), flags=re.M)
    assert len(every_heading) == len(headings), "an endpoint heading does not parse"


def test_client_covers_every_endpoint(monkeypatch):
    """Each table row is reachable through exactly one ``ServerClient`` method."""
    called = []
    monkeypatch.setattr(
        ServerClient, "_call",
        lambda self, endpoint, name=None, request=None: called.append(
            (endpoint, name, type(request))
        ) or SummaryListResponse(),
    )
    client = ServerClient()
    client.server_info()
    client.list_summaries()
    client.load_summary("toy", path="/tmp/s.json")
    client.evict("toy")
    client.query("toy", "select count(*) from S")
    client.verify("toy", package_path="/tmp/p.json")
    client.export("toy", "csv", "/tmp/out")
    client.regenerate("toy")
    assert sorted(called, key=lambda call: call[0]) == sorted(
        (
            row.name,
            "toy" if "{name}" in row.path else None,
            row.request or type(None),
        )
        for row in _ENDPOINTS
    )


# -- malformed summaries are typed errors everywhere -------------------------

_SCHEMA = Schema.from_tables(
    [Table(name="t", columns=[Column("pk", INTEGER), Column("v", INTEGER)], primary_key="pk")]
).to_dict()

#: ``(payload, field the error names)`` — each one a traceback / HTTP 500 before this PR.
MALFORMED_SUMMARIES = [
    ({"schema": 3}, "schema"),
    ({"relations": {}}, "schema"),
    ({"schema": _SCHEMA, "relations": []}, "relations"),
    ({"schema": _SCHEMA, "relations": {"t": {"table": "t", "rows": [{"count": "x"}]}}},
     "relations['t']"),
    ({"schema": _SCHEMA, "relations": {"t": {"rows": 5}}}, "relations['t']"),
    ({"schema": _SCHEMA, "relations": {"t": {"table": "u", "rows": []}}}, "relations['t']"),
    ({"schema": _SCHEMA, "relations": {"ghost": {"table": "ghost"}}}, "relations['ghost']"),
    ({"schema": _SCHEMA, "version": "two"}, "version"),
    ({"schema": _SCHEMA, "build_info": 7}, "build_info"),
]
_FK_SCHEMA = Schema.from_tables(
    [
        Table(name="d", columns=[Column("d_pk", INTEGER)], primary_key="d_pk"),
        Table(
            name="t",
            columns=[Column("pk", INTEGER), Column("d_fk", INTEGER)],
            primary_key="pk",
            foreign_keys=[ForeignKey("d_fk", "d", "d_pk")],
        ),
    ]
).to_dict()
#: Summaries whose FK reference cannot generate: they used to load and then
#: fail mid-stream (a raw ``ValueError`` for the unbounded one).
UNGENERATABLE_SUMMARIES = [
    (
        {
            "schema": _FK_SCHEMA,
            "relations": {
                "t": {
                    "table": "t",
                    "rows": [
                        {"count": 4, "fk_refs": {"d_fk": {"ref_table": "d", "intervals": intervals}}}
                    ],
                }
            },
        },
        "relations['t'].rows[0].fk_refs['d_fk']",
    )
    for intervals in ([{"low": 0.0, "high": float("inf")}], [])
]
MALFORMED_SUMMARIES += UNGENERATABLE_SUMMARIES
#: Summaries holding a value generation would not write as stored: they used
#: to load, and the summary route then counted a value no tuple carries.
UNWRITABLE_VALUES = [
    (
        {
            "schema": _SCHEMA,
            "relations": {"t": {"table": "t", "rows": [{"count": 3, "values": {"v": value}}]}},
        },
        "relations['t'].rows[0].values['v']",
    )
    for value in (2.5, float("inf"))
]
MALFORMED_SUMMARIES += UNWRITABLE_VALUES
#: Documents only a file can hold: not an object, not JSON at all.
MALFORMED_DOCUMENTS = [(json.dumps(payload), field) for payload, field in MALFORMED_SUMMARIES] + [
    ("[1, 2]", "<document>"),
    ("not json", "<document>"),
]


@pytest.mark.parametrize("payload, field", MALFORMED_SUMMARIES)
def test_malformed_summary_is_a_typed_error(payload, field):
    with pytest.raises(SummaryError, match=re.escape(f"malformed database summary at {field}: ")):
        DatabaseSummary.from_dict(payload)


@pytest.mark.parametrize("text, field", MALFORMED_DOCUMENTS)
def test_malformed_summary_file_is_a_typed_error(text, field, tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(text)
    message = re.escape(f"malformed database summary at {field}: ")
    with pytest.raises(HydraError, match=message):
        DatabaseSummary.load(path)
    # The service's path form: 400 bad-summary, and the service keeps serving.
    service = SummaryService()
    with pytest.raises(ServiceError) as excinfo:
        service.load(LoadSummaryRequest(name="bad", path=str(path)))
    assert (excinfo.value.status, excinfo.value.error) == (400, "bad-summary")
    assert re.search(message, excinfo.value.detail)
    assert len(service.cache) == 0 and service.server_info().summaries_loaded == 0


@pytest.mark.parametrize("payload, field", MALFORMED_SUMMARIES)
def test_malformed_inline_summary_is_400_bad_summary(payload, field):
    service = SummaryService()
    with pytest.raises(ServiceError) as excinfo:
        service.load(LoadSummaryRequest(name="bad", summary=payload))
    assert (excinfo.value.status, excinfo.value.error) == (400, "bad-summary")
    assert f"malformed database summary at {field}: " in excinfo.value.detail
    assert len(service.cache) == 0


def test_malformed_summary_over_the_socket_is_400_and_the_server_lives_on(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(MALFORMED_SUMMARIES[3][0]))
    with BackgroundServer(SummaryService()) as server:
        for body in (
            {"name": "bad", "summary": MALFORMED_SUMMARIES[3][0]},
            {"name": "bad", "path": str(path)},
        ):
            status, answer = _exchange(
                server.port, "POST", API_PREFIX + "/summaries", body=json.dumps(body)
            )
            assert (status, answer["error"]) == (400, "bad-summary"), answer
            assert "malformed database summary at relations['t']: " in answer["detail"]
        status, answer = _exchange(server.port, "GET", API_PREFIX + "/healthz")
        assert status == 200 and answer["summaries_loaded"] == 0


def test_ungeneratable_fk_reference_over_the_socket_is_400_bad_summary():
    payload, field = UNGENERATABLE_SUMMARIES[0]
    with BackgroundServer(SummaryService()) as server:
        status, answer = _exchange(
            server.port, "POST", API_PREFIX + "/summaries",
            body=json.dumps({"name": "bad", "summary": payload}),
        )
        assert (status, answer["error"]) == (400, "bad-summary"), answer
        assert f"malformed database summary at {field}: " in answer["detail"]
        status, answer = _exchange(server.port, "GET", API_PREFIX + "/healthz")
        assert status == 200 and answer["summaries_loaded"] == 0


def test_fraction_on_a_discrete_column_over_the_socket_is_400_bad_summary():
    payload, field = UNWRITABLE_VALUES[0]
    with BackgroundServer(SummaryService()) as server:
        status, answer = _exchange(
            server.port, "POST", API_PREFIX + "/summaries",
            body=json.dumps({"name": "bad", "summary": payload}),
        )
        assert (status, answer["error"]) == (400, "bad-summary"), answer
        assert f"malformed database summary at {field}: " in answer["detail"]


@pytest.fixture(scope="module")
def package_path(tmp_path_factory, toy_metadata, toy_aqps):
    path = tmp_path_factory.mktemp("api") / "package.json"
    InformationPackage(metadata=toy_metadata, aqps=list(toy_aqps)).save(path)
    return path


@pytest.mark.parametrize(
    "text, field",
    MALFORMED_DOCUMENTS[:4]
    + MALFORMED_DOCUMENTS[-2:]
    + [
        (json.dumps(payload), field)
        for payload, field in UNGENERATABLE_SUMMARIES[:1] + UNWRITABLE_VALUES[:1]
    ],
)
def test_malformed_summary_on_the_command_line(text, field, package_path, tmp_path):
    """``hydra verify`` / ``vendor --extend-from`` / ``serve --load``: exit 1, no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    commands = [["verify", str(package_path), str(bad)]]
    if field == "<document>" and text == "not json":  # one payload through the other two
        commands += [
            ["vendor", str(package_path), "--extend-from", str(bad)],
            ["serve", "--port", "0", "--load", f"bad={bad}"],
        ]
    for command in commands:
        finished = subprocess.run(
            [sys.executable, "-m", "repro.cli", *command],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert finished.returncode == 1, (command, finished.stderr)
        assert f"malformed database summary at {field}: " in finished.stderr, command
        assert "Traceback" not in finished.stderr, command
