"""Static audit of the repro public-API facade.

The supported import surface is exactly ``repro.__all__``; the README's
"Public API" section documents it verbatim.  These tests keep the three in
lockstep: every exported name resolves, nothing private leaks, and the
documented list equals the real one.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
import repro.parallel

README = Path(__file__).resolve().parents[2] / "README.md"


def _documented_names() -> list[str]:
    """Parse the fenced name list under the README's Public API heading."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Public API\n.*?```text\n(.*?)```", text, re.DOTALL)
    assert match, "README.md must keep a '## Public API' section with a ```text block"
    return match.group(1).split()


def test_all_is_sorted_and_unique():
    names = [n for n in repro.__all__ if n != "__version__"]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert repro.__all__[-1] == "__version__"


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_no_private_names_exported():
    assert not [n for n in repro.__all__ if n.startswith("_") and n != "__version__"]


def test_readme_public_api_matches_all():
    documented = _documented_names()
    exported = [n for n in repro.__all__ if n != "__version__"]
    assert sorted(documented) == exported, (
        "README '## Public API' section is out of sync with repro.__all__: "
        f"missing={sorted(set(exported) - set(documented))}, "
        f"stale={sorted(set(documented) - set(exported))}"
    )


def test_server_surface_is_reexported():
    """The server client and its typed contract ride the top-level facade."""
    for name in (
        "ServerClient", "ServerClientError", "SummaryService", "SummaryCache",
        "BackgroundServer", "HydraServer", "QueryRequest", "QueryResponse",
        "LoadSummaryRequest", "SummaryInfo", "VerifyRequest", "VerifyResponse",
        "ExportRequest", "ExportResponse", "RegenerateRequest", "ProgressEvent",
    ):
        assert name in repro.__all__, name


@pytest.mark.parametrize("name", repro.parallel.__all__)
def test_pool_internals_are_not_on_the_facade(name):
    """Worker processes are reached only through a ``workers`` argument."""
    assert name not in repro.__all__
    assert not hasattr(repro, name)


def test_facade_objects_are_the_canonical_ones():
    """Top-level re-exports are the same objects as the defining modules'."""
    from repro.server.api import QueryRequest
    from repro.server.client import ServerClient
    from repro.sinks.export import validate_export_against

    assert repro.QueryRequest is QueryRequest
    assert repro.ServerClient is ServerClient
    assert repro.validate_export_against is validate_export_against
