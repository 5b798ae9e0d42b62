"""The fuzz regression corpus, replayed forever after.

Every entry of ``tests/fuzz/corpus.jsonl`` is a minimized repro of a
failure the differential fuzzer once found (see docs/FUZZING.md); replaying
them keeps a fixed bug from silently regressing.  A small live campaign
additionally smoke-tests the whole harness — all three result routes plus
one delta scenario — inside tier 1.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz import FuzzConfig, load_corpus, replay_entry, run_fuzz
from repro.fuzz.harness import ROUTES

CORPUS = Path(__file__).with_name("corpus.jsonl")


def _corpus_entries():
    entries = load_corpus(CORPUS)
    assert entries, "the checked-in corpus must never be empty"
    return entries


@pytest.mark.parametrize(
    "entry", _corpus_entries(), ids=lambda entry: f"seed{entry.seed}-{entry.target}"
)
def test_corpus_entry_stays_fixed(entry):
    disagreements = replay_entry(entry)
    assert not disagreements, "\n".join(d.describe() for d in disagreements)


def test_corpus_entries_are_minimized_with_provenance():
    for entry in _corpus_entries():
        assert entry.detail, entry.target
        assert entry.query_names, entry.target
        assert entry.target in entry.query_names or entry.target == "*"


def test_smoke_campaign_is_green_on_every_route():
    """Two seeds through the full harness: all three routes, one delta."""
    report = run_fuzz(FuzzConfig(seed_count=2, delta_every=2, minimize=False))
    assert report.ok, "\n".join(d.describe() for d in report.disagreements)
    assert report.delta_scenarios == 1
    for route in ROUTES:
        assert report.route_counts.get(route, 0) > 0, route
