"""Bit identity of the partition on a real client, against the reference algebra.

The smoke-size vendor client of the benchmark (TPC-DS-like data at scale
0.02, 12 queries of shape seed 2018) goes through a cold build, a 6-query
base and three extends of 2 queries each — twice in one process: once as
the code stands, once with ``IntervalSet.split``, ``intersect``,
``subtract`` and ``side_of`` replaced by the reference algebra of
``tests/interval_reference.py`` (the nested-loop intersect and iterative
subtract that ``split`` replaced).  Every partition checkpoint of every
build — its ordered ``(signature, boxes)`` listing with endpoints by
``repr``, and its ``boxes_visited`` / ``boxes_split`` — is hashed, and the
two digests and the two runs' summary fingerprints must be equal.  A change
to the interval algebra that moves a region, a box, an endpoint's sign of
zero or a counter fails here (``_cut`` itself is checked against a reference
partition in ``tests/property/test_regions_property.py``).  Both runs share
one LP solver and one data generator, so nothing here depends on their
versions.
"""

from __future__ import annotations

import hashlib

import pytest
from interval_reference import reference_intersect, reference_side_of, reference_subtract

from repro.client.extractor import AQPExtractor
from repro.core.pipeline import Hydra
from repro.sql.predicates import IntervalSet
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.tpcds import TPCDSConfig, generate_tpcds_database

BASE_QUERIES, STEP_QUERIES, EXTEND_STEPS = 6, 2, 3


def _render_checkpoint(checkpoint):
    """One checkpoint as text: counters, then every region's boxes in order."""
    lines = [f"boxes={checkpoint.num_boxes} visited={checkpoint.boxes_visited} "
             f"split={checkpoint.boxes_split}"]
    for signature, boxes in checkpoint.regions:
        for box in boxes:
            columns = " ".join(
                f"{column}:" + ",".join(
                    f"[{interval.low!r},{interval.high!r})" for interval in intervals
                )
                for column, intervals in box.conditions.items()
            )
            lines.append(f"{signature} {box.satisfiable} {columns}")
    return "\n".join(lines)


def _hash_checkpoints(digest, label, result):
    for name in sorted(result.states):
        state = result.states[name]
        for kind, checkpoint in (
            ("final", state.checkpoint),
            ("grounded", state.grounded_checkpoint),
        ):
            text = "-" if checkpoint is None else _render_checkpoint(checkpoint)
            digest.update(f"{label} {name} {kind}\n{text}\n".encode())


def _vendor_cycle(metadata, aqps):
    """Digest of every checkpoint, and the cold and last extended results."""
    hydra = Hydra(metadata=metadata)
    digest = hashlib.sha256()
    cold = hydra.build_summary(aqps)
    _hash_checkpoints(digest, "cold", cold)
    current = hydra.build_summary(aqps[:BASE_QUERIES])
    _hash_checkpoints(digest, "base", current)
    for step in range(EXTEND_STEPS):
        start = BASE_QUERIES + step * STEP_QUERIES
        current = hydra.extend_summary(current, aqps[start : start + STEP_QUERIES])
        _hash_checkpoints(digest, f"extend{step}", current)
    return digest.hexdigest(), cold, current


@pytest.fixture(scope="module")
def cycles():
    """The vendor cycle as the code stands, then on the reference algebra."""
    database = generate_tpcds_database(TPCDSConfig(scale=0.02, seed=1))
    extractor = AQPExtractor(database=database)
    metadata = extractor.profile_metadata()
    queries = generate_workload(metadata, WorkloadConfig(num_queries=12, seed=2018))
    aqps = extractor.extract_workload(queries)
    current = _vendor_cycle(metadata, aqps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntervalSet, "intersect", reference_intersect)
        patch.setattr(IntervalSet, "subtract", reference_subtract)
        patch.setattr(
            IntervalSet,
            "split",
            lambda a, b: (reference_intersect(a, b), reference_subtract(a, b)),
        )
        patch.setattr(IntervalSet, "side_of", reference_side_of)
        reference = _vendor_cycle(metadata, aqps)
    return current, reference


def test_every_partition_checkpoint_matches_the_reference_algebra(cycles):
    (digest, _, _), (reference_digest, _, _) = cycles
    assert digest == reference_digest


def test_summary_fingerprints_match_the_reference_algebra(cycles):
    (_, cold, extended), (_, reference_cold, reference_extended) = cycles
    assert cold.summary.fingerprint() == reference_cold.summary.fingerprint()
    assert extended.summary.fingerprint() == reference_extended.summary.fingerprint()


def test_the_extends_did_work(cycles):
    """The comparison covers partitions the last extend re-ran, not only reused ones."""
    (_, _, extended), _ = cycles
    assert extended.report.resolved_relations()
    assert any(info.boxes_split > 0 for info in extended.report.relations.values())
