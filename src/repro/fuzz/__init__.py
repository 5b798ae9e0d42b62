"""Differential fuzzing of the engine against a SQLite oracle.

The harness round-trips every synthesized scenario (see
:mod:`repro.workload.synth`) through the full pipeline — client AQP
extraction, summary build, regeneration — and then asks the *same* SQL of
two independent implementations over the *same* regenerated tuples:

* the repo's execution engine, on every supported result route (the
  dataless database, the same tuples materialised, and via the HTTP
  server); and
* stock ``sqlite3``, over the PR 5 SQLite export of the summary.

Any disagreement is shrunk by the delta-debugging minimizer to a minimal
``(seed, query-set)`` repro and appended to a JSONL corpus that the tier-1
test suite replays forever after.
"""

from .harness import Disagreement, FuzzConfig, FuzzReport, run_fuzz, run_scenario
from .minimize import (
    CorpusEntry,
    append_corpus,
    ddmin,
    load_corpus,
    minimize_failure,
    replay_entry,
)
from .oracle import SqliteOracle

__all__ = [
    "CorpusEntry",
    "Disagreement",
    "FuzzConfig",
    "FuzzReport",
    "SqliteOracle",
    "append_corpus",
    "ddmin",
    "load_corpus",
    "minimize_failure",
    "replay_entry",
    "run_fuzz",
    "run_scenario",
]
