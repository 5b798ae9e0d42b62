"""``hydra fuzz`` — the differential fuzzing CLI.

Examples::

    hydra fuzz --seed-count 50                # a campaign (CI acceptance)
    hydra fuzz --seed 1337                    # one seed, all routes
    hydra fuzz --replay tests/fuzz/corpus.jsonl   # re-run minimized repros
    hydra fuzz --seed-count 200 --corpus out/corpus.jsonl --artifact out/fuzz.json

Exit status is non-zero when any engine-vs-oracle disagreement (or corpus
replay regression) is found; minimized repros are appended to ``--corpus``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from ..workload.synth import SynthConfig
from ..serialization import write_atomic
from .harness import ROUTES, FuzzConfig, FuzzReport, run_fuzz
from .minimize import load_corpus, replay_entry

__all__ = ["main"]


def _parse_routes(raw: str) -> tuple[str, ...]:
    """Parse the ``--routes`` comma list, validating route names."""
    routes = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = set(routes) - set(ROUTES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown route(s) {sorted(unknown)}; choose from {', '.join(ROUTES)}"
        )
    if not routes:
        raise argparse.ArgumentTypeError("need at least one route")
    return routes


def _replay(path: Path) -> int:
    """Re-run every corpus entry; report and count regressions."""
    entries = load_corpus(path)
    if not entries:
        print(f"corpus {path} is empty: nothing to replay")
        return 0
    failures = 0
    for index, entry in enumerate(entries):
        found = replay_entry(entry)
        status = "ok" if not found else "REGRESSED"
        print(
            f"[{index}] seed={entry.seed} target={entry.target} "
            f"({entry.kind}, {entry.route}): {status}"
        )
        for disagreement in found:
            failures += 1
            print("    " + disagreement.describe())
    print(f"replayed {len(entries)} entrie(s): {failures} regression(s)")
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``hydra fuzz``."""
    parser = argparse.ArgumentParser(
        prog="hydra fuzz",
        description="Differential fuzzing of the engine against a SQLite "
        "oracle over randomized synthesized scenarios.",
    )
    parser.add_argument(
        "--seed-count", type=int, default=25,
        help="number of consecutive seeds to fuzz (default 25)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the campaign (default 0)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="fuzz exactly this one seed (overrides --seed-count/--base-seed)",
    )
    parser.add_argument(
        "--routes", type=_parse_routes, default=ROUTES, metavar="R[,R...]",
        help=f"result routes to exercise (default all: {','.join(ROUTES)})",
    )
    parser.add_argument(
        "--delta-every", type=int, default=3, metavar="N",
        help="run the extend_summary delta phase on every N-th seed "
        "(0 disables; default 3)",
    )
    parser.add_argument(
        "--num-queries", type=int, default=None, metavar="N",
        help="override the synthesized base workload size per seed",
    )
    parser.add_argument(
        "--max-relations", type=int, default=None, metavar="N",
        help="override the maximum relation count per synthesized schema",
    )
    parser.add_argument(
        "--corpus", type=Path, default=None, metavar="FILE",
        help="append minimized repros of any disagreement to this JSONL file",
    )
    parser.add_argument(
        "--artifact", type=Path, default=None, metavar="FILE",
        help="write the machine-readable campaign report as JSON",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="record raw failures without delta-debugging minimization",
    )
    parser.add_argument(
        "--replay", type=Path, default=None, metavar="CORPUS",
        help="replay a JSONL corpus instead of fuzzing new seeds",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(args.replay)

    synth = SynthConfig()
    overrides: dict[str, int] = {}
    if args.num_queries is not None:
        overrides["num_queries"] = args.num_queries
    if args.max_relations is not None:
        overrides["max_relations"] = args.max_relations
    if overrides:
        synth = replace(synth, **overrides)

    seed_count = args.seed_count
    base_seed = args.base_seed
    if args.seed is not None:
        seed_count, base_seed = 1, args.seed
    config = FuzzConfig(
        seed_count=seed_count,
        base_seed=base_seed,
        routes=args.routes,
        delta_every=args.delta_every,
        synth=synth,
        corpus_path=str(args.corpus) if args.corpus is not None else None,
        minimize=not args.no_minimize,
    )
    report = run_fuzz(config)
    _emit(report, args.artifact)
    return 0 if report.ok else 1


def _emit(report: FuzzReport, artifact: Path | None) -> None:
    """Print the human summary and optionally write the JSON artifact."""
    print(report.describe())
    for disagreement in report.disagreements:
        print("  " + disagreement.describe())
    for entry in report.corpus_entries:
        print(
            "  minimized repro: seed=%s queries=%s target=%s"
            % (entry["seed"], ",".join(entry["query_names"]), entry["target"])
        )
    if artifact is not None:
        artifact.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(artifact, json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote {artifact}")


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    raise SystemExit(main())
