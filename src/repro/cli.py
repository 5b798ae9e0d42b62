"""Command-line interface of the HYDRA reproduction.

One console script, ``hydra``, fronts every tool as a subcommand:

* ``hydra client`` — the client step: generate a built-in synthetic client
  environment (database + workload), profile its metadata, extract AQPs,
  optionally anonymise, and write the information package to a JSON file;
* ``hydra vendor`` — the vendor step: read an information package, build the
  regeneration summary, print the build report and save the summary.  With
  ``--materialize`` plus ``--format {csv,sqlite} --out DIR`` the
  regenerated relations are additionally *exported* through a streaming
  sink (``repro.sinks``) into a directory any database client can open;
* ``hydra verify`` — count the package's AQPs over the (dataless) database
  a summary regenerates and verify volumetric similarity, or — with
  ``--against EXPORT_DIR`` — validate a previously written export against
  its summary from the export's ``MANIFEST.json`` without regenerating
  tuples;
* ``hydra serve`` — run the concurrent summary server (``repro.server``):
  load summaries once into a versioned cache and answer
  query/verify/export/regenerate requests over HTTP/JSON;
* ``hydra trace`` / ``hydra lint`` — the observability and AST-invariant
  tools (also installed as ``hydra-trace`` / ``hydra-lint``);
* ``hydra fuzz`` — differential fuzzing (``repro.fuzz``): synthesize
  randomized scenarios, round-trip them through the pipeline and check
  every result route against a SQLite oracle, minimizing failures to a
  replayable corpus.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .client.anonymizer import Anonymizer
from .client.extractor import AQPExtractor
from .client.package import DeltaPackage, InformationPackage, load_package_file
from .core.errors import HydraError
from .core.pipeline import Hydra
from .core.summary import DatabaseSummary
from .storage.database import Database
from .sinks import (
    EXPORT_FORMATS,
    export_summary,
    sink_for_format,
    validate_export_against,
)
from .telemetry.session import telemetry_session
from .verify.comparator import VolumetricComparator
from .verify.report import (
    format_error_cdf,
    format_sample_tuples,
    format_summary_table,
)
from .workload.generator import WorkloadConfig, generate_workload
from .workload.toy import ToyConfig, generate_toy_database
from .workload.tpcds import TPCDSConfig, generate_tpcds_database
from .workload.tpch import TPCHConfig, generate_tpch_database

__all__ = [
    "SUBCOMMANDS",
    "client_main",
    "main",
    "resolve_subcommand",
    "vendor_main",
    "verify_main",
]


def _build_database(dataset: str, scale: float, seed: int) -> Database:
    if dataset == "tpcds":
        return generate_tpcds_database(TPCDSConfig(scale=scale, seed=seed))
    if dataset == "tpch":
        return generate_tpch_database(TPCHConfig(scale=scale, seed=seed))
    if dataset == "toy":
        return generate_toy_database(ToyConfig(seed=seed))
    raise SystemExit(f"unknown dataset {dataset!r}; choose from tpcds, tpch, toy")


def _ensure_writable_directory(parser: argparse.ArgumentParser, path: Path) -> None:
    """Fail fast (before any solving) when ``--out`` cannot receive an export."""
    if path.exists() and not path.is_dir():
        parser.error(f"--out {path} exists and is not a directory")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {path} cannot be created: {exc}")
    if not os.access(path, os.W_OK):
        parser.error(f"--out {path} is not writable")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags (``--trace``/``--metrics``)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the run (load it in Perfetto "
        "or chrome://tracing, or summarize it with `hydra-trace FILE`)",
    )
    group.add_argument(
        "--metrics", type=Path, default=None, metavar="FILE",
        help="write the run's metric registry (counters, gauges, histograms) "
        "as pretty-printed JSON",
    )


@contextmanager
def _telemetry_scope(args: argparse.Namespace) -> Iterator[None]:
    """Activate telemetry for the run when ``--trace``/``--metrics`` asked.

    The output files are written even when the run dies mid-way — a partial
    trace is exactly what one wants to look at in that case.  Without the
    flags this is a plain pass-through and the run stays un-instrumented.
    """
    if args.trace is None and args.metrics is None:
        yield
        return
    with telemetry_session() as session:
        try:
            yield
        finally:
            if args.trace is not None:
                session.write_trace(args.trace)
                print(f"wrote trace {args.trace}")
            if args.metrics is not None:
                session.write_metrics(args.metrics)
                print(f"wrote metrics {args.metrics}")


def _build_package(dataset: str, scale: float, seed: int, queries: int) -> InformationPackage:
    database = _build_database(dataset, scale, seed)
    extractor = AQPExtractor(database=database)
    metadata = extractor.profile_metadata()
    workload = generate_workload(
        metadata, WorkloadConfig(num_queries=queries, seed=seed)
    )
    aqps = extractor.extract_workload(workload)
    return InformationPackage(metadata=metadata, aqps=aqps, client_name=dataset)


def client_main(argv: Sequence[str] | None = None) -> int:
    """Client site: profile, extract AQPs and optionally anonymise."""
    parser = argparse.ArgumentParser(
        prog="hydra client",
        description="Build (and optionally anonymise) the client information package.",
    )
    parser.add_argument("--dataset", default="tpcds", choices=["tpcds", "tpch", "toy"])
    parser.add_argument("--scale", type=float, default=0.2, help="data scale factor")
    parser.add_argument("--queries", type=int, default=30, help="number of workload queries")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--anonymize", action="store_true")
    parser.add_argument("--output", type=Path, default=Path("package.json"))
    args = parser.parse_args(argv)

    package = _build_package(args.dataset, args.scale, args.seed, args.queries)
    if args.anonymize:
        package, _mapping = Anonymizer().anonymize(package)
    package.save(args.output)
    print(package.describe())
    print(f"wrote {args.output}")
    return 0


def vendor_main(argv: Sequence[str] | None = None) -> int:
    """Vendor site: build the regeneration summary from a package."""
    parser = argparse.ArgumentParser(
        prog="hydra vendor",
        description="Build the HYDRA database summary from an information package.",
    )
    parser.add_argument(
        "package", type=Path,
        help="information package JSON (a delta package when using --extend-from)",
    )
    parser.add_argument("--mode", default="exact", choices=["exact", "soft"])
    parser.add_argument(
        "--alignment", default="deterministic", choices=["deterministic", "sampling"]
    )
    parser.add_argument(
        "--extend-from", type=Path, default=None, metavar="SUMMARY",
        help="incremental maintenance: load this previously saved summary "
        "(with embedded extension state), splice in the package's AQPs as a "
        "delta workload, and re-solve only the touched relations",
    )
    parser.add_argument(
        "--materialize", type=str, default=None, metavar="REL[,REL...]|all",
        help="after the build, eagerly regenerate these relations ('all' for "
        "every relation) and report tuple throughput; with --format/--out the "
        "regenerated streams are exported to disk instead of counted in memory",
    )
    parser.add_argument(
        "--format", dest="export_format", default=None, choices=list(EXPORT_FORMATS),
        help="export backend for the --materialize streams (requires --out)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="export directory for --format (created if missing; a "
        "MANIFEST.json with row counts and content checksums is written "
        "alongside the data files for hydra verify --against)",
    )
    parser.add_argument("--output", type=Path, default=Path("summary.json"))
    _add_telemetry_arguments(parser)
    args = parser.parse_args(argv)
    names: list[str] = []
    if args.materialize is not None:
        seen = set()
        for name in args.materialize.split(","):
            name = name.strip()
            if name and name not in seen:
                seen.add(name)
                names.append(name)
        if not names:
            parser.error("--materialize needs at least one relation name")
    materialize_all = names == ["all"]
    if "all" in names and not materialize_all:
        parser.error("--materialize 'all' cannot be combined with relation names")
    # Export arguments are validated *before* any solving starts: a typo in
    # the format (argparse choices above), a missing/unwritable output
    # directory or an unknown relation name must not cost the user a full
    # summary build first.
    if (args.export_format is None) != (args.out is None):
        parser.error("--format and --out must be given together")
    if args.export_format is not None and not names:
        parser.error("--format/--out export the --materialize relations; "
                     "pass --materialize REL[,REL...] or --materialize all")
    if args.out is not None:
        _ensure_writable_directory(parser, args.out)

    with _telemetry_scope(args):
        return _vendor_run(parser, args, names, materialize_all)


def _vendor_run(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    names: list[str],
    materialize_all: bool,
) -> int:
    """The vendor build proper, running inside the telemetry scope."""
    try:
        loaded = load_package_file(args.package)
    except HydraError as exc:
        raise SystemExit(str(exc))
    if names and not materialize_all:
        known_tables = set(loaded.metadata.schema.table_names)
        unknown = sorted(set(names) - known_tables)
        if unknown:
            parser.error(
                "unknown --materialize relation(s) "
                + ", ".join(repr(name) for name in unknown)
                + "; the package describes: "
                + ", ".join(sorted(known_tables))
            )
    hydra = Hydra(metadata=loaded.metadata, mode=args.mode, alignment=args.alignment)

    if args.extend_from is not None:
        try:
            previous = DatabaseSummary.load(args.extend_from)
        except HydraError as exc:
            raise SystemExit(str(exc))
        # The package must describe the same database the summary was built
        # for — a fingerprint pin when the delta carries one, and always at
        # least the schema (catches a wrong client's package up front instead
        # of failing deep inside state restoration, or worse, silently
        # splicing two clients' workloads).
        package_tables = sorted(loaded.metadata.schema.table_names)
        summary_tables = sorted(previous.schema.table_names)
        if package_tables != summary_tables:
            raise SystemExit(
                "--extend-from summary describes relations "
                f"{', '.join(summary_tables)} but the package describes "
                f"{', '.join(package_tables)}; it is not a delta against "
                "this summary's client database"
            )
        if isinstance(loaded, DeltaPackage) and loaded.base_fingerprint:
            pinned = (previous.extension_state or {}).get("package_fingerprint")
            if pinned and pinned != loaded.base_fingerprint:
                raise SystemExit(
                    f"delta package pins base package {loaded.base_fingerprint!r}, "
                    f"but the summary was built from package {pinned!r}"
                )
        try:
            base_result = hydra.restore_result(previous)
            result = hydra.extend_summary(base_result, loaded.aqps)
        except HydraError as exc:
            raise SystemExit(str(exc))
        union_package = InformationPackage(
            metadata=loaded.metadata, aqps=result.aqps, client_name=loaded.client_name
        )
        result.attach_extension_state(union_package.fingerprint())
        resolved = result.report.resolved_relations()
        reused = result.report.reused_relations()
        print(
            f"incremental extend: re-solved {len(resolved)} relation(s) "
            f"({', '.join(resolved) or 'none'}), reused {len(reused)} "
            f"(summary version {result.summary.version})"
        )
    else:
        if isinstance(loaded, DeltaPackage):
            raise SystemExit(
                "the package is a delta package; it can only be applied with "
                "--extend-from SUMMARY"
            )
        result = hydra.build_summary(loaded.aqps)
        result.attach_extension_state(loaded.fingerprint())

    result.summary.save(args.output)

    print(result.report.describe())
    print()
    print(format_summary_table(result.summary))
    print(f"wrote {args.output}")

    if names and materialize_all:
        names = list(result.summary.relations)
    if args.export_format is not None:
        try:
            sink = sink_for_format(args.export_format, args.out)
            start = time.perf_counter()
            manifest = export_summary(result.summary, sink, relations=names)
            elapsed = time.perf_counter() - start
        except HydraError as exc:
            raise SystemExit(str(exc))
        rows = manifest.total_rows()
        rate = rows / elapsed if elapsed > 0 else float("inf")
        print(
            f"exported {', '.join(names)} to {args.out} ({args.export_format}): "
            f"{rows:,} rows in {elapsed:.3f}s ({rate:,.0f} rows/s); "
            f"manifest: {args.out / 'MANIFEST.json'}"
        )
    elif names:
        try:
            start = time.perf_counter()
            database = hydra.regenerate(result.summary, materialize=names)
            elapsed = time.perf_counter() - start
        except HydraError as exc:
            raise SystemExit(str(exc))
        rows = sum(database.row_count(name) for name in names)
        rate = rows / elapsed if elapsed > 0 else float("inf")
        print(
            f"materialized {', '.join(names)}: {rows:,} rows in {elapsed:.3f}s "
            f"({rate:,.0f} rows/s)"
        )
    return 0


def verify_main(argv: Sequence[str] | None = None) -> int:
    """Regenerate from a summary and verify volumetric similarity.

    With ``--against EXPORT_DIR`` the volumetric run is replaced by export
    validation: the directory's ``MANIFEST.json`` is checked against the
    summary (fingerprint, per-relation row counts) and the backend files
    are re-read and re-hashed — no tuple is regenerated.
    """
    parser = argparse.ArgumentParser(
        prog="hydra verify",
        description="Verify volumetric similarity of a regenerated database, "
        "or validate an export directory against its summary (--against).",
    )
    parser.add_argument("package", type=Path, help="information package JSON")
    parser.add_argument("summary", type=Path, help="database summary JSON")
    parser.add_argument(
        "--against", type=Path, default=None, metavar="EXPORT_DIR",
        help="validate this export directory (written by hydra vendor "
        "--format/--out) against the summary: manifest fingerprint, row "
        "counts and content checksums, without regenerating tuples",
    )
    parser.add_argument(
        "--sample", type=str, default=None,
        help="also print sample tuples of the given relation",
    )
    _add_telemetry_arguments(parser)
    args = parser.parse_args(argv)
    if args.against is not None and args.sample is not None:
        parser.error("--sample does not apply to --against export validation")

    with _telemetry_scope(args):
        return _verify_run(parser, args)


def _verify_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The verification run proper, running inside the telemetry scope."""
    try:
        package = InformationPackage.load(args.package)
        summary = DatabaseSummary.load(args.summary)
    except HydraError as exc:
        raise SystemExit(str(exc))

    if args.against is not None:
        try:
            validation = validate_export_against(
                summary, args.against, package.metadata.schema
            )
        except HydraError as exc:
            raise SystemExit(str(exc))
        print(validation.describe())
        return 0 if validation.ok else 1

    if args.sample is not None and args.sample not in summary.relations:
        parser.error(
            f"unknown --sample relation {args.sample!r}; the summary describes: "
            + ", ".join(sorted(summary.relations))
        )
    hydra = Hydra(metadata=package.metadata)
    result = VolumetricComparator(database=hydra.regenerate(summary)).verify(package.aqps)
    print(format_error_cdf(result))

    if args.sample is not None:
        generator = hydra.tuple_generator(summary, args.sample)
        count = min(5, generator.row_count)
        indices = [int(i * max(1, generator.row_count // max(count, 1))) for i in range(count)]
        print()
        print(f"sample tuples of {args.sample}:")
        print(format_sample_tuples(generator, indices))
    return 0


#: The ``hydra`` subcommand table: name -> (module, entry-point attribute).
#: Modules are imported lazily so ``hydra client`` never pays for the
#: server or lint stacks; the unit tests assert this table and the argparse
#: choices stay in sync, so a new subcommand cannot be forgotten here.
SUBCOMMANDS: dict[str, tuple[str, str]] = {
    "client": ("repro.cli", "client_main"),
    "vendor": ("repro.cli", "vendor_main"),
    "verify": ("repro.cli", "verify_main"),
    "serve": ("repro.server.cli", "serve_main"),
    "trace": ("repro.telemetry.trace_cli", "main"),
    "lint": ("repro.lint.cli", "main"),
    "fuzz": ("repro.fuzz.cli", "main"),
}


def resolve_subcommand(command: str) -> Callable[[Sequence[str] | None], int]:
    """Import and return the entry point behind one ``hydra`` subcommand."""
    module_name, attribute = SUBCOMMANDS[command]
    module = importlib.import_module(module_name)
    entry: Callable[[Sequence[str] | None], int] = getattr(module, attribute)
    return entry


def main(argv: Sequence[str] | None = None) -> int:
    """The unified ``hydra`` dispatcher (``hydra <command> ...``).

    One console script fronts every tool: ``hydra
    client|vendor|verify|serve|trace|lint|fuzz``; ``hydra-trace``
    and ``hydra-lint`` stay first-class spellings of ``hydra trace`` /
    ``hydra lint``.
    """
    parser = argparse.ArgumentParser(
        prog="hydra",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(SUBCOMMANDS))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    return resolve_subcommand(args.command)(args.rest)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
