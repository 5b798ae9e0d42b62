"""``hydra serve`` — run the concurrent summary server from the shell.

Thin argparse front-end over :class:`~repro.server.service.SummaryService`
and :class:`~repro.server.http.HydraServer`: parse flags, pre-load the
requested summaries, print the resolved listen address (``--port 0`` binds
an ephemeral port) and serve until interrupted.  Telemetry flags
(``--trace`` / ``--metrics``) behave exactly like the other ``hydra``
subcommands: one session spanning the server's lifetime, written on shutdown.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .api import API_PREFIX, ApiError, LoadSummaryRequest
from .http import HydraServer
from .service import ServiceError, SummaryService

__all__ = ["serve_main"]


def _parse_load_spec(spec: str) -> tuple[str, str]:
    """Split one ``NAME=PATH`` preload spec."""
    name, sep, path = spec.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(
            f"expected NAME=PATH, got {spec!r}"
        )
    return name, path


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Start the summary server (``hydra serve``)."""
    from ..cli import _add_telemetry_arguments, _telemetry_scope

    parser = argparse.ArgumentParser(
        prog="hydra serve",
        description="Serve cached database summaries over HTTP/JSON: load "
        "once, answer many concurrent query/verify/export/regenerate "
        "requests against the in-memory cache.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="listen address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8765,
        help="listen port; 0 binds an ephemeral port, printed on startup "
        "(default: 8765)",
    )
    parser.add_argument(
        "--load", action="append", default=[], type=_parse_load_spec,
        metavar="NAME=PATH",
        help="pre-load a summary JSON into the cache under NAME "
        "(repeatable)",
    )
    parser.add_argument(
        "--requests-per-second", type=float, default=None, metavar="RATE",
        help="per-tenant admission rate; over-budget requests get 429 with "
        "Retry-After (default: unlimited)",
    )
    _add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    service = SummaryService(requests_per_second=args.requests_per_second)
    with _telemetry_scope(args):
        for name, path in args.load:
            try:
                info = service.load(LoadSummaryRequest(name=name, path=path))
            except (ServiceError, ApiError) as exc:
                print(f"cannot pre-load {name!r}: {exc}", file=sys.stderr)
                return 1
            print(
                f"loaded {name}: {info.total_rows:,} rows across "
                f"{len(info.relations)} relation(s), fingerprint "
                f"{info.fingerprint[:12]}..."
            )
        server = HydraServer(service, host=args.host, port=args.port)
        server.start()
        print(
            f"hydra-server listening on http://{server.host}:{server.port}{API_PREFIX}",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
