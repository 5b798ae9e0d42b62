"""Command line: one workload for the driver, all workloads for a record, or compare."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Sequence

from .compare import compare_files
from .record import build_record, print_record
from .runner import WORKLOADS, run_workload
from .spec import BENCH_DIR, SIZES, WORK_DIR, Declared, load_declared

DRIVER_KEYS = ("correct", "attempted", "failed", "metrics")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py",
        description="HYDRA's tracked benchmark. With --workload: run it in this process "
        "and print one JSON result as the last line. Without: run every workload in a "
        "fresh subprocess each, untraced and traced, and print the metric tables. "
        "`run.py compare A.json B.json` compares two records.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 prints end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--trace-dir", type=Path, default=None, metavar="DIR",
                        help="traced runs also write one Chrome trace per workload here "
                        "(open in Perfetto, or summarize with `hydra-trace FILE`)")
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="smoke is for the tier-1 test; its records cannot be compared")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: untraced runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--traced-runs", type=int, default=None,
                        help="without --workload: traced runs per workload (default: --runs)")
    parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="without --workload: write the record (JSON) here")
    parser.add_argument("--result", type=Path, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: Sequence[str]) -> int:
    if os.environ.get("REPRO_BENCH_TINY", "").lower() in ("1", "true", "yes"):
        print("REPRO_BENCH_TINY is set: the tracked benchmark only runs at its declared "
              "sizes; unset it (tier 1 uses --size smoke instead)", file=sys.stderr)
        return 2
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare_files(Path(argv[1]), Path(argv[2]), load_declared())
    args = _parser().parse_args(argv)
    declared = load_declared()
    seconds = float(declared.run_seconds) if args.seconds is None else args.seconds
    if args.workload is not None:
        return _run_one(args, declared, seconds)
    return _run_all(args, declared, seconds)


def _run_one(args: argparse.Namespace, declared: Declared, seconds: float) -> int:
    result = run_workload(
        declared, args.workload, args.seed, seconds, bool(args.trace), args.size, args.trace_dir
    )
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    for name in result["measured"]:
        entry = result["metrics"][name]
        print(f"{args.workload:<14} {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    if args.result is not None:
        args.result.write_text(json.dumps(result), encoding="utf-8")
    print(json.dumps({key: result[key] for key in DRIVER_KEYS}))
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace, declared: Declared, seconds: float) -> int:
    traced_runs = args.runs if args.traced_runs is None else args.traced_runs
    WORK_DIR.mkdir(exist_ok=True)
    results: dict[str, dict[str, list[dict[str, Any]]]] = {}
    failed = False
    for name in declared.workloads:
        results[name] = {"end_to_end": [], "per_layer": []}
        for trace, count in ((0, args.runs), (1, traced_runs)):
            for run in range(count):
                result = _child(args, name, args.seed + run, seconds, trace)
                failed = failed or result is None or not result["correct"]
                if result is not None:
                    results[name]["per_layer" if trace else "end_to_end"].append(result)
    record = build_record(declared, results, args.size, args.seed, seconds)
    print_record(record)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def _child(
    args: argparse.Namespace, name: str, seed: int, seconds: float, trace: int
) -> dict[str, Any] | None:
    """One workload run in its own fresh interpreter; ``None`` when it died."""
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        result_path = Path(scratch) / "result.json"
        command = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", args.size,
            "--result", str(result_path),
        ]
        if trace and args.trace_dir is not None:
            command += ["--trace-dir", str(args.trace_dir)]
        print(f"[{name} seed={seed} trace={trace}]", flush=True)
        completed = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
        if not result_path.is_file():
            print(f"  run exited with {completed.returncode} and left no result", file=sys.stderr)
            return None
        result: dict[str, Any] = json.loads(result_path.read_text(encoding="utf-8"))
        for problem in result["problems"]:
            print(f"  FAILED CHECK: {problem}")
        return result
