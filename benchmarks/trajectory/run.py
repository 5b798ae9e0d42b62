"""Entry point of the tracked benchmark (see README.md next to this file).

    python3 benchmarks/trajectory/run.py                      # every workload, tables
    python3 benchmarks/trajectory/run.py --workload query-stream --seed 3 --seconds 10 --trace 0
    python3 benchmarks/trajectory/run.py --runs 10 --out A.json
    python3 benchmarks/trajectory/run.py compare A.json B.json
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"the program under test is missing: no package at {SRC / 'repro'}")
    sys.path[:0] = [str(HERE), str(SRC)]
    from hydrabench.cli import main

    sys.exit(main(sys.argv[1:]))
