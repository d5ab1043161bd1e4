"""End-to-end benchmark of the replay product (see README.md).

Run from the repository root::

    python -m benchmarks.e2e [--workload NAME ...] [--seed N] [--trace]

The package imports nothing from ``repro`` at import time: the parent
process only orchestrates child processes, and each child puts ``src/``
on its own ``sys.path`` before it touches the program.
"""

from pathlib import Path

#: Repository root (the checkout the benchmark runs in).
ROOT = Path(__file__).resolve().parents[2]
#: Where the program's sources live inside the checkout.
SRC = ROOT / "src"
#: This benchmark's own directory.
HERE = Path(__file__).resolve().parent
