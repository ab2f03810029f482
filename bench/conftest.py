"""Put the benchmark modules and the checkout's package on the import path
for the benchmark's own tests (``python3 -m pytest bench/tests``)."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
