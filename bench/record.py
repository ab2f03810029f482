"""Record the digest of every answer, for every input set, into digests.json.

    python3 bench/record.py

Run this at a commit whose answers are right: an answer is recorded only when
it passes its closed form, the oracle, the corpus expectations and the
goldens.  Later runs compare every answer with the recorded digest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


def main() -> int:
    table = {}
    for name, make in workloads.WORKLOADS.items():
        table[name] = {
            str(variant): ",".join(make(variant).record())
            for variant in range(workloads.VARIANTS)
        }
        print(f"{name}: {workloads.VARIANTS} input sets recorded", flush=True)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
