"""Machine-speed probes, to express query times at one reference speed.

The 2-CPU virtual machines this benchmark runs on change speed by up to 2x
over seconds to minutes, and every query moves with them.  So each timed
query is paired with a probe of fixed work that does not touch the package,
and its time is reported at reference speed:

    reference seconds = wall seconds * REF_S / (median of the nearby probes)

A query answered in this process is paired with ``probe()``: a small
structural-equation solver with a memo table, the same kind of work as the
package's search.  A fresh interpreter (a CLI process, a set-up probe) is
paired with ``start_probe()``: the start of an interpreter that imports a few
standard-library modules.  A probe run in this process between two
children does not follow the children's speed, so each kind of work gets a
probe of its own kind.

The REF_S constants are round figures near the probes' medians on the
machine that recorded BASELINE.json (a 2-CPU Xeon virtual machine), so there
a reference second is close to a wall second.  They fix the unit only: keep
them as they are, or every recorded figure changes with them.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import subprocess
import sys
from time import perf_counter

PROBE_REF_S = 0.001
START_REF_S = 0.100
# A query's speed is the median of the probes this many places either side.
WINDOW = 4

# X_v = X_{v-1} | X_{v-2} for odd v, X_{v-1} & !X_{v-2} for even v.
_EQUATIONS = [(v, v - 1, v - 2) for v in range(2, 12)]


def _solve(setting: dict) -> tuple:
    values = {0: 1, 1: 0}
    for v, a, b in _EQUATIONS:
        if v in setting:
            values[v] = setting[v]
        elif v % 2:
            values[v] = values[a] | values[b]
        else:
            values[v] = values[a] & (1 - values[b])
    return tuple(values[v] for v in range(12))


def probe() -> float:
    """Seconds to solve every setting of one and two of ten binary
    variables, memoized, in this process, with the collector off."""
    gc.disable()
    try:
        started = perf_counter()
        memo = {}
        for size in (1, 2):
            for names in itertools.combinations(range(2, 12), size):
                for values in itertools.product((0, 1), repeat=size):
                    key = (names, values)
                    if key not in memo:
                        memo[key] = _solve(dict(zip(names, values)))
        return perf_counter() - started
    finally:
        gc.enable()


def start_probe(env: dict, cwd) -> float:
    """Seconds for a fresh interpreter to start and import a few standard
    modules, in the environment the CLI children get."""
    started = perf_counter()
    # Pipes make run() wait on them; without pipes, a timeout makes it poll
    # the child with sleeps of up to 50 ms, and the time comes out in steps.
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, enum, json"],
                   check=True, env=env, cwd=cwd, timeout=30, capture_output=True)
    return perf_counter() - started


def scales(probes: list[float], ref: float) -> list[float]:
    """For each probe in time order, ref over the median of it and its
    WINDOW neighbours on either side."""
    return [ref / statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(probes))]
