"""Run every workload, print its end-to-end metrics and write bench/BASELINE.json.

    python3 bench/baseline.py

Runs every workload untraced once per seed 1..10 for BENCHMARK.json's
run_seconds, and traced twice at seed 1 (the two traced runs must give the
same counters).  It prints each end-to-end metric per workload (median,
quartiles, spread, unit) and stops with an error on the first run whose
answers disagree with their references.  The file records the machine,
the Python version, each workload with why it was chosen, each metric with
its unit and bound (from BENCHMARK.json), the median and quartiles of every
end-to-end metric per workload, the traced per-layer metrics, and for each
per-layer metric the end-to-end metrics and workloads it should move.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
# Per-layer metric name prefix -> the end-to-end metrics it should move, as
# metric@workload.  The first matching prefix applies.
MOVES = {
    "checker.solve_": ["queries_per_s@decide-hp", "query_p50_ms@decide-hp",
                       "peak_rss_mb@decide-hp", "queries_per_s@enumerate-ext",
                       "query_p50_ms@enumerate-ext"],
    "checker.ac2a_solves": ["queries_per_s@decide-hp", "query_p50_ms@decide-hp",
                            "queries_per_s@enumerate-ext", "query_p50_ms@enumerate-ext"],
    "checker.witness_yield_ratio": ["queries_per_s@decide-hp", "query_p50_ms@decide-hp",
                                    "queries_per_s@enumerate-ext",
                                    "query_p50_ms@enumerate-ext"],
    "checker.ac2b_": ["queries_per_s@decide-hp", "queries_per_s@enumerate-ext"],
    "checker.has_witness_calls": ["queries_per_s@decide-hp"],
    "checker.ac3_": ["queries_per_s@decide-hp"],
    "checker.engine_build": ["query_p50_ms@enumerate-ext", "query_p50_ms@cli-corpus"],
    "normality.order_build_s": ["setup_s@enumerate-ext", "query_p90_ms@cli-corpus"],
    "normality.": ["query_p50_ms@enumerate-ext"],
    "graded.": ["query_p50_ms@enumerate-ext", "query_p90_ms@enumerate-ext"],
    "dsl.": ["setup_s@decide-hp", "setup_s@enumerate-ext", "setup_s@cli-corpus",
             "query_p90_ms@cli-corpus"],
    "model.validate_": ["setup_s@decide-hp", "setup_s@enumerate-ext", "setup_s@cli-corpus",
                        "query_p90_ms@cli-corpus"],
    "model.solve_": ["query_p50_ms@cli-corpus"],
    "formula.": ["query_p50_ms@cli-corpus"],
    "cli.defect_failures": ["failed_ratio@cli-corpus"],
    "cli.": ["query_p50_ms@cli-corpus"],
    "trace.": [],
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{done.stderr[-2000:]}")
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        traced = [run(name, 1, seconds, 1) for _ in range(2)]
        counters = {k: v["value"] for k, v in traced[0]["metrics"].items()
                    if v["unit"] == "count"}
        repeat = {k: v["value"] for k, v in traced[1]["metrics"].items() if k in counters}
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        entry = workloads[name] = {
            "why": w["why"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failed_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            # The known-defect inputs are kept out of attempted/failed; this
            # is the failed ratio of one traced pass with them counted in.
            "failed_ratio_with_known_defects": (
                layers["cli.defect_failures"] / layers["trace.queries"]),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "traced": layers,
            "counters_repeat": counters == repeat,
        }
        print(f"{name} ({len(SEEDS)} seeds, {seconds} s each)")
        for m in spec["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            print(f"  {m['name']:<16} median {s['median']:.4f} {m['unit']:<4} "
                  f"quartiles {s['q1']:.4f}..{s['q3']:.4f}  spread {s['spread']:.3f} "
                  f"(bound {m['bound']})")
        print(f"  failed_ratio     {entry['failed_ratio']:.4f}  with known-defect inputs "
              f"{entry['failed_ratio_with_known_defects']:.4f}  counters repeat: "
              f"{entry['counters_repeat']}", flush=True)
    per_layer = []
    for m in spec["per_layer"]:
        moves = next(v for k, v in MOVES.items() if m["name"].startswith(k))
        per_layer.append({**m, "moves": moves})
    baseline = {
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "end_to_end": spec["end_to_end"],
        "per_layer": per_layer,
        "workloads": workloads,
    }
    (BENCH / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
