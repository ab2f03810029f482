"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload decide-hp --seed 1 --seconds 15 --trace 0

Workloads: decide-hp, enumerate-ext, cli-corpus (see workloads.py).  With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it makes one untraced and one traced pass over the same
queries, reports the per-layer metrics and writes the spans to
``.bench_out/``.  Human-readable lines come first; the last line of standard
output is one JSON object.  Metric names and units come from BENCHMARK.json.
The exit code is 1 when any answer disagrees with its reference, a tracing
target is gone from the package or a metric does not match BENCHMARK.json,
and 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json lists them."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(outcomes, extra: dict) -> dict:
    """The end-to-end metrics, with query times in reference seconds."""
    regular = [o for o in outcomes if not o.defect]
    answered = ([o.seconds * o.scale for o in regular if not o.failed]
                or [o.seconds * o.scale for o in regular])
    return {
        "query_p50_ms": statistics.median(answered) * 1000.0,
        "query_p90_ms": statistics.quantiles(answered, n=10)[8] * 1000.0,
        "queries_per_s": len(answered) / sum(answered),
        "setup_s": extra["setup_s"],
        "peak_rss_mb": extra["peak_rss_mb"],
    }


def report(workload: str, seed: int, variant: int, outcomes, metrics: dict,
           units: dict, extra: dict):
    regular = [o for o in outcomes if not o.defect]
    defects = [o for o in outcomes if o.defect]
    answered = sorted(o.seconds for o in regular if not o.failed)
    print(f"workload {workload}  seed {seed} (input set {variant})  "
          f"queries {len(regular)}  passes {extra.get('rounds', 1)}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6f} {units[name]}")
    if "query_p90_ms" in metrics:
        scaled = [o.seconds * o.scale * 1000.0 for o in regular if not o.failed]
        beyond = sum(1 for s in scaled if s > metrics["query_p90_ms"])
        print(f"  samples {len(answered)}, {beyond} beyond the p90")
        print(f"  wall p50 {statistics.median(answered) * 1000.0:.3f} ms, median speed scale "
              f"{statistics.median(o.scale for o in regular):.4f} (speed.py)")
    failed = sum(o.failed for o in outcomes)
    print(f"  failed_ratio {failed}/{len(outcomes)} = {failed / len(outcomes):.4f} ratio"
          f" (known-defect inputs: {sum(o.failed for o in defects)} of {len(defects)} failed)")
    lines = Counter()
    for o in outcomes:
        if o.defect and not o.problems:
            lines[f"known defect: {o.error}"] += bool(o.error)
        else:
            lines.update(f"FAIL: {line}" for line in ([o.error] if o.error else []) + o.problems)
    for line, count in lines.items():
        if count:
            print(f"  {line} (x{count})", file=sys.stderr if line.startswith("FAIL") else sys.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide-hp", "enumerate-ext", "cli-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "actualcause" / "__init__.py").is_file():
        print(f"bench: no package to measure at {SRC / 'actualcause'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]

    import actualcause
    import tracing
    import workloads

    if Path(actualcause.__file__).resolve().parent != (SRC / "actualcause").resolve():
        print(f"bench: imported {actualcause.__file__}, not the checkout's", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    faults = []
    if args.trace:
        tracer = tracing.Tracer()
        outcomes, extra = workload.traced(tracer)
        computed = {**tracing.layer_metrics(tracer), **extra, "trace.queries": len(outcomes)}
        faults += [f"tracing target not found: {t}" for t in tracer.missing]
        faults += [f"metric {n} is not in BENCHMARK.json" for n in computed
                   if n not in layer_units]
        # Layers a workload does not reach (cli.* on the library ones) read 0.
        metrics = {name: computed.get(name, 0.0) for name in layer_units}
        tracer.write(workloads.OUT / f"spans-{args.workload}-{args.seed}.tsv")
        units = layer_units
    else:
        outcomes, extra = workload.measure(args.seconds)
        computed = end_to_end(outcomes, extra)
        faults += [f"metric {n} is not measured" for n in e2e_units if n not in computed]
        faults += [f"metric {n} is not in BENCHMARK.json" for n in computed
                   if n not in e2e_units]
        metrics = {name: computed.get(name, 0.0) for name in e2e_units}
        units = e2e_units
    report(args.workload, args.seed, workload.variant, outcomes, metrics, units, extra)
    for fault in faults:
        print(f"FAIL: {fault}", file=sys.stderr)
    regular = [o for o in outcomes if not o.defect]
    correct = (not faults and not any(o.problems for o in outcomes)
               and not any(o.error for o in regular))
    print(json.dumps({
        "correct": correct,
        "attempted": len(regular),
        "failed": sum(o.failed for o in regular),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
