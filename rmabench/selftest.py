"""Self-tests of the benchmark at a tiny scale.

    python3 rmabench/selftest.py

For every workload (including any not listed in ``BENCHMARK.json``), two
fresh runs with the same seed and a fixed number of
queries, one untraced and one traced, must:

* answer every query correctly (``error_rate == 0``);
* print every metric ``BENCHMARK.json`` declares, with its unit, and carry
  exactly those metrics in the final JSON object;
* return identical answers query by query, traced or not;
* pass the traced run's time accounting (``run.accounting_failures``:
  no overlapping spans, layer self times plus the remainder equal the
  traced wall time within ``run.ACCOUNTING_TOLERANCE``).

Exits non-zero and names the failed checks when any check fails.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench

SEED = 7
SCALE = 0.05
QUERIES = 16


def check_workload(name: str, declared, units: dict) -> list[str]:
    failures = []
    answers = {}
    for trace in (False, True):
        result = bench.run(name, SEED, seconds=0, trace=trace, scale=SCALE,
                           setup_repeats=1, max_queries=QUERIES,
                           fingerprints=True)
        lines: list[str] = []
        final = bench.report(result, declared, log=lines.append)
        label = f"{name} trace={int(trace)}"
        if not final["correct"] or result["error_rate"] != 0:
            failures.append(f"{label}: {result['errors']} failed, "
                            f"{result['wrong']} wrong answers")
        wanted = declared[1] if trace else declared[0]
        prefix = "layer" if trace else "metric"
        for metric in wanted:
            unit = units[metric]
            if not any(line.startswith(f"{prefix} {metric} ")
                       and line.endswith(f" {unit}") for line in lines):
                failures.append(f"{label}: {metric} not printed in {unit}")
            got = final["metrics"].get(metric, {}).get("unit")
            if got != unit:
                failures.append(f"{label}: {metric} has unit {got!r}")
        if set(final["metrics"]) != set(wanted):
            failures.append(f"{label}: final metrics differ from "
                            "BENCHMARK.json")
        if trace:
            failures += [f"{label}: {failure}" for failure in
                         bench.accounting_failures(result["layers"])]
        answers[trace] = result["fingerprints"]
    if answers[False] != answers[True]:
        differing = [i for i in answers[False]
                     if answers[False][i] != answers[True].get(i)]
        failures.append(f"{name}: traced answers differ at {differing}")
    return failures


def main() -> int:
    bench.bootstrap()
    from workloads import WORKLOADS

    declared = bench.declared_metrics()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    declared_workloads = [w["name"] for w in spec["workloads"]]
    failures = [f"BENCHMARK.json names an unknown workload {name!r}"
                for name in declared_workloads if name not in WORKLOADS]
    for name in WORKLOADS:
        found = check_workload(name, declared, units)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        failures += found
    for failure in failures:
        print(f"  {failure}")
    print("selftest " + ("passed" if not failures else "failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
