#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json artifacts (docs/OBSERVABILITY.md).

Compares "basil-bench-v1" artifacts produced by the test suite (BENCH_tcp_cluster.json
from scripts/run_tcp_cluster.sh, BENCH_tcp_throughput.json from
bench_tcp_throughput --smoke) against the committed baseline
bench/baseline/perf_baseline.json:

    perf_gate.py --baseline bench/baseline/perf_baseline.json build/BENCH_*.json

The baseline maps each bench name to floors/ceilings and relative bands:

    {"gates": {"tcp_cluster": {
        "min_tput_tps": 50,
        "min_commit_rate": 0.9,
        "bands": {"tput_tps": {"center": 365, "tolerance": 0.35}},
        "max_stage_p95_ms": {"wal.fsync_ns": 250.0}}}}

Three kinds of bound:

  - Absolute floors/ceilings (min_*, max_row_p99_ms, max_stage_p95_ms): for
    metrics dominated by
    hardware (fsync latency) these stay generous and catch order-of-magnitude
    regressions only. For the metrics the parallel pipeline improves (queue waits,
    commit spans) the committed ceilings are baseline p95 * 1.35 — a +35% regression
    fails the gate.
  - Positive row fields (require_positive_row_fields): every row's named field
    must be > 0. A field that reads 0 means the artifact stopped exporting it.
  - Bands: value must stay within center*(1 - tolerance) .. center*(1 + tolerance)
    of the committed baseline. "one_sided": true drops the upper check for metrics
    that legitimately scale with host cores (throughput on a bigger runner is an
    improvement, not a regression). A value above a two-sided band means the code
    got faster than the baseline knows — regenerate perf_baseline.json.

Exit 0 iff every gated bench passes; benches present in the artifacts but absent
from the baseline are reported and skipped.
"""

import argparse
import json
import sys


def fail(msgs, text):
    msgs.append("FAIL: " + text)


def gate_artifact(path, gates, msgs):
    with open(path) as f:
        art = json.load(f)
    if art.get("schema") != "basil-bench-v1":
        fail(msgs, f"{path}: not a basil-bench-v1 artifact")
        return
    bench = art.get("bench", "?")
    gate = gates.get(bench)
    if gate is None:
        print(f"SKIP {path}: no baseline gates for bench '{bench}'")
        return

    rows = art.get("rows", [])
    if not rows:
        fail(msgs, f"{path}: no rows")
        return
    # Throughput/commit-rate floors apply to the best row (sweeps include
    # configurations that are expected to be slower, e.g. workers=1).
    best_tput = max(r.get("tput_tps", 0.0) for r in rows)
    best_rate = max(r.get("commit_rate", 0.0) for r in rows)
    if "min_tput_tps" in gate and best_tput < gate["min_tput_tps"]:
        fail(msgs, f"{bench}: tput {best_tput:.1f} tps < floor {gate['min_tput_tps']}")
    if "min_commit_rate" in gate and best_rate < gate["min_commit_rate"]:
        fail(msgs, f"{bench}: commit rate {best_rate:.3f} < floor {gate['min_commit_rate']}")

    # Per-row latency ceiling. A zero/absent p99 fails too: it means the bench
    # stopped measuring latency, which is a regression in its own right.
    if "max_row_p99_ms" in gate:
        ceiling = gate["max_row_p99_ms"]
        for r in rows:
            p99 = r.get("p99_ms", 0.0)
            label = r.get("label", "?")
            if p99 <= 0:
                fail(msgs, f"{bench}: row '{label}' has no p99_ms "
                           "(latency dropped on the floor)")
            elif p99 > ceiling:
                fail(msgs, f"{bench}: row '{label}' p99 {p99:.2f} ms > "
                           f"ceiling {ceiling} ms")

    for field in gate.get("require_positive_row_fields", []):
        for r in rows:
            if r.get(field, 0) <= 0:
                fail(msgs, f"{bench}: row '{r.get('label', '?')}' has "
                           f"{field} <= 0 (not exported)")

    for metric, band in gate.get("bands", {}).items():
        if metric == "tput_tps":
            value = best_tput
        elif metric == "commit_rate":
            value = best_rate
        else:
            fail(msgs, f"{bench}: unknown band metric '{metric}'")
            continue
        center = band["center"]
        tol = band.get("tolerance", 0.35)
        lo = center * (1 - tol)
        if value < lo:
            fail(msgs, f"{bench}: {metric} {value:.1f} < band floor {lo:.1f} "
                       f"(baseline {center} - {tol:.0%})")
        if not band.get("one_sided", False) and value > center * (1 + tol):
            fail(msgs, f"{bench}: {metric} {value:.1f} > band ceiling "
                       f"{center * (1 + tol):.1f} — faster than the committed "
                       f"baseline; regenerate perf_baseline.json")

    stages = art.get("stages", {})
    for name in gate.get("require_stages", []):
        if name not in stages or stages[name].get("count", 0) == 0:
            fail(msgs, f"{bench}: required stage histogram '{name}' missing or empty")
    for name, ceiling_ms in gate.get("max_stage_p95_ms", {}).items():
        stage = stages.get(name)
        if stage is None:
            fail(msgs, f"{bench}: stage '{name}' absent (ceiling {ceiling_ms} ms)")
            continue
        p95_ms = stage.get("p95", 0.0) / 1e6
        if p95_ms > ceiling_ms:
            fail(msgs, f"{bench}: {name} p95 {p95_ms:.2f} ms > ceiling {ceiling_ms} ms")
    print(f"OK   {path}: bench '{bench}' tput={best_tput:.1f} tps "
          f"rate={best_rate:.3f} stages={len(stages)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("artifacts", nargs="+")
    args = ap.parse_args()

    with open(args.baseline) as f:
        gates = json.load(f)["gates"]

    msgs = []
    for path in args.artifacts:
        try:
            gate_artifact(path, gates, msgs)
        except (OSError, ValueError, KeyError) as e:
            fail(msgs, f"{path}: {e}")
    for m in msgs:
        print(m)
    if msgs:
        return 1
    print(f"PASS: {len(args.artifacts)} artifact(s) within baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
