#!/usr/bin/env python3
"""Compare bench --json output against the committed baseline.

Usage:
    tools/bench_compare.py bench/baseline.json CURRENT.json... [--threshold 0.15]

Each CURRENT.json is a `--json` document written by a bench binary:
    {"bench": "<name>", "metrics": {"<metric>": <number>, ...}}
The baseline maps bench names to their reference metrics.  A metric
missing from either side is reported but never fails the run (benches
grow metrics over time; regenerate the baseline when they do).

Direction is inferred from the metric name:
  *_per_sec, *_ratio      higher is better  (fail when current falls more
                          than THRESHOLD below baseline)
  *_s, *_ms, *_seconds_*,
  *_bytes_per_phone       lower is better   (fail when current rises more
                          than THRESHOLD above baseline)
  *_overhead_pct          lower is better, compared in absolute
                          percentage points (fail when current exceeds
                          baseline + 100*THRESHOLD points)
Anything else is informational only (including the host capacity columns
peak_rss_mb / heap_allocs / heap_alloc_mb every bench now emits).

Special case: the overheads in OVERHEAD_CAPS_PCT (provenance, idle
fault planes, monitor, accounting) also carry an absolute acceptance bar
of 5 points, the bar each bench prints: they must stay cheap no matter
what the baseline machine measured.  The SRGM analysis is priced per
phone-year of data instead (srgm_seconds_per_phone_year): its share of
the campaign's time moves whenever the simulator gets faster.

Baselines are machine-specific by nature; regenerate with
    ./build/bench/bench_transport_ingest --json ... (etc.)
and commit the result when the hardware or the code legitimately moves.
"""

import json
import sys

# Absolute acceptance bars in percentage points, independent of whatever
# the baseline machine measured.
OVERHEAD_CAPS_PCT = {
    "provenance_overhead_pct": 5.0,
    "idle_overhead_pct": 5.0,
    "monitor_overhead_pct": 5.0,
    "accounting_overhead_pct": 5.0,
}


def direction(name: str) -> str:
    if name.endswith("_overhead_pct"):
        return "pct-points"
    if "_per_sec" in name or name.endswith("_ratio"):
        return "higher"
    if name.endswith(("_s", "_ms", "_bytes_per_phone")) or "_seconds_" in name:
        return "lower"
    return "info"


def compare(bench: str, metrics: dict, base: dict, threshold: float):
    failures = []
    for name in sorted(metrics):
        cur = metrics[name]
        if name not in base:
            print(f"  {bench}.{name}: {cur:.6g} (no baseline — informational)")
            continue
        ref = base[name]
        kind = direction(name)
        verdict = "ok"
        if kind == "higher" and ref > 0 and cur < ref * (1.0 - threshold):
            verdict = "REGRESSION"
        elif kind == "lower" and ref > 0 and cur > ref * (1.0 + threshold):
            verdict = "REGRESSION"
        elif kind == "pct-points" and cur > ref + 100.0 * threshold:
            verdict = "REGRESSION"
        elif kind == "info":
            verdict = "info"
        cap = OVERHEAD_CAPS_PCT.get(name)
        if cap is not None and cur > cap:
            verdict = "REGRESSION (absolute cap %.1f%%)" % cap
        print(f"  {bench}.{name}: {cur:.6g} vs baseline {ref:.6g} [{verdict}]")
        if verdict.startswith("REGRESSION"):
            failures.append(f"{bench}.{name}")
    return failures


def main(argv):
    threshold = 0.15
    paths = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--threshold":
            threshold = float(next(it))
        else:
            paths.append(arg)
    if len(paths) < 2:
        print(__doc__, file=sys.stderr)
        return 2

    with open(paths[0]) as f:
        baseline = json.load(f)

    failures = []
    for path in paths[1:]:
        with open(path) as f:
            doc = json.load(f)
        bench = doc["bench"]
        base = baseline.get(bench)
        print(f"== {bench} (threshold {threshold:.0%}) ==")
        if base is None:
            print(f"  no baseline entry for '{bench}' — skipping")
            continue
        failures += compare(bench, doc["metrics"], base, threshold)

    if failures:
        print(f"\n{len(failures)} regression(s): {', '.join(failures)}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
