#!/usr/bin/env python3
"""Perf-regression gate over the committed BENCH baselines.

Compares a fresh ``--metrics-out`` snapshot against the committed
``BENCH_gate.json`` baseline:

* **strict** — deterministic work counters (session events/intervals,
  engine cycles and skip counts, cache hits/misses/stores, pool jobs)
  must match the baseline *exactly*. These are simulated-work sums,
  byte-identical for every ``--jobs N`` and every machine, so any drift
  means the estimation stack changed behaviour. Drift always fails
  (exit 1), even under ``--advisory``.
* **advisory** — wall-clock span totals are machine-dependent; deltas
  beyond the threshold (default: the baseline's ``wall_threshold_pct``)
  are reported. Under ``--advisory`` they only warn; without it a wall
  regression beyond threshold fails.

``--append`` records the fresh measurements as a new entry in the
baseline's ``trajectory`` list and rewrites the baseline file, keeping
the committed perf history growing. Speed claims are measured with
gdpbench and ``scripts/ab_gdpbench.py``, not with this gate.

Usage:
  python3 scripts/bench_gate.py --metrics results/gate.metrics.json \
      --baseline BENCH_gate.json [--advisory] [--append] \
      [--label "PR 9"] [--wall-threshold 30]

Exit status: 0 = pass (possibly with warnings), 1 = regression,
2 = bad invocation / unreadable input.
"""

import argparse
import datetime
import json
import sys


def check_strict(baseline_counters, counters):
    """Exact-match every baseline counter; return a list of drift lines."""
    drifts = []
    for key in sorted(baseline_counters):
        want = baseline_counters[key]
        got = counters.get(key)
        if got is None:
            drifts.append(f"counter `{key}` missing (baseline {want})")
        elif got != want:
            drifts.append(f"counter `{key}` drifted: baseline {want}, got {got}")
    return drifts


def check_wall(reference, measured, threshold_pct):
    """Relative-delta check; returns (regressions, notes) line lists."""
    regressions, notes = [], []
    for key in sorted(reference):
        want = reference[key]
        got = measured.get(key)
        if got is None:
            notes.append(f"span `{key}` not measured this run (baseline {want:g})")
            continue
        if want <= 0:
            continue
        delta_pct = 100.0 * (got - want) / want
        line = f"span `{key}`: baseline {want:g}, got {got:g} ({delta_pct:+.1f}%)"
        if delta_pct > threshold_pct:
            regressions.append(line)
        elif delta_pct < -threshold_pct:
            notes.append(line + " — faster; consider refreshing the baseline")
        else:
            notes.append(line)
    return regressions, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--metrics", required=True, help="fresh --metrics-out snapshot")
    ap.add_argument("--baseline", required=True, help="committed BENCH_gate.json")
    ap.add_argument(
        "--advisory",
        action="store_true",
        help="wall-time regressions warn instead of failing (counters still strict)",
    )
    ap.add_argument("--append", action="store_true", help="append a trajectory entry")
    ap.add_argument("--label", default="", help="trajectory entry label")
    ap.add_argument(
        "--wall-threshold",
        type=float,
        default=None,
        help="wall-time delta threshold in percent (default: baseline wall_threshold_pct)",
    )
    args = ap.parse_args()

    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        with open(args.metrics, encoding="utf-8") as f:
            metrics = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read inputs: {e}", file=sys.stderr)
        return 2

    counters = metrics.get("counters", {})
    spans = {k: v.get("total_secs", 0.0) for k, v in metrics.get("spans", {}).items()}
    threshold = (
        args.wall_threshold
        if args.wall_threshold is not None
        else float(baseline.get("wall_threshold_pct", 25.0))
    )
    advisory = baseline.get("advisory", {})

    # --- strict: deterministic work counters -------------------------
    drifts = check_strict(baseline.get("strict_counters", {}), counters)
    for line in drifts:
        print(f"FAIL  {line}")
    extra = sorted(set(counters) - set(baseline.get("strict_counters", {})))
    if extra:
        print(f"NOTE  counters not in baseline (new instrumentation?): {', '.join(extra)}")
    if not drifts:
        n = len(baseline.get("strict_counters", {}))
        print(f"PASS  {n} deterministic counters match the baseline exactly")

    # --- advisory: wall-clock spans ----------------------------------
    wall_regressions, wall_notes = check_wall(advisory.get("spans", {}), spans, threshold)
    for line in wall_notes:
        print(f"OK    {line}")
    tag = "WARN" if args.advisory else "FAIL"
    for line in wall_regressions:
        print(f"{tag}  {line} > {threshold:g}% threshold")

    # --- trajectory --------------------------------------------------
    if args.append:
        entry = {
            "label": args.label or "unlabeled",
            "date": datetime.date.today().isoformat(),
            "spans_total_secs": {k: spans[k] for k in sorted(advisory.get("spans", {})) if k in spans},
            "counters_ok": not drifts,
        }
        baseline.setdefault("trajectory", []).append(entry)
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"NOTE  appended trajectory entry `{entry['label']}` to {args.baseline}")

    if drifts:
        print(f"bench_gate: FAIL — {len(drifts)} deterministic counter(s) drifted")
        return 1
    if wall_regressions and not args.advisory:
        print(f"bench_gate: FAIL — {len(wall_regressions)} wall-time regression(s)")
        return 1
    if wall_regressions:
        print(f"bench_gate: PASS with {len(wall_regressions)} advisory warning(s)")
    else:
        print("bench_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
