#!/usr/bin/env python3
"""Paired, interleaved A/B rounds of two gdpbench binaries.

Runs ``A --workload W --seed S --seconds T`` and the same for ``B`` once
per pair, where ``T`` is ``run_seconds`` from the repository's
``BENCHMARK.json``. Each pair takes a fresh seed (``--seed-base``,
``--seed-base`` + 1, ...), and the side that runs first alternates, so
that host drift over the session lands on both sides alike. Each run
starts in a fresh temporary working directory (gdpbench writes
``results/bench`` relative to it) that is removed afterwards.

For every end-to-end metric in ``BENCHMARK.json`` it prints each pair's
values and B/A ratio, each side's median and quartiles, the median
paired ratio, how many pairs B wins (ties count for neither), and the
verdict of the repository's rule for a gain: B wins at least nine
tenths of the pairs, and B's median beats A's by more than the distance
between A's quartiles.

Usage:
  python3 scripts/ab_gdpbench.py A_BIN B_BIN --workload campaign_warm \\
      [--pairs 10] [--seed-base 5000]

Both binary paths may be relative: they are resolved against the
current directory before the first run.

Exit status: 0 = every run produced a result, 2 = bad invocation (for
instance a binary path that is not an executable file) or a run without
a result line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark_spec():
    """The run length and the (name, better) of each end-to-end metric
    that BENCHMARK.json declares."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["run_seconds"], [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(binary, workload, seed, seconds):
    """One gdpbench run in a temporary directory; its parsed result line."""
    work = tempfile.mkdtemp(prefix="ab-gdpbench-")
    try:
        cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{binary} exited {proc.returncode} without a result line")
    result = json.loads(lines[-1])
    return {
        "correct": result.get("correct"),
        "failed": result.get("failed"),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(xs):
    """(q1, median, q3) with inclusive quantiles (exact for n < 4)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v):
    if v is None:
        return "-"
    a = abs(v)
    if a >= 1e6:
        return f"{v / 1e6:.3f}M"
    if a >= 100:
        return f"{v:.1f}"
    return f"{v:.4g}"


def report(pairs, metrics):
    out = []
    for name, better in metrics:
        rows = [(p, p["a"]["metrics"].get(name), p["b"]["metrics"].get(name)) for p in pairs]
        rows = [(p, a, b) for p, a, b in rows if a is not None and b is not None]
        if not rows:
            continue
        out.append(f"\n{name} ({better} is better)")
        out.append(f"  {'pair':>4} {'seed':>6} {'first':>5} {'A':>10} {'B':>10} {'B/A':>7}  winner")
        wins = ties = 0
        ratios = []
        for p, a, b in rows:
            ratio = b / a if a else float("nan")
            ratios.append(ratio)
            if a == b:
                ties += 1
                winner = "tie"
            elif (b > a) == (better == "higher"):
                wins += 1
                winner = "B"
            else:
                winner = "A"
            out.append(
                f"  {p['pair']:>4} {p['seed']:>6} {p['first']:>5} "
                f"{fmt(a):>10} {fmt(b):>10} {ratio:>7.3f}  {winner}"
            )
        a_vals = [a for _, a, _ in rows]
        b_vals = [b for _, _, b in rows]
        qa, qb = quartiles(a_vals), quartiles(b_vals)
        out.append(f"  A median {fmt(qa[1])} (quartiles {fmt(qa[0])} .. {fmt(qa[2])})")
        out.append(f"  B median {fmt(qb[1])} (quartiles {fmt(qb[0])} .. {fmt(qb[2])})")
        out.append(
            f"  median B/A {statistics.median(ratios):.3f}; B wins {wins} of {len(rows)}"
            f" pairs ({ties} ties)"
        )
        gap = qb[1] - qa[1] if better == "higher" else qa[1] - qb[1]
        spread = qa[2] - qa[0]
        met = wins * 10 >= 9 * len(rows) and gap > spread
        out.append(
            f"  gain rule: B better by {fmt(gap)} against A's quartile spread {fmt(spread)};"
            f" {'MET' if met else 'NOT MET'}"
        )
    failed = [(p["pair"], side) for p in pairs for side in "ab" if p[side]["failed"]]
    wrong = [(p["pair"], side) for p in pairs for side in "ab" if p[side]["correct"] is False]
    out.append(f"\nruns with failed operations: {failed or 'none'}; incorrect runs: {wrong or 'none'}")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="baseline gdpbench binary (A)")
    ap.add_argument("b", help="candidate gdpbench binary (B)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=5000)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    # Each run starts in its own temporary directory, so a relative path
    # must be resolved here, against the directory the script ran from.
    args.a, args.b = os.path.abspath(args.a), os.path.abspath(args.b)
    for binary in (args.a, args.b):
        if not (os.path.isfile(binary) and os.access(binary, os.X_OK)):
            print(f"ab_gdpbench: {binary} is not an executable file", file=sys.stderr)
            return 2
    seconds, metrics = benchmark_spec()

    pairs = []
    print(f"A = {args.a}\nB = {args.b}")
    print(f"workload {args.workload}, {args.pairs} pairs of {seconds:g} s runs")
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        res = {}
        try:
            for side in order:
                binary = args.a if side == "a" else args.b
                res[side] = run_once(binary, args.workload, seed, seconds)
        except RuntimeError as e:
            print(f"ab_gdpbench: {e}", file=sys.stderr)
            return 2
        pair = {"pair": i + 1, "seed": seed, "first": order[0].upper(), **res}
        pairs.append(pair)
        ratios = ", ".join(
            f"{m} {res['b']['metrics'][m] / res['a']['metrics'][m]:.3f}"
            for m, _ in metrics
            if res["a"]["metrics"].get(m) and m in res["b"]["metrics"]
        )
        print(f"  pair {i + 1}: seed {seed}, {order[0].upper()} first; B/A {ratios}", flush=True)
    print(report(pairs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
