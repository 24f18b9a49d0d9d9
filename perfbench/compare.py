#!/usr/bin/env python3
"""Paired comparison of two builds on the certquic benchmark.

usage:
  python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--pairs 10]
      [--workloads census,corpus] [--first-seed 1000] [--json out.json]

BASE_DIR and CHANGE_DIR are checkouts of the parent commit and of the
change (each with its own perfbench/ and .bench_build/). For every
workload the two sides run --pairs times each with the same seed per
pair, alternating which side runs first. The end-to-end metrics,
their direction, their bounds and the length of a run come from
BENCHMARK.json in BASE_DIR.

For every (end-to-end metric, workload) the report gives each side's
median and quartiles, the pair wins, and one verdict:

  improved     the change wins at least 9 of 10 pairs (ties count for
               neither side) and the medians differ, in the better
               direction, by more than the parent's interquartile range;
  worse        the change's median is worse than the parent's by more
               than the bound, and either the run-to-run spread
               (interquartile range over median, the larger of the two
               sides) is within the bound or every change run is worse
               than every parent run; also, when the parent read the
               same value on every run (an exact metric such as
               ok_share), when any change run is worse than that value
               by more than the bound;
  unresolved   neither of those, and the spread exceeds the bound;
  within bound otherwise.

A change run that fails its output checks is recorded like any other
(its ok_share shows the failure). A run that ends without a result
counts as worse than every parent run on every metric. Either marks
the comparison failed: the report is printed and the exit code is 1.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return 0.0 if med == 0 else (q3 - q1) / abs(med)


def verdict(base, change, better, bound):
    """Judges paired runs of one metric; base[i] and change[i] share a seed.

    Returns (verdict, details dict).
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    gain = sign * (c_med - b_med)
    rel_change = 0.0 if b_med == 0 else gain / abs(b_med)
    spread = max(relative_spread(base), relative_spread(change))
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    all_worse = max(sign * c for c in change) < min(sign * b for b in base)
    exact = len(set(base)) == 1
    worst_change = min(sign * c for c in change) - sign * b_med
    worst_rel = 0.0 if b_med == 0 else worst_change / abs(b_med)

    if wins >= 0.9 * len(base) and gain > (b_q3 - b_q1) and gain > 0:
        result = "improved"
    elif rel_change < -bound and (spread <= bound or all_worse):
        result = "worse"
    elif exact and worst_rel < -bound:
        result = "worse"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "within bound"
    return result, {
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins, "losses": losses, "pairs": len(base),
        "relative_change": rel_change, "spread": spread, "bound": bound,
    }


def run_side(checkout, workload, seed, seconds):
    """One run; returns (metrics by name, problem or None).

    A run that fails its output checks still returns its metrics. A run
    that ends without a result returns no metrics.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        sys.stderr.write(done.stderr)
        return {}, (f"{checkout}: {' '.join(cmd)} exited {done.returncode} "
                    "without a result")
    problem = None
    if not result["correct"] or result["failed"]:
        problem = (f"{checkout}: {workload} seed {seed} failed its output "
                   f"checks ({result['failed']} of {result['attempted']} "
                   "units)")
    return {k: v["value"] for k, v in result["metrics"].items()}, problem


def judge(base_runs, change_runs, metric):
    """The verdict of one metric over paired runs (see the docstring)."""
    name = metric["name"]
    if any(name not in r for r in base_runs):
        return "unresolved", {"note": "a parent run gave no result"}
    if any(name not in r for r in change_runs):
        return "worse", {"note": "a change run gave no result"}
    return verdict([r[name] for r in base_runs],
                   [r[name] for r in change_runs],
                   metric["better"], metric["bound"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--json", help="also write the verdicts here")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("a comparison needs at least 10 pairs")

    spec = json.loads((Path(args.base) / "BENCHMARK.json").read_text())
    if (Path(args.change) / "BENCHMARK.json").read_text() != \
            (Path(args.base) / "BENCHMARK.json").read_text():
        print("warning: the two sides define the benchmark differently",
              file=sys.stderr)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]

    report = []
    problems = []
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                checkout = args.base if side == "base" else args.change
                metrics, problem = run_side(checkout, workload, seed, seconds)
                runs[side].append(metrics)
                if problem:
                    problems.append(problem)
                print(f"{workload} pair {i + 1}/{args.pairs} {side} done",
                      file=sys.stderr)
        for m in spec["end_to_end"]:
            result, details = judge(runs["base"], runs["change"], m)
            report.append({"workload": workload, "metric": m["name"],
                           "unit": m["unit"], "verdict": result, **details})

    def cell(q):
        if q is None:
            return "-"
        return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"

    print(f"{'workload':<12} {'metric':<20} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>6}  verdict")
    for r in report:
        wins = f"{r['wins']:>2}/{r['pairs']:<3}" if "wins" in r else "-"
        print(f"{r['workload']:<12} {r['metric']:<20} "
              f"{cell(r.get('base')):<36} {cell(r.get('change')):<36} "
              f"{wins:>6}  {r['verdict']}")
    for problem in problems:
        print(f"FAILED: {problem}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"failed": problems, "verdicts": report}, indent=2) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
