#!/usr/bin/env python3
"""Summarize or compare end-to-end benchmark runs.

    compare.py DIR                 median and quartiles of every run in DIR
    compare.py PARENT_DIR CHANGE_DIR [--claim=METRIC@WORKLOAD]

A run is one result_<workload>.json written by run.sh; DIR is searched
recursively, and traced runs are skipped. Metric directions and bounds
come from BENCHMARK.json at the repository root.

Comparing pairs the two sides' runs of a workload by seed; a seed run on
one side only is left out, and a seed run twice on one side is an error.
Both sides must have run with the same --seconds. Then the rules of a
gain claim apply, over the paired runs:
  * the claim needs >= 10 pairs, a change win in >= 9/10 of them (ties
    count for neither side), and a median gap wider than the parent's own
    interquartile range;
  * every other (metric, workload) pair must have a change median no worse
    than the parent median by more than the metric's bound. Where the
    parent's interquartile range is wider than the bound the pair is
    "unresolved", unless every change run beats every parent run.
Prints one row per workload. Exits 1 on a regression, an unmet claim or
runs that cannot be compared.
"""
import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_results(directory):
    """Untraced, non-smoke result files, ordered by (workload, seed, path)."""
    found = []
    for path in sorted(pathlib.Path(directory).rglob("result_*.json")):
        run = json.loads(path.read_text())
        if not (run.get("traced") or run.get("smoke")):
            found.append((run["workload"], run["seed"], str(path), run))
    return [run for *_, run in sorted(found, key=lambda r: r[:3])]


def values(run):
    return {k: v["value"] for k, v in run["metrics"].items()}


def load_runs(directory):
    """{workload: [{metric: value} per run]}, runs ordered by seed."""
    runs = {}
    for run in load_results(directory):
        runs.setdefault(run["workload"], []).append(values(run))
    return runs


def load_by_seed(directory):
    """({workload: {seed: {metric: value}}}, set of --seconds values)."""
    runs, seconds = {}, set()
    for run in load_results(directory):
        by_seed = runs.setdefault(run["workload"], {})
        if run["seed"] in by_seed:
            sys.exit(f"{directory}: {run['workload']} seed {run['seed']} "
                     "was run twice; pairs are matched by seed")
        by_seed[run["seed"]] = values(run)
        seconds.add(run["seconds"])
    return runs, seconds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(directory, metrics):
    results = load_results(directory)
    runs = load_runs(directory)
    out = {"host": results[0]["host"] if results else None,
           "seeds": sorted({r["seed"] for r in results}),
           "seconds": sorted({r["seconds"] for r in results}),
           "workloads": {}}
    for workload, rows in sorted(runs.items()):
        out["workloads"][workload] = {}
        for m in metrics:
            values = [r[m["name"]] for r in rows if m["name"] in r]
            if not values:
                continue
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            out["workloads"][workload][m["name"]] = {
                "runs": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
    return out


def better(metric, a, b):
    """+1 if a beats b, -1 if b beats a, 0 on a tie."""
    if a == b:
        return 0
    lower = metric["better"] == "lower"
    return 1 if (a < b) == lower else -1


def compare(parent_dir, change_dir, metrics, claim):
    parent, p_seconds = load_by_seed(parent_dir)
    change, c_seconds = load_by_seed(change_dir)
    if len(p_seconds | c_seconds) > 1:
        print(f"runs of different lengths: parent --seconds "
              f"{sorted(p_seconds)}, change {sorted(c_seconds)}")
        return False
    ok = True
    claim_seen = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        cells = []
        unpaired = sorted(set(p_runs) ^ set(c_runs))
        if unpaired:
            cells.append(f"unpaired seeds {unpaired} left out")
        for m in metrics:
            name = m["name"]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds
                     if name in p_runs[s] and name in c_runs[s]]
            if not pairs:
                cells.append(f"{name}=missing")
                ok = False
                continue
            pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
            p_med, c_med = statistics.median(pv), statistics.median(cv)
            q1, q3 = quartiles(pv)
            change_pct = (c_med - p_med) / p_med * 100 if p_med else 0.0
            if claim == (name, workload):
                claim_seen = True
                wins = sum(1 for a, b in pairs if better(m, b, a) > 0)
                met = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                       and better(m, c_med, p_med) > 0
                       and abs(c_med - p_med) > q3 - q1)
                ok &= met
                cells.append(f"{name}=CLAIM {'MET' if met else 'NOT MET'} "
                             f"({wins}/{len(pairs)} wins, {change_pct:+.1f}%)")
                continue
            worse = -better(m, c_med, p_med) > 0
            regressed = worse and abs(c_med - p_med) > m["bound"] * abs(p_med)
            spread = (q3 - q1) / abs(p_med) if p_med else 0.0
            if spread > m["bound"] and not all(
                    better(m, c, p) > 0 for c in cv for p in pv):
                status = "unresolved"
            elif regressed:
                status = "REGRESSED"
                ok = False
            else:
                status = "ok"
            cells.append(f"{name}={status} ({change_pct:+.1f}%)")
        print(f"{workload}: " + "  ".join(cells))
    if claim and not claim_seen:
        print(f"claim {claim[0]}@{claim[1]}: no such metric and workload")
        ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+", metavar="DIR")
    ap.add_argument("--claim", help="METRIC@WORKLOAD the change claims")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    if len(args.dirs) == 1:
        print(json.dumps(summarize(args.dirs[0], metrics), indent=2))
        return 0
    if len(args.dirs) != 2:
        ap.error("give one directory to summarize or two to compare")
    claim = None
    if args.claim:
        name, _, workload = args.claim.partition("@")
        claim = (name, workload)
    return 0 if compare(args.dirs[0], args.dirs[1], metrics, claim) else 1


if __name__ == "__main__":
    sys.exit(main())
