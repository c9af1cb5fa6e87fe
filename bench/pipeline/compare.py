#!/usr/bin/env python3
"""Compares two sets of pipeline-benchmark results under BENCHMARK.json.

Usage, from the repository root:

  python3 bench/pipeline/compare.py BASE NEW
  python3 bench/pipeline/compare.py --summarize RESULTS

BASE and NEW are result JSON files written by run.py, or directories of
them (untraced runs only). Runs flagged invalid (the generators fell
behind schedule) are counted and left out of the medians. For every
workload it first checks the runs themselves; each of these counts as a
regression:

  no valid runs   a side has no valid run of the workload
  incorrect       a run on either side failed its output checks
  failures rose   NEW's failed/attempted share is above BASE's

Then, for every end-to-end metric, it prints each side's median and
quartiles and one verdict:

  regression  NEW's median is worse than BASE's by more than the bound
  unresolved  a side's spread (quartile distance over median) exceeds
              the bound, and not every NEW run beats every BASE run
  better      as unresolved, but every NEW run beats every BASE run
  gain        NEW wins at least 9 in 10 of the runs paired by seed (ties
              count for neither) and the medians differ by more than
              BASE's quartile distance
  unchanged   none of the above

A workload whose failures rose gets no `better` or `gain`. Exit status 1
when anything regressed. --summarize prints, for one set, the medians and
quartiles per workload with the machine fingerprint: the form of the
entries under bench/pipeline/history/.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
PAIR_WIN_SHARE = 0.9


def load_results(paths):
    """Untraced result dicts from files and directories."""
    files = []
    for p in map(Path, paths):
        # Skips the Chrome trace files run.py writes beside the results.
        files += ([f for f in sorted(p.glob("*.json"))
                   if not f.name.startswith("trace_")]
                  if p.is_dir() else [p])
    results = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            r = json.load(fh)
        if "workload" in r and not r.get("trace", 0):
            results.append(r)
    return results


def is_valid(run):
    return run.get("valid", True)


def by_workload(results):
    out = {}
    for r in results:
        out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def better(a, b, direction):
    """True when value a reads better than value b."""
    return a > b if direction == "higher" else a < b


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(base_runs, new_runs, metric):
    """The verdict for one metric; runs are dicts seed -> value."""
    bound, direction = metric["bound"], metric["better"]
    base = list(base_runs.values())
    new = list(new_runs.values())
    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    worse = (new_med - base_med) / base_med if base_med else 0.0
    if direction == "higher":
        worse = -worse
    if spread(base) > bound or spread(new) > bound:
        if all(better(n, b, direction) for n in new for b in base):
            return "better"
        return "unresolved"
    if worse > bound:
        return "regression"
    seeds = sorted(set(base_runs) & set(new_runs))
    if seeds:
        pairs = [(base_runs[s], new_runs[s]) for s in seeds]
    else:
        pairs = list(zip(sorted(base), sorted(new)))
    wins = sum(1 for b, n in pairs if better(n, b, direction))
    q1, _, q3 = quartiles(base)
    if pairs and wins >= PAIR_WIN_SHARE * len(pairs) and \
            abs(new_med - base_med) > q3 - q1:
        return "gain"
    return "unchanged"


def metric_runs(runs, name):
    return {r["seed"]: r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]}


def run_checks(base, new, out):
    """Prints and counts the run-level regressions of one workload;
    returns (regressions, whether NEW's failures rose)."""
    regressions = 0
    for side, runs in (("base", base), ("new", new)):
        invalid = sum(1 for r in runs if not is_valid(r))
        if invalid:
            print(f"  {side}: {invalid} invalid runs left out", file=out)
        if invalid == len(runs):
            print(f"  {side}: no valid runs  regression", file=out)
            regressions += 1
        incorrect = sorted(r["seed"] for r in runs if not r["correct"])
        if incorrect:
            print(f"  {side}: runs of seeds {incorrect} failed their output "
                  "checks  regression", file=out)
            regressions += 1
    base_failed, new_failed = failed_share(base), failed_share(new)
    rose = new_failed > base_failed
    if rose:
        print(f"  failed share base {base_failed:.6g} new {new_failed:.6g}  "
              "failures rose  regression", file=out)
        regressions += 1
    return regressions, rose


def compare(spec, base_results, new_results, out=sys.stdout):
    """Prints the comparison; returns the number of regressions."""
    base, new = by_workload(base_results), by_workload(new_results)
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        print(f"{workload} (base {len(b_runs)} runs, new {len(n_runs)} runs)",
              file=out)
        found, rose = run_checks(b_runs, n_runs, out)
        regressions += found
        b_valid = [r for r in b_runs if is_valid(r)]
        n_valid = [r for r in n_runs if is_valid(r)]
        if not b_valid or not n_valid:
            continue
        for metric in spec["end_to_end"]:
            b = metric_runs(b_valid, metric["name"])
            n = metric_runs(n_valid, metric["name"])
            if not b or not n:
                continue
            v = verdict(b, n, metric)
            if rose and v in ("better", "gain"):
                v = "unchanged"
            regressions += v == "regression"
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print(f"  {metric['name']:14s} base {bq[1]:.6g} [{bq[0]:.6g}, "
                  f"{bq[2]:.6g}]  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
                  f"  {change:+.2%}  bound {metric['bound']:.0%}  {v}",
                  file=out)
    return regressions


def summarize(spec, results):
    """Medians and quartiles per workload and metric over the valid runs,
    with the fingerprint of the runs (fields that differ between runs
    dropped)."""
    results = [r for r in results if is_valid(r)]
    fingerprint = None
    for r in results:
        fp = {k: v for k, v in r.get("fingerprint", {}).items()
              if k != "seed"}
        fingerprint = fp if fingerprint is None else {
            k: v for k, v in fingerprint.items() if fp.get(k) == v}
    workloads = {}
    for workload, runs in by_workload(results).items():
        entry = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs)}
        for metric in spec["end_to_end"]:
            values = list(metric_runs(runs, metric["name"]).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            entry[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                     "unit": metric["unit"]}
        workloads[workload] = entry
    return {"fingerprint": fingerprint or {}, "workloads": workloads}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="BASE NEW, or one set")
    parser.add_argument("--summarize", action="store_true")
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    if args.summarize:
        print(json.dumps(summarize(spec, load_results(args.sets)), indent=1))
        return 0
    if len(args.sets) != 2:
        parser.error("give BASE and NEW")
    regressions = compare(spec, load_results([args.sets[0]]),
                          load_results([args.sets[1]]))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
