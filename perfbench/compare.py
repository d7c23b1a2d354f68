#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Collect alternating pairs (the side that runs first flips every pair):

    python3 perfbench/compare.py pairs PARENT_DIR CHANGE_DIR \
        --workload table3 --runs 10 --out results.jsonl

PARENT_DIR and CHANGE_DIR are checkouts of the two commits; pair i runs
`python3 perfbench/run.py --seed i` inside each of them for the
run_seconds of BENCHMARK.json. Then report:

    python3 perfbench/compare.py report results.jsonl

For every workload and end-to-end metric it prints each side's median
and quartiles, the share of pairs the change wins (ties count for
neither side) and a verdict against the bounds in BENCHMARK.json:

    incorrect   a run of the change reported "correct": false, so its
                timings are not judged;
    improved    the change wins >= 90% of pairs and the medians differ by
                more than the parent's own quartile spread;
    no worse    the change's median is within the bound of the parent's,
                and the parent's spread is within the bound;
    regressed   the change's median is worse than the bound allows;
    unresolved  anything else (e.g. spread wider than the bound).

`summary results.jsonl --side parent` prints medians and quartiles per
workload and metric as JSON (the form of perfbench/baseline.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(checkout, workload, seed):
    r = subprocess.run([sys.executable, "perfbench/run.py",
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(spec()["run_seconds"]),
                        "--trace", "0"],
                       cwd=checkout, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise SystemExit("run failed in %s (seed %d)" % (checkout, seed))
    return json.loads(r.stdout.strip().splitlines()[-1])


def cmd_pairs(a):
    with open(a.out, "a") as out:
        for seed in range(1, a.runs + 1):
            sides = [("parent", a.parent), ("change", a.change)]
            if seed % 2 == 0:
                sides.reverse()
            for order, (side, checkout) in enumerate(sides):
                res = run_one(checkout, a.workload, seed)
                out.write(json.dumps({"workload": a.workload, "seed": seed,
                                      "side": side, "order": order,
                                      "correct": res["correct"],
                                      "result": res}) + "\n")
                out.flush()
                print("%s seed %d %s done" % (a.workload, seed, side),
                      file=sys.stderr)


def load(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def summarize(rows, side):
    out = {}
    for r in rows:
        if r["side"] != side:
            continue
        w = out.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            w.setdefault(name, []).append(m["value"])
    return {w: {name: dict(zip(("q1", "median", "q3"), quartiles(v)),
                           runs=len(v))
                for name, v in ms.items()}
            for w, ms in out.items()}


def verdict(metric, parent, change, wins, pairs):
    """Classifies one (workload, metric) comparison."""
    lower = metric["better"] == "lower"
    bound = metric.get("bound", 0.0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    better = cm < pm if lower else cm > pm
    if pairs and wins >= 0.9 * pairs and better and abs(cm - pm) > p3 - p1:
        return "improved"
    if worse_by > bound:
        return "regressed"
    all_better = all((c < p) if lower else (c > p)
                     for c in change for p in parent)
    if spread <= bound or all_better:
        return "no worse"
    return "unresolved"


def cmd_report(a):
    rows = load(a.results)
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    by = {}
    for r in rows:
        by.setdefault(r["workload"], {}).setdefault(
            r["seed"], {})[r["side"]] = r["result"]
    print("%-8s %-22s %26s %26s %6s  %s" %
          ("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
           "wins", "verdict"))
    for w, seeds in sorted(by.items()):
        paired = [s for s in seeds.values()
                  if "parent" in s and "change" in s]
        failed = {side: sum(s[side]["failed"] for s in paired)
                  for side in ("parent", "change")}
        incorrect = {side: sum(1 for s in paired if not s[side]["correct"])
                     for side in ("parent", "change")}
        for name, m in metrics.items():
            par = [s["parent"]["metrics"][name]["value"] for s in paired]
            chg = [s["change"]["metrics"][name]["value"] for s in paired]
            if not par:
                continue
            lower = m["better"] == "lower"
            wins = sum(1 for p, c in zip(par, chg)
                       if (c < p if lower else c > p))
            if incorrect["change"]:
                v = "incorrect (%d change runs)" % incorrect["change"]
            else:
                v = verdict(m, par, chg, wins, len(par))
                if v == "improved" and failed["change"] > failed["parent"]:
                    v = "unresolved (more failures)"
            print("%-8s %-22s %26s %26s %3d/%-2d  %s" % (
                w, name, "%.4g/%.4g/%.4g" % quartiles(par),
                "%.4g/%.4g/%.4g" % quartiles(chg), wins, len(par), v))
        if incorrect["parent"]:
            print("%-8s %d parent runs reported correct: false" %
                  (w, incorrect["parent"]))
        if len(paired) < 10:
            print("%-8s (only %d pairs; a claim needs at least 10)" %
                  (w, len(paired)))


def cmd_summary(a):
    print(json.dumps(summarize(load(a.results), a.side), indent=1,
                     sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="collect alternating pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pairs)
    r = sub.add_parser("report", help="medians, wins and verdicts")
    r.add_argument("results")
    r.set_defaults(fn=cmd_report)
    s = sub.add_parser("summary", help="medians and quartiles as JSON")
    s.add_argument("results")
    s.add_argument("--side", default="parent")
    s.set_defaults(fn=cmd_summary)
    a = ap.parse_args()
    a.fn(a)


if __name__ == "__main__":
    main()
