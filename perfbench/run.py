#!/usr/bin/env python3
"""DFENCE benchmark: wall time to a verified fence set.

Run from the root of a dfence checkout:

    python3 perfbench/run.py --workload table3|fuzz|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds the dfence libraries, the `dfence`
binary and the driver into .bench_build (CMake, RelWithDebInfo); later
runs only check the build is current. The driver (perfbench/driver.cpp,
perfbench/serve_load.cpp) prints raw samples; this script turns them
into metrics and prints, as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). perfbench/README.md defines each metric on
each workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
WORKLOADS = ("table3", "fuzz", "serve")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build(jobs):
    """Configures on first use, then brings the build up to date."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no dfence sources here; run from the root of a checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode != 0:
            fail("cmake configure failed:\n" + r.stderr[-4000:])
    r = subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs),
                        "--target", "perfbench_driver", "dfence"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stderr[-4000:])


def tail(values):
    """The highest percentile that still has at least ten samples beyond
    it: (value, percentile, sample count)."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    rank = max(1, n - 10)
    return s[rank - 1], 100.0 * rank / n, n


def hist_tail(h):
    """tail() for a daemon histogram exported with bucket counts."""
    n = h.get("count", 0)
    if n == 0:
        return 0.0
    rank = max(1, n - 10)
    cum = 0
    for b in h.get("buckets", []):
        cum += b["count"]
        if cum >= rank:
            return h["max"] if b["le"] == "+inf" else b["le"]
    return h.get("max", 0.0)


def e2e_batch(d, notes):
    # Each problem's reading is its synthesis CPU time (driver.cpp); the
    # problems run one after another, so a pass costs their sum.
    verdict = d["verdict_ms"]
    v_tail, v_pct, v_n = tail(verdict)
    notes.append("passes %d, cpu %s s, wall %s s" % (
        len(d["pass_cpu_s"]), ["%.3f" % c for c in d["pass_cpu_s"]],
        ["%.3f" % w for w in d["pass_wall_s"]]))
    notes.append("verdict tail p%.1f of %d problems" % (v_pct, v_n))
    return {
        "cpu_s": sum(verdict) / 1000,
        "verdict_p50_ms": statistics.median(verdict),
        "verdict_tail_ms": v_tail,
    }


def e2e_serve(d, notes):
    verdict = d["verdict_ms"]
    v_tail, v_pct, v_n = tail(verdict)
    notes.append("episodes %d, daemon cpu %s s" % (
        d["episodes"], ["%.3f" % c for c in d["cpu_s"]]))
    notes.append("request tail p%.1f of %d requests" % (v_pct, v_n))
    notes.append("repeat share %.3f; cache full after %d requests; "
                 "oracle re-verified %d fenced modules, %d failed" %
                 (d["repeat_share"], d["cache_fill_requests"],
                  d["oracle_checked"], d["oracle_failed"]))
    return {
        "cpu_s": statistics.median(d["cpu_s"]),
        "verdict_p50_ms": statistics.median(verdict),
        "verdict_tail_ms": v_tail,
    }


def layers_serve(d):
    """Serve per-layer values: counts from the daemon's registry and
    stats op; SAT, span and probe times from the mix run in-process."""
    L = dict(d["layers"])
    m = d.get("daemon_metrics", {})
    c, g, h = m.get("counters", {}), m.get("gauges", {}), \
        m.get("histograms", {})
    execs = c.get("synth_executions_total", 0)
    L["vm.steps"] = c.get("vm_steps_total", 0)
    wall = g.get("exec_pool_wall_us", 0)
    L["exec.busy_ratio"] = g.get("exec_pool_busy_us", 0) / wall if wall else 0
    L["exec.queue_wait_p50_us"] = \
        h.get("exec_pool_queue_wait_us", {}).get("p50", 0)
    L["synth.rounds"] = c.get("synth_rounds_total", 0)
    L["synth.executions"] = execs
    L["synth.violating"] = c.get("synth_violations_total", 0)
    L["harness.discarded"] = c.get("harness_discarded_total", 0)
    L["harness.retries"] = c.get("harness_retries_total", 0)
    L["harness.discarded_share"] = \
        L["harness.discarded"] / execs if execs else 0
    L["harness.retries_share"] = L["harness.retries"] / execs if execs else 0
    cache = d["stats"].get("cache", {})
    look = cache.get("lookups", 0)
    L["cache.hit_ratio"] = cache.get("hits", 0) / look if look else 0
    L["cache.rejected_full"] = cache.get("rejectedFull", 0)
    L["cache.shard_waits"] = d["stats"].get("shardWaits", 0)
    L["cache.fill_requests"] = d["cache_fill_requests"]
    qw = h.get("serve_queue_wait_us", {})
    L["serve.queue_wait_p50_ms"] = qw.get("p50", 0) / 1000
    L["serve.queue_wait_tail_ms"] = hist_tail(qw) / 1000
    L["serve.run_ms"] = h.get("serve_run_us_ok", {}).get("p50", 0) / 1000
    L["serve.shed"] = d["stats"].get("shed", 0)
    L["serve.repeat_share"] = d["repeat_share"]
    L["serve.latency_p50_ms"] = statistics.median(d["latency_ms"])
    L["serve.latency_tail_ms"] = tail(d["latency_ms"])[0]
    L["wall_s"] = sum(d["latency_ms"]) / 1000
    return L


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = load_spec()
    build(os.cpu_count() or 1)
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--dfence", os.path.join(BUILD, "dfence_tools", "dfence"),
           "--run-dir", run_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if r.returncode != 0 or not r.stdout.strip():
        fail("driver exited with %d" % r.returncode)
    d = json.loads(r.stdout.strip().splitlines()[-1])

    notes = []
    if a.workload == "serve":
        values = e2e_serve(d, notes)
    else:
        values = e2e_batch(d, notes)
    values["fences_total"] = d["fences_total"]
    values["ok_share"] = 1 - d["failed"] / d["attempted"]
    values["setup_s"] = statistics.median(d["setup_s"])
    values["peak_rss_mb"] = d["peak_rss_mb"]
    failed = d.get("failed_names", [])
    notes += ["failed: " + name for name in failed[:20]]
    if len(failed) > 20:
        notes.append("failed: ... and %d more" % (len(failed) - 20))

    if a.trace:
        L = layers_serve(d) if a.workload == "serve" else dict(d["layers"])
        wanted = spec["per_layer"]
    else:
        L = values
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": L.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    for e in d["errors"]:
        notes.append("ERROR: " + e)
    for n in notes:
        print("# " + n)
    print(json.dumps({"correct": not d["errors"],
                      "attempted": d["attempted"],
                      "failed": d["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
