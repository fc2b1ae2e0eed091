#!/usr/bin/env python3
"""End-to-end benchmark of librock (bench/e2e/README.md).

Builds bench_e2e from source, runs each workload in its own process, checks
the outputs and prints every metric by name with its unit.

  python3 bench/e2e/run.py [--seed N] [--runs R] [--seconds S] [--trace]
                           [--out FILE]
      all five workloads, R times each; writes the JSON that --compare reads
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      one workload; the last stdout line is the result object whose metrics
      BENCHMARK.json names (end_to_end untraced, per_layer traced)
  python3 bench/e2e/run.py --compare PARENT.json CHANGE.json
      per workload and metric: both sides' median and quartiles, the bound
      and a verdict (within, worse, better or unresolved)

Exit status: 0 when every operation succeeded and every output matched its
reference (with --compare: when no metric got worse); 1 otherwise; 2 for a
usage error, or a checkout without the librock sources to build from.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("batch_dense", "batch_label", "mushroom", "serve_open",
             "stream_append")
BATCH = ("batch_dense", "batch_label")
# A drop of one step down the serve rate ladder (×1/√2) is within bound.
ONE_RUNG = 1 - 1 / math.sqrt(2) + 1e-9

# The end-to-end metrics: name -> (better, bound, workloads). The bound is
# the share of the parent's median by which the change's median may be
# worse; None marks a metric that is printed but not gated.
METRICS = {
    "setup_s": ("lower", 0.25, WORKLOADS),
    "pipeline_s": ("lower", 0.10, BATCH),
    "cluster_s": ("lower", 0.10, ("mushroom",)),
    "misclassified_rows": ("lower", 0.0, BATCH + ("mushroom",)),
    "serve_qps": ("higher", 0.10, ("serve_open",)),
    "serve_p50_us": ("lower", 0.10, ("serve_open",)),
    "serve_max_qps": ("higher", ONE_RUNG, ("serve_open",)),
    "serve_p99_us": ("lower", None, ("serve_open",)),
    "serve_p999_us": ("lower", None, ("serve_open",)),
    "append_p50_ms": ("lower", 0.10, ("stream_append",)),
    "append_p95_ms": ("lower", 0.10, ("stream_append",)),
    "append_rows_per_s": ("higher", 0.10, ("stream_append",)),
    "peak_rss_mb": ("lower", 0.10, WORKLOADS),
    "failed_frac": ("lower", 0.0, WORKLOADS),
}
# Workloads whose trace must leave at most this share of wall unaccounted.
UNACCOUNTED_LIMIT = 0.05
UNACCOUNTED_GATED = BATCH + ("mushroom",)
WORKLOAD_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the bench package; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no librock sources at", os.path.join(ROOT, "src"),
            "- nothing to build the benchmark from")
        sys.exit(2)
    out = os.path.join(build_dir, "e2e")
    # Compiler and benchmark temporaries stay inside the build directory.
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", "bench_e2e", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "bench_e2e")


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "e2e", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(binary, build_dir, name, seed, seconds, trace):
    """Runs one workload process; returns its result object."""
    cmd = [binary, f"--workload={name}", f"--seed={seed}",
           f"--seconds={seconds}",
           f"--work-dir={os.path.join(build_dir, 'e2e', 'work')}"]
    if trace:
        traces = os.path.join(build_dir, "e2e", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace-out={os.path.join(traces, name + '.trace.json')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} did not finish in {WORKLOAD_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: {name} exited {proc.returncode} without a result")
        return None
    result["exit_code"] = proc.returncode
    return result


def ok(result):
    return (result is not None and result["exit_code"] == 0
            and result["failed"] == 0 and result["attempted"] > 0)


def summarize(samples):
    """Median, quartiles and count of a metric's samples."""
    median = statistics.median(samples)
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def workload_mode(args, binary, build_dir):
    """One workload; prints the result object BENCHMARK.json describes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = run_workload(binary, build_dir, args.workload, args.seed,
                          args.seconds, args.trace)
    if result is None:
        return 1
    source = result["layers" if args.trace else "metrics"]
    metrics = {}
    for m in wanted:
        value = source.get(m["name"], {}).get("value")
        if value is None:
            log(f"run.py: {args.workload} reported no {m['name']}")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = ok(result) and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def suite_mode(args, binary, build_dir):
    """All workloads, --runs times each: prints every metric and writes the
    JSON that --compare reads. A metric's samples are the reps of all runs,
    so its quartiles also show how much the host drifted between runs."""
    seeds = [args.seed + i for i in range(args.runs)]
    report = {"env": {"seeds": seeds, "seconds": args.seconds,
                      "trace": bool(args.trace), "git_commit": git_commit(),
                      "nproc": os.cpu_count(),
                      "build_type": build_type(build_dir), "threads": {}},
              "workloads": {}}
    all_ok = True
    # Cycling through the workloads spreads the host's drift over all five.
    for seed in seeds:
        for name in WORKLOADS:
            log(f"run.py: {name} (seed {seed}, {args.seconds} s"
                f"{', traced' if args.trace else ''})")
            result = run_workload(binary, build_dir, name, seed,
                                  args.seconds, args.trace)
            if result is None:
                all_ok = False
                continue
            all_ok = all_ok and ok(result)
            params = result["params"]
            report["env"]["threads"][name] = {
                "threads": int(params["threads"]),
                "serve_workers": int(params["serve_workers"])}
            entry = report["workloads"].setdefault(name, {
                "params": params, "attempted": 0, "failed": 0,
                "failures": [], "digests": {}, "metrics": {}, "layers": {}})
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["failures"] += result["failures"]
            for key, digest in result["digests"].items():
                entry["digests"][f"{key}@{seed}"] = digest
            for metric, (better, bound, workloads) in METRICS.items():
                if name in workloads and metric in result["metrics"]:
                    m = result["metrics"][metric]
                    entry["metrics"].setdefault(metric, {
                        "unit": m["unit"], "better": better, "bound": bound,
                        "samples": []})["samples"] += m["samples"]
            for metric, m in result["layers"].items():
                entry["layers"].setdefault(metric, {
                    "unit": m["unit"], "values": []})["values"].append(
                        m["value"])

    for name, entry in report["workloads"].items():
        for m in entry["metrics"].values():
            m.update(summarize(m["samples"]))
        for m in entry["layers"].values():
            m["value"] = statistics.median(m["values"])
        print_workload(name, entry, args.trace)

    out = args.out or os.path.join(build_dir, "e2e", "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nresults written to {out}")
    if not all_ok:
        print("FAILED: an operation failed or an output differed from its "
              "reference (see above)")
    return 0 if all_ok else 1


def print_workload(name, entry, traced):
    digests = " ".join(f"{k}={v}" for k, v in entry["digests"].items())
    print(f"\n== {name}: attempted {entry['attempted']}, failed "
          f"{entry['failed']}  {digests}")
    for failure in entry["failures"]:
        print(f"   FAILED: {failure}")
    print(f"   {'metric':<20} {'unit':<10} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>4} {'bound':>7}")
    for metric, m in entry["metrics"].items():
        bound = "-" if m["bound"] is None else f"{m['bound']:.3g}"
        print(f"   {metric:<20} {m['unit']:<10} {fmt(m['median']):>12} "
              f"{fmt(m['q1']):>12} {fmt(m['q3']):>12} {m['n']:>4} "
              f"{bound:>7}")
    if traced:
        print(f"   {'layer metric':<36} {'unit':<8} {'value':>12}")
        for metric, m in entry["layers"].items():
            print(f"   {metric:<36} {m['unit']:<8} {fmt(m['value']):>12}")
        unaccounted = entry["layers"].get("trace.unaccounted_frac", {})
        if (name in UNACCOUNTED_GATED
                and unaccounted.get("value", 1.0) > UNACCOUNTED_LIMIT):
            print(f"   NOTE: trace.unaccounted_frac above "
                  f"{UNACCOUNTED_LIMIT:.0%}")


def verdict(parent, change, better, bound):
    """within / worse / better / unresolved for one metric of one workload."""
    if bound is None:
        return "info"
    sign = 1 if better == "lower" else -1
    base = abs(parent["median"])
    delta = sign * (change["median"] - parent["median"])
    if bound == 0:
        return "worse" if delta > 0 else "better" if delta < 0 else "within"
    if base == 0:
        return "within" if delta == 0 else "worse" if delta > 0 else "better"
    if (parent["q3"] - parent["q1"]) / base > bound:
        # The parent's own spread hides a change this size, unless every
        # change sample beats every parent sample.
        if all(sign * (c - p) < 0 for c in change["samples"]
               for p in parent["samples"]):
            return "better"
        return "unresolved"
    rel = delta / base
    return "worse" if rel > bound else "better" if rel < -bound else "within"


def compare_mode(parent_path, change_path):
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    if set(parent["workloads"]) != set(change["workloads"]):
        log("run.py: the two files hold different workloads; not comparing")
        return 2
    for name, entry in parent["workloads"].items():
        if entry["params"] != change["workloads"][name]["params"]:
            log(f"run.py: {name} ran with different parameters; not "
                "comparing:\n  ", entry["params"], "\n  ",
                change["workloads"][name]["params"])
            return 2
    print(f"parent {parent_path} ({parent['env']['git_commit']}, seeds "
          f"{parent['env']['seeds']}) vs change {change_path} "
          f"({change['env']['git_commit']}, seeds {change['env']['seeds']})")
    print(f"{'workload':<14} {'metric':<20} {'unit':<10} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'bound':>6}  verdict")
    worse = 0
    for name, entry in parent["workloads"].items():
        for metric, p in entry["metrics"].items():
            c = change["workloads"][name]["metrics"].get(metric)
            if c is None:
                continue
            v = verdict(p, c, p["better"], p["bound"])
            worse += v == "worse"
            bound = "-" if p["bound"] is None else f"{p['bound']:.3g}"
            side = [f"{fmt(s['median'])} [{fmt(s['q1'])}, {fmt(s['q3'])}]"
                    for s in (p, c)]
            print(f"{name:<14} {metric:<20} {p['unit']:<10} {side[0]:>34} "
                  f"{side[1]:>34} {bound:>6}  {v}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; print its BENCHMARK.json result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--build-dir", default=os.path.join(ROOT,
                                                            ".bench_build"),
                        help="the package builds into BUILD_DIR/e2e")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite mode: runs of every workload, with seeds "
                             "SEED .. SEED+RUNS-1")
    parser.add_argument("--out", help="suite mode: results JSON path")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        return compare_mode(*args.compare)
    if args.seconds < 0 or args.runs < 1:
        parser.error("--seconds must be >= 0 and --runs >= 1")
    build_dir = os.path.abspath(args.build_dir)
    binary = build(build_dir)
    if args.workload:
        return workload_mode(args, binary, build_dir)
    return suite_mode(args, binary, build_dir)


if __name__ == "__main__":
    sys.exit(main())
