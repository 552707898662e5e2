#!/usr/bin/env python3
"""One command for the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the harness (perfbench/ntperf.cpp
plus the src/ tree) with CMake into $CARGO_TARGET_DIR (default .bench_build),
runs one workload, checks its outputs, prints every metric by name with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the traced program instead and reports the per-layer metrics, including the
tracing overhead (traced minus untraced wall time of the same simulations).
`attempted`/`failed` count output checks: commit-prefix agreement, lane
digest agreement and token conservation, DST invariants, and pass-to-pass
determinism. A failed check exits non-zero. Every result is also written,
with the host fingerprint, to <build dir>/results/.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["common_tusk_n10", "dst_window", "quorum_edge_hs_n7", "sharded_bullshark_n4"]

# Simulation seeds per traced run: the first seeds of the untraced run's list
# (the traced program runs about twice as slow).
TRACE_SEEDS = {
    "common_tusk_n10": 2,
    "dst_window": 16,
    "quorum_edge_hs_n7": 6,
    "sharded_bullshark_n4": 2,
}

END_TO_END = [
    ("tps", "tx/s"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

HARNESS_TIMEOUT_S = 170
CLOSURE_LIMIT = 0.01


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds both harness programs."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "ntperf", "ntperf_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def harness(exe, args):
    """Runs one harness invocation; returns its JSON (last stdout line)."""
    proc = subprocess.run([exe] + args, capture_output=True, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{os.path.basename(exe)} printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def cpu_info():
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, flags


def source_digest(root):
    """SHA-256 over the benchmarked sources (the checkout may have no .git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(root, build_dir):
    model, flags = cpu_info()
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True, text=True)
                    compiler = out.stdout.splitlines()[0] if out.stdout else path
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    rev = "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except OSError:
        pass
    return {
        "cpu": model,
        "sha_ni": "sha_ni" in flags,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": build_type,
        "git_rev": rev,
        "source_sha256": source_digest(root),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("run.py: no src/ tree here; run from the repository root")
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, build_dir)
    plain = os.path.join(build_dir, "ntperf")
    traced = os.path.join(build_dir, "ntperf_traced")
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace == 0:
        r = harness(plain, base + ["--seconds", str(args.seconds)])
        values = {
            "tps": r["tps"],
            "latency_p50_s": r["latency_p50_s"],
            "latency_p99_s": r["latency_p99_s"],
            "wall_s": statistics.median(r["wall_s"]),
            "setup_s": statistics.median(r["setup_s"]),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        k = ["--passes", "1", "--seeds", str(TRACE_SEEDS[args.workload])]
        untraced = harness(plain, base + k + ["--ladder", "0"])
        r = harness(traced, base + k)
        layers = dict(r["layers"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced["wall_s"][0]
        layers["runtime.failed_frac"] = r["failed_tx"] / max(1, r["attempted_tx"])
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in per_layer}
        r["checks"] += untraced["checks"] + 1
        r["failed_checks"] += untraced["failed_checks"]
        # Closure: per-layer self times plus the unattributed root must add up
        # to the traced wall time.
        if layers["trace.closure_err"] > CLOSURE_LIMIT:
            log(f"run.py: CHECK FAILED [closure]: error {layers['trace.closure_err']:.3g}")
            r["failed_checks"] += 1

    host = fingerprint(root, build_dir)
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} passes={r['passes']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"  latency samples: {r['latency_samples']}")
        attempted, failed = r["attempted_tx"], r["failed_tx"]
        print(f"  failed_frac: {failed / max(1, attempted):.6g} "
              f"({failed} of {attempted} tracked transactions uncommitted at the end)")
        if r["ladder"]:
            limit, tol = r["latency_limit_s"], r["tps_tolerance"]
            best = max([s["rate"] for s in r["ladder"] if s["meets"]], default=0)
            print(f"  rate ladder (p99 <= {limit:g} s and tps >= {1 - tol:.0%} of offered):")
            for s in r["ladder"]:
                print(f"    offered {s['rate']:>9.0f}  tps {s['tps']:>11.1f}  p50 {s['p50']:7.3f} s"
                      f"  p99 {s['p99']:7.3f} s  samples {s['samples']:>7}"
                      f"  {'meets' if s['meets'] else 'misses'}")
            print(f"  max_tps_slo: {best:.0f} tx/s")
    print(f"  checks: {r['checks']} attempted, {r['failed_checks']} failed")

    result = {
        "correct": r["failed_checks"] == 0,
        "attempted": r["checks"],
        "failed": r["failed_checks"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    out = os.path.join(build_dir, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"host": host, "harness": r, "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
