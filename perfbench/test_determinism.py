#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/test_determinism.py

Run from the repository root. For every workload it runs the harness twice
as separate processes with one seed (a shortened seed list) and requires
identical simulated metrics and identical Scheduler::event_hash() values for
every simulation. Exits 0 when all workloads agree.
"""
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SIMULATED = ["tps", "latency_p50_s", "latency_p99_s", "latency_samples", "attempted_tx",
             "failed_tx", "event_hashes"]


def main():
    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    run.build(root, build_dir)
    exe = os.path.join(build_dir, "ntperf")
    failures = 0
    for workload in run.WORKLOADS:
        args = ["--workload", workload, "--seed", "3", "--passes", "1", "--seeds", "2",
                "--ladder", "0"]
        first, second = run.harness(exe, args), run.harness(exe, args)
        diff = [k for k in SIMULATED if first[k] != second[k]]
        status = "ok" if not diff and first["failed_checks"] == 0 else "FAIL"
        failures += status != "ok"
        print(f"{workload:24s} {status}  hashes={len(first['event_hashes'])}"
              + (f"  differs: {', '.join(diff)}" if diff else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
