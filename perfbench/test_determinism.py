#!/usr/bin/env python3
"""Determinism self-check of the statdb benchmark.

Run from the root of a statdb checkout:

    python3 perfbench/test_determinism.py

For each single-client workload it makes two traced runs with the same
seed and a fixed op count, and requires identical work counters: buffer
pool fetches and evictions, device block reads and writes, WAL records
and bytes, maintainer applies, flight-recorder events and the rest of
what the benchmark reads from the modules' public stats. A third run with
another seed must change the generated inputs. Exits non-zero on the
first difference.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build helper)

WORKLOADS = ["explore_scan", "summary_hits", "update_stream"]
OPS = "40"
OUT = os.path.join(run.ROOT, ".bench_build", "determinism")


def counters(workload, seed, tag):
    path = os.path.join(OUT, "%s-%d-%s.json" % (workload, seed, tag))
    subprocess.run([run.BINARY, "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", "1", "--ops", OPS,
                    "--out-dir", OUT, "--counters-out", path],
                   check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        return json.load(f)


def main():
    if run.build() != 0:
        print("build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    failures = 0
    for w in WORKLOADS:
        first = counters(w, 7, "a")
        second = counters(w, 7, "b")
        other = counters(w, 8, "c")
        diff = sorted(k for k in set(first) | set(second)
                      if first.get(k) != second.get(k))
        if diff:
            failures += 1
            for k in diff:
                print("FAIL %s seed 7: %s differs: %s vs %s"
                      % (w, k, first.get(k), second.get(k)))
        if first["input_fingerprint"] == other["input_fingerprint"]:
            failures += 1
            print("FAIL %s: seeds 7 and 8 generated the same inputs" % w)
        if not diff and first["input_fingerprint"] != other["input_fingerprint"]:
            print("ok   %s: %d counters repeat; a new seed changes the inputs"
                  % (w, len(first) - 1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
