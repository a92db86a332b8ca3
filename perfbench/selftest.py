#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Builds and runs perfbench_test, the unit tests of the metric code
   (warm-up exclusion, the ten-samples-beyond rule for percentiles,
   failure counting, the hop ledger and its never-negative residual).
2. Runs the command of BENCHMARK.json briefly on every workload, untraced
   and traced, and checks that the last line is a result object naming
   exactly the end-to-end (untraced) or per-layer (traced) metrics of
   BENCHMARK.json, with their units, and that the run checked out.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    spec = json.load(open("BENCHMARK.json"))
    bdir = run.build_dir()
    run.build(bdir)
    r = subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_test"],
                       stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench_test did not build (is GTest installed?)")
    if subprocess.run([os.path.join(bdir, "perfbench_test")]).returncode != 0:
        sys.exit("metric unit tests failed")

    failures = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", wl["name"], "--seed", "7",
                                     "--seconds", "6", "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            tag = f"{wl['name']} --trace {trace}"
            if out.returncode != 0:
                failures.append(f"{tag}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("attempted", 0) < 1:
                failures.append(f"{tag}: correct={res.get('correct')} "
                                f"attempted={res.get('attempted')}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            print(f"ok   {tag}: {len(got)} metrics", flush=True)
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
