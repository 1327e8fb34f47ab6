#!/usr/bin/env python3
"""Aggregate every BENCH_*.json emitted by the bench binaries into one
results/bench_all.json snapshot.

The bench executables (bench_micro_kernels, bench_calibrate, ...) each
write standalone BENCH_<section>.json files into the directory they run
in. CI runs them in the repo root and then calls this script so the
uploaded artifact — and the checked-in results/bench_all.json — carries
one self-describing document instead of a loose file pile.

Usage:
    python3 scripts/collect_bench.py [--dir DIR] [--out FILE]
                                     [--expect a,b,...]

DIR defaults to the current directory, OUT to results/bench_all.json
under DIR. --expect names the sections that MUST be present (default:
the bench_micro_kernels set — hotpath, locality, tiling); a
missing or unparseable expected file exits non-zero so a CI run that
silently dropped a section fails instead of uploading a truncated
snapshot. Extra BENCH_*.json beyond the expected set (e.g.
BENCH_calibration.json from the MPI leg) are collected too. Exits
non-zero if no BENCH_*.json is found at all.
"""

import argparse
import glob
import json
import os
import sys

# The sections bench_micro_kernels always emits; a run that produced
# fewer than these is a failed run, not a smaller one.
DEFAULT_EXPECT = "hotpath,locality,tiling"


def collect(src_dir: str, expect: list) -> dict:
    sections = {}
    paths = sorted(glob.glob(os.path.join(src_dir, "BENCH_*.json")))
    found = {os.path.basename(p)[len("BENCH_"):-len(".json")]: p
             for p in paths}
    missing = [name for name in expect if name not in found]
    if missing:
        sys.exit("FAIL: expected BENCH_{%s}.json missing from %s"
                 % (",".join(missing), src_dir or "."))
    for path in paths:
        name = os.path.basename(path)
        # BENCH_hotpath.json -> "hotpath", BENCH_tiling.json -> "tiling", ...
        key = name[len("BENCH_"):-len(".json")]
        with open(path) as f:
            try:
                sections[key] = json.load(f)
            except json.JSONDecodeError as e:
                sys.exit(f"FAIL: {name} is not valid JSON: {e}")
    if not sections:
        sys.exit(f"FAIL: no BENCH_*.json found in {src_dir or '.'}")
    return {"sections": sections, "files": [os.path.basename(p) for p in paths]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default=".", help="directory holding BENCH_*.json")
    ap.add_argument("--out", default=None,
                    help="output path (default: <dir>/results/bench_all.json)")
    ap.add_argument("--expect", default=DEFAULT_EXPECT,
                    help="comma-separated section names that must be present"
                         " (empty string to accept whatever is found)")
    args = ap.parse_args()

    expect = [s for s in args.expect.split(",") if s]
    out = args.out or os.path.join(args.dir, "results", "bench_all.json")
    merged = collect(args.dir, expect)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"collected {len(merged['files'])} file(s) -> {out}: "
          + ", ".join(merged["files"]))


if __name__ == "__main__":
    main()
