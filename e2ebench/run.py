#!/usr/bin/env python3
"""End-to-end OP2-vs-CA benchmark of op2ca.

Builds the e2ebench driver (Release) from the checkout's own sources, then
runs one workload and passes its output through. The last line printed is
the result JSON: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload mgcfd-synth --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout, and so does the --trace 1 Chrome trace.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mgcfd-synth", "hydra-rk", "mgcfd-threads")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once and (re)builds; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "e2e_bench"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: the op2ca sources (src/) are not next to the "
                 "benchmark; run it from the root of a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    try:
        exe = build(os.path.join(build_root, "e2ebench"))
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"e2ebench: build failed: {e}")

    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--chains-cfg={os.path.join(HERE, 'hydra_chains.cfg')}"]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(
            build_root, f"trace-{args.workload}-seed{args.seed}.json"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"e2ebench: driver exited with code {proc.returncode}")


if __name__ == "__main__":
    main()
