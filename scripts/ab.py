#!/usr/bin/env python3
"""A/B the end-to-end benchmark between two commits.

    python3 scripts/ab.py BASE CHANGE [--pairs 10] [--seconds 30]
                                      [--seed 1] [--workloads a,b]
                                      [--work DIR]

Exports each commit with `git archive` into its own directory under a
scratch directory (--work, or a fresh temporary one that is removed at
the end) and builds each one's e2e driver once, where e2ebench/run.py
looks for it. Each side then runs one warm-up run that is thrown away
(the first run after a build reads slow), and every workload runs
--pairs alternating pairs through that side's own e2ebench/run.py: pair
i runs BASE first when i is even and CHANGE first when it is odd.

For each workload and each end-to-end metric of BENCHMARK.json, prints
both medians with their quartiles, the median delta (positive = CHANGE
higher), the pairs CHANGE won (ties count for neither side), the base
IQR as a share of the base median, the bound, and a verdict:
  worse   CHANGE's median is worse than BASE's by more than the bound
  spread  BASE's IQR is wider than the bound, so the bound cannot be told
  gain    CHANGE won >= 9/10 of at least 10 pairs, and its median beats
          BASE's by more than the base IQR
  ok      none of these
Each workload also prints failed/attempted checks per side, and is marked
failed-share when CHANGE failed a larger share of its checks than BASE.
The last line is a JSON object with every run's values. Needs git,
cmake and a C++ toolchain; no network and no package beyond Python's
standard library.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("base", "change")


def export(rev, dest):
    """Writes the tree of `rev` (as committed) into `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def build(root, env):
    """Builds the e2e driver where e2ebench/run.py's default build goes."""
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", os.path.join(root, "e2ebench"), "-B",
                    build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "e2e_bench"], check=True, stdout=subprocess.DEVNULL,
                   env=env)


def run_once(root, env, workload, seed, seconds):
    """One benchmark run; returns its result JSON (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab: {workload} in {root} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(q):
    """`median [q1, q3]` of a (q1, median, q3) triple."""
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def failed_share_rises(failed, attempted):
    """True when CHANGE failed a larger share of its attempted checks."""
    share = {side: failed[side] / attempted[side] if attempted[side] else 0.0
             for side in SIDES}
    return share["change"] > share["base"]


def summarize(metric, runs):
    """Verdict row for one metric from the per-pair values of each side."""
    base, change = runs["base"], runs["change"]
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    higher_better = metric["better"] == "higher"
    wins = sum((c > b) if higher_better else (c < b)
               for b, c in zip(base, change))
    delta = (cmed - bmed) / bmed if bmed else 0.0
    worse_by = -delta if higher_better else delta
    iqr = (b3 - b1) / bmed if bmed else 0.0
    if worse_by > metric["bound"]:
        verdict = "worse"
    elif iqr > metric["bound"]:
        verdict = "spread"
    elif (len(base) >= 10 and wins >= 0.9 * len(base) and worse_by < 0 and
          abs(cmed - bmed) > b3 - b1):
        verdict = "gain"
    else:
        verdict = "ok"
    return {"metric": metric["name"], "base": [b1, bmed, b3],
            "change": [c1, cmed, c3], "delta": delta, "wins": wins,
            "pairs": len(base), "base_iqr": iqr, "bound": metric["bound"],
            "verdict": verdict}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: every workload)")
    ap.add_argument("--work", default=None,
                    help="scratch directory to create and keep")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ab: --pairs must be at least 1")

    revs = {side: subprocess.run(["git", "rev-parse", "--verify",
                                  rev + "^{commit}"], check=True,
                                 stdout=subprocess.PIPE,
                                 text=True).stdout.strip()
            for side, rev in zip(SIDES, (args.base, args.change))}
    work = args.work or tempfile.mkdtemp(prefix="op2ca-ab-")
    if args.work:
        os.makedirs(work)
    # run.py builds under $CARGO_TARGET_DIR when it is set; unset, it uses
    # the checkout's own .bench_build, where build() put the driver.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    try:
        roots = {side: os.path.join(work, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], roots[side])
            print(f"ab: building {side} {revs[side][:12]}", file=sys.stderr)
            build(roots[side], env)
        with open(os.path.join(roots["base"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        seconds = args.seconds or bench["run_seconds"]
        workloads = (args.workloads.split(",") if args.workloads else
                     [w["name"] for w in bench["workloads"]])

        for side in SIDES:
            run_once(roots[side], env, workloads[0], args.seed, seconds)

        report = {"revs": revs, "seed": args.seed, "seconds": seconds,
                  "workloads": {}}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            failed = {side: 0 for side in SIDES}
            attempted = {side: 0 for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(roots[side], env, workload, args.seed,
                                      seconds)
                    failed[side] += result["failed"]
                    attempted[side] += result["attempted"]
                    runs[side].append({k: v["value"]
                                       for k, v in result["metrics"].items()})
                print(f"ab: {workload} pair {i + 1}/{args.pairs}",
                      file=sys.stderr)
            rows = [summarize(m, {side: [r[m["name"]] for r in runs[side]]
                                  for side in SIDES})
                    for m in bench["end_to_end"]]
            share_rises = failed_share_rises(failed, attempted)
            print(f"\n{workload}: {args.pairs} pairs of {seconds} s, seed "
                  f"{args.seed}, failed/attempted checks base "
                  f"{failed['base']}/{attempted['base']} change "
                  f"{failed['change']}/{attempted['change']}"
                  + ("  failed-share" if share_rises else ""))
            print(f"  {'metric':<12} {'base median [q1, q3]':>30} "
                  f"{'change median [q1, q3]':>30} {'delta':>8} "
                  f"{'wins':>6} {'base IQR':>8} {'bound':>6}  verdict")
            for r in rows:
                print(f"  {r['metric']:<12} {spread(r['base']):>30} "
                      f"{spread(r['change']):>30} {r['delta']:>+8.1%} "
                      f"{r['wins']:>3}/{r['pairs']:<2} {r['base_iqr']:>8.1%}"
                      f" {r['bound']:>6.0%}  {r['verdict']}")
            report["workloads"][workload] = {
                "rows": rows, "runs": runs, "failed": failed,
                "attempted": attempted,
                "verdict": "failed-share" if share_rises else "ok"}
        print(json.dumps(report))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
