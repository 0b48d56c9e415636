#!/usr/bin/env python3
"""End-to-end benchmark of the TiMR reproduction.

Run from the repository root:

    python3 e2ebench/run.py --workload bt_week --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

Builds e2ebench/ (the repository's libraries plus the benchmark program) into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench, then runs one
workload. The program's last line on stdout is the JSON result; build logs and
diagnostics go to stderr. Outputs (traces, checkpoint spill directories) go
under .bench_out/. See e2ebench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("bt_week", "suite_skewed", "bt_procs_resume")


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"),
        "e2ebench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "timr_e2e"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "timr_e2e")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no TiMR sources under {root}/src; run from a repository checkout")
    binary = build(root)

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(root, ".bench_out")]
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
