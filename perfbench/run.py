#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark binary, isr_perfbench, with CMake (Release) into
$CARGO_TARGET_DIR when set, else .bench_build. Build output goes to stderr.
isr_perfbench's standard output passes through; its last line is the JSON
result. The exit code is isr_perfbench's (nonzero on a wrong output), or 1
when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    """Runs a build step; on failure its output goes to stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    for target in targets:
        if not run_quiet(["cmake", "--build", out, "-j", BUILD_JOBS, "--target", target]):
            return None
    return out


def pinned_env():
    """The workload is defined by the benchmark alone: drop the library's
    ISR_* overrides and OpenMP settings a caller's shell may carry."""
    return {k: v for k, v in os.environ.items() if not k.startswith(("ISR_", "OMP_"))}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="advise_cold, advise_hot, advise_recal or calibrate")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    out = build(["isr_perfbench", "perfbench_selftest"] if args.selftest else ["isr_perfbench"])
    if out is None:
        return 1

    if args.selftest:
        tests = subprocess.run([os.path.join(out, "perfbench_selftest")], env=pinned_env())
        if tests.returncode != 0:
            return tests.returncode
        # A corrupted reference line must fail the run.
        corrupted = subprocess.run(
            [os.path.join(out, "isr_perfbench"), "--workload", "advise_hot", "--seed", "1",
             "--seconds", "0.2", "--trace", "0", "--corrupt-reference"],
            stdout=subprocess.DEVNULL, env=pinned_env())
        ok = corrupted.returncode != 0
        print("%s  a corrupted reference line fails the run" % ("ok  " if ok else "FAIL"))
        return 0 if ok else 1

    cmd = [os.path.join(out, "isr_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, env=pinned_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
