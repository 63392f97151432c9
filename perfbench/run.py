#!/usr/bin/env python3
"""Builds and runs the Balsa end-to-end benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (and the src/ libraries it links) into .bench_build/perfbench, or
into $CARGO_TARGET_DIR/perfbench when that variable is set; later calls only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. --record FILE also appends that result,
tagged with its workload, seed and trace flag, to FILE for compare.py.

Exits non-zero when the build fails, a correctness check fails, or the run
does not finish in time.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_drift", "learn")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "balsa_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "balsa_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="prove each correctness check rejects a fault")
    parser.add_argument("--record", metavar="FILE",
                        help="append the tagged JSON result to FILE")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    if args.selftest:
        command = [binary, "--selftest"]
    else:
        command = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write((err.stdout or b"").decode(errors="replace"))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    out = proc.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 0 and args.record and not args.selftest:
        result = json.loads(out.strip().splitlines()[-1])
        result.update(workload=args.workload, seed=args.seed,
                      trace=args.trace)
        with open(args.record, "a") as f:
            f.write(json.dumps(result) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
