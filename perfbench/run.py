#!/usr/bin/env python3
"""PicoEval end-to-end benchmark entry point (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload walk-lru --seed 1 --seconds 20 --trace 0
      one run; the last line of stdout is the result JSON
  python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
      one run of every workload in BENCHMARK.json, one after the other
  python3 perfbench/run.py --workload walk-lru --repeat 10 [--seconds S]
      steadiness report: K runs with seeds 1..K, then the median,
      quartiles and (Q3-Q1)/median of every end-to-end metric
  python3 perfbench/run.py --check-jobs
      walk-lru digests at jobs 1 and jobs 4 must be identical

Other flags (--smoke, --write-golden) are passed to perfbench_driver.

The first call configures and builds the library, the server and the
driver from source into the build directory (.bench_build, or
$CARGO_TARGET_DIR when set); later calls only rebuild what changed.
Exits 2 without a result when the sources or the build are missing.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build; returns the build directory."""
    for needed in ("src/CMakeLists.txt", "examples/picoeval_server.cpp"):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail("PicoEval sources not found (%s); run from a full "
                 "checkout" % needed)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "perfbench_driver", "picoeval_server"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (log_path, tail))
    return build_dir


def driver_command(build_dir, args, extra):
    # The output directory stays relative: the server's Unix socket
    # lives in it, and a socket path must fit in 108 bytes however deep
    # the checkout is.
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--server", os.path.join(build_dir, "picoeval_server"),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--out-dir", ".bench_out"]
    if args.workload:
        cmd += ["--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    return cmd + extra


def run_driver(cmd, echo=True):
    """Run the driver in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds the driver and any server it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S, 3)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out


def spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(build_dir, args, extra):
    """K runs on seeds 1..K; spread of every end-to-end metric."""
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    values = {}
    for seed in range(1, args.repeat + 1):
        args.seed = seed
        start = time.time()
        code, out = run_driver(driver_command(build_dir, args, extra),
                               echo=False)
        if code != 0:
            fail("run with seed %d exited %d" % (seed, code), 1)
        result = json.loads(out.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %.1f s, %d attempted, %d failed" % (
            seed, time.time() - start, result["attempted"],
            result["failed"]), file=sys.stderr)
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median "
          "| bound | spread < bound/3 |")
    print("|---|---|---|---|---|---|---|---|")
    for name in sorted(values):
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        ok = "yes" if bound is not None and spread < bound / 3 else "no"
        print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s | %s |" % (
            args.workload, name, med, q1, q3, spread, bound, ok))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args, extra = parser.parse_known_args()
    if args.repeat == 0 and not args.workload and "--check-jobs" not in extra:
        parser.error("--workload is required")
    build_dir = build()
    if args.repeat:
        steadiness(build_dir, args, extra)
        return 0
    if args.workload == "all":
        code = 0
        for workload in spec()["workloads"]:
            args.workload = workload["name"]
            status, _ = run_driver(driver_command(build_dir, args, extra))
            code = code or status
        return code
    code, _ = run_driver(driver_command(build_dir, args, extra))
    return code


if __name__ == "__main__":
    sys.exit(main())
