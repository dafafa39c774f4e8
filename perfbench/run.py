#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload compartments|fleet_paged|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark package (the simulator libraries, the ringsimd daemon and the
measuring program) into $CARGO_TARGET_DIR, or .bench_build when unset;
later runs only check the build is current. The workload runs in its own
process and prints one JSON result line as the last line of stdout, and
the exit code is 0 when every output was correct. A run whose outputs were
checked and found wrong still prints its result line (correct false, the
wrong ones counted in failed) and exits with 5. A run that could not be
measured at all exits non-zero without a result line: 3 for a determinism
break, 4 for a failed set-up or reference check. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import signal
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("compartments", "fleet_paged", "serve_mixed")
RUN_TIMEOUT_S = 170
WRONG_OUTPUT_EXIT = 5


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the measuring program and the daemon."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("configuring the benchmark failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", build_dir, "-j", jobs, "--target",
                            "perfbench_measure", "ringsimd"], stdout=sys.stderr) != 0:
            fail("building the benchmark failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(os.path.join(build_dir, "perfbench"))
    workdir = os.path.join(build_dir, "perfbench-run")
    os.makedirs(workdir, exist_ok=True)
    bin_dir = os.path.join(build_dir, "perfbench")
    command = [os.path.join(bin_dir, "perfbench_measure"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir,
               "--ringsimd", os.path.join(bin_dir, "ringsimd")]
    # Its own process group, so a timeout also stops the daemon it started.
    measure = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = measure.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(measure.pid, signal.SIGKILL)
        measure.wait()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if measure.returncode != 0:
        fail("%s exited with code %d" % (args.workload, measure.returncode),
             measure.returncode if measure.returncode > 0 else 1)

    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line from the measuring program")
    for name in expected_metrics(args.trace):
        if name not in result["metrics"]:
            if not args.trace:
                fail("end-to-end metric %s missing from the result" % name)
            print("perfbench: per-layer metric %s not reported" % name, file=sys.stderr)
    print(json.dumps(result))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: %d of %d operations gave wrong outputs" %
             (args.workload, result["failed"], result["attempted"]), WRONG_OUTPUT_EXIT)


if __name__ == "__main__":
    main()
