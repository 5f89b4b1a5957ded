#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. It compiles the o2pc libraries from
src/ together with the benchmark program in this directory into
.bench_build/perfbench (Release), prints the host record, then runs the
program, whose last line of output is the result as one JSON object. See
perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "o2pc_perfbench")


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no o2pc sources at %s/src; run from a full checkout" % ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: the result must stay the last line of
        # standard output.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(step))


def host_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
        git = sha.stdout.strip() if sha.returncode == 0 else "none"
    except OSError:
        git = "none"
    print("host: nproc=%d cpu=%s git=%s" % (os.cpu_count() or 0, cpu, git),
          flush=True)


def main():
    build()
    host_record()
    done = subprocess.run([BINARY] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
