#!/usr/bin/env python3
"""Build the simulator from source and run one host-time benchmark workload.

    python3 hostbench/run.py --workload serve_cnn --seed 1 --seconds 10 --trace 0

Configures and builds hostbench/ (which compiles the repository's src/ tree)
into .bench_build/ at the repository root, then runs the `hostbench` binary
with the same arguments.  Build output goes to stderr; the binary's output
goes to stdout, ending with one JSON result line.  Exit status is the
binary's (0 ok, 1 a correctness check failed, 2 usage or run error), or 2
when the sources are missing or the build fails, or 3 on a timeout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hostbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        print("hostbench: simulator sources not found under "
              + os.path.join(ROOT, "src"), file=sys.stderr)
        return False
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD, "--target",
                            "hostbench", "-j", "4"],
                           stdout=sys.stderr, env=env) == 0


def main(argv):
    if not build():
        return 2
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    sys.stdout.flush()
    try:
        return subprocess.run([BINARY] + argv, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hostbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
