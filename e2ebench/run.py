#!/usr/bin/env python3
"""Runs one e2ebench workload from a tgsim checkout.

    python3 e2ebench/run.py --workload gen-paper-msg --seed 1 --seconds 30 --trace 0

Builds the tgsim libraries, the `tgsim` binary and the e2ebench driver from
this checkout (Release, under $CARGO_TARGET_DIR or .bench_build), runs the
workload, and prints the driver's `{"context": ...}` line followed, last, by
the result line {"correct", "attempted", "failed", "metrics"}. Exits non-zero
without a result line if the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("fit-paper-dblp", "gen-paper-msg", "serve-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A workload run must finish within 180 s (the build before it is exempt).
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(os.path.join(ROOT, target))
    # Relative paths keep the daemon's Unix socket path short.
    rel = os.path.relpath(target, ROOT)
    return target if rel.startswith("..") else rel


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "e2ebench",
                 "tgsim", "--parallel", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))


def commit_id():
    """The git commit, or a hash of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--reads-per-update", type=int,
                        help="serve-mixed pacing; 0 runs the writer unpaced")
    parser.add_argument("--inject-fault", choices=("drop-edge", "flip-byte"),
                        help="corrupt one checked output (tests only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("e2ebench: --seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    target = build_root()
    build_dir = os.path.join(target, "e2ebench")
    build(build_dir)
    workdir = os.path.join(target, "e2ebench-run", args.workload)
    os.makedirs(workdir, exist_ok=True)

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tgsim", os.path.join(build_dir, "tgsim", "tools", "tgsim"),
           "--workdir", workdir, "--commit", commit_id()]
    if args.toy:
        cmd.append("--toy")
    if args.reads_per_update is not None:
        cmd += ["--reads-per-update", str(args.reads_per_update)]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    # A session of its own, so a timeout also stops the serve daemon.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        while True:  # Wait until the daemon, if any, is gone as well.
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("e2ebench: driver exited with %d" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
