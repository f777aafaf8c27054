#!/usr/bin/env python3
"""Builds and runs the u1sim benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
the library and the `u1bench` program under $CARGO_TARGET_DIR (default
`.bench_build`); later calls only rebuild what changed. Extra arguments
after the four above go to `u1bench` unchanged (scale overrides and test
hooks, e.g. `--users 300 --days 2`). The last line of stdout is the JSON
result; the exit status is u1bench's.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("month_generate", "month_generate_2p", "paper_replay",
             "u1d_closedloop")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds u1bench; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "u1bench",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "u1bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = ap.parse_known_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"u1sim sources not found under {root}/src; cannot build")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)  # unchanged when absolute
    try:
        binary = build(root, os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    scratch = os.path.join(target, "scratch",
                           f"{args.workload}-{os.getpid()}")
    spans = os.path.join(target, "spans",
                         f"{args.workload}-seed{args.seed}.jsonl")
    # Oracle SHA-1s are cached per build of u1bench: a rebuilt program
    # never reads an oracle an older build computed.
    with open(binary, "rb") as f:
        cache = os.path.join(target, "oracle",
                             hashlib.sha1(f.read()).hexdigest())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch, "--spans", spans, "--cache", cache] + extra
    # Own process group, so a timeout also stops the pass processes
    # u1bench forks.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"u1bench exceeded {RUN_TIMEOUT_S} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
