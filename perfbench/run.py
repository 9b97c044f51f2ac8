#!/usr/bin/env python3
"""Build and run the nvmsim benchmark.

    python3 perfbench/run.py --workload sweep-dwarfs|whatif-replay|serve-mixed \
        --seed N --seconds S --trace 0|1 [--list-inputs]

Run from the repository root (any directory works; paths are resolved
from this file).  The first call configures and builds perfbench and the
library sources it needs, Release, under $CARGO_TARGET_DIR (default
.bench_build) in perfbench/; later calls only rebuild what changed.  The
benchmark's stdout is passed through: its last line is the JSON result.
The traced run (--trace 1) also writes its spans to
<build>/traces/<workload>-<seed>.json.  Exits non-zero, without a result
line, when the build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep-dwarfs", "whatif-replay", "serve-mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--list-inputs", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(bdir, "run")
    traces = os.path.join(bdir, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    # The daemon's unix socket lives in `work`; a relative path keeps it
    # under the 108-byte socket path limit.
    rel = os.path.relpath(work, ROOT)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--commit", commit_id(),
           "--work-dir", rel if len(rel) < len(work) else work,
           "--trace-out",
           os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    if args.list_inputs:
        cmd.append("--list-inputs")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if r.returncode != 0:
        print("perfbench: exited with %d" % r.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(r.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
