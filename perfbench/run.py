#!/usr/bin/env python3
"""Build the perfbench benchmark from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload nell-ms1 --seed 1 --seconds 20 --trace 0

The Go build, its cache and the run's scratch files all live under
.bench_build/ at the repository root. The last line of standard output is
the result object; everything the build prints goes to standard error. The
exit code is the build's when it fails, else the benchmark's.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """SHA-256 over every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
    )
    for d in ("gocache", "gomodcache", "tmp", "work"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode)
    args = sys.argv[1:] + [
        "--workdir", os.path.join(BUILD, "work"),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    sys.exit(subprocess.run([binary] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
