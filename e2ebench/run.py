#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds e2ebench/ (the
repository's libraries plus the driver, Release) into .bench_build/e2ebench
on first use, then runs one workload. The last line of standard output is
the JSON result; the exit status is non-zero when the build, the run or the
output check fails.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("quantize_aptq", "chat_shared_prefix", "batch_decode", "tp2_http")
RUN_TIMEOUT_S = 175

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD_DIR / "e2ebench"


def build():
    """Configure and build; on an up-to-date tree both steps are no-ops
    that take well under a second. A lock keeps concurrent runs from
    racing on the build tree."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "e2ebench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       check=True, stdout=sys.stderr)


def git_sha():
    # Only this checkout's own metadata: git would otherwise search the
    # parent directories and could report an enclosing repository.
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    env = dict(os.environ, E2E_GIT_SHA=git_sha(),
               E2E_SOURCE_DIGEST=source_digest())
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    print(f"e2ebench: {args.workload} seed {args.seed} finished in "
          f"{time.monotonic() - start:.1f} s (exit {proc.returncode})",
          file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
