#!/usr/bin/env python3
"""Build dmcs and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Both release builds go to
$CARGO_TARGET_DIR (default `.bench_build`); the workload's generated
inputs, daemon logs and result file go under
`<target>/perfbench-work/`. Build output goes to stderr; stdout carries
the benchmark's report, whose last line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_cold", "serve_hot", "serve_churn", "batch_offline")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, names in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def stamp():
    commit = run_quiet(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    fields = {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": run_quiet(["rustc", "-V"]),
        "commit": commit or None,
        "source_sha256": source_digest(),
        "profile": "release (lto=thin, codegen-units=1)",
    }
    return json.dumps(fields, separators=(",", ":"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for needed in ("Cargo.toml", "crates/engine", "perfbench/Cargo.toml"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a dmcs checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "dmcs"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))

    work = os.path.join(
        target, "perfbench-work", f"{args.workload}-s{args.seed}-t{args.trace}"
    )
    # Unix socket paths are limited to ~108 bytes; keep them relative.
    if os.path.isabs(work):
        work = os.path.relpath(work)
    bench = os.path.join(target, "release", "dmcs-perfbench")
    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--dmcs", os.path.join(target, "release", "dmcs"),
        "--work", work,
        "--stamp", stamp(),
    ]
    sys.stdout.flush()
    rc = subprocess.run(cmd).returncode
    if rc != 0:
        fail(f"benchmark exited with {rc}")


if __name__ == "__main__":
    main()
