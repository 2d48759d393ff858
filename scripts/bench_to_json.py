#!/usr/bin/env python3
"""Distill `cargo bench` output (the vendored criterion shim) into a
committed BENCH_*.json so a perf trajectory exists across PRs.

The shim prints one line per benchmark:

    store_snapshot_rebuild/one_dirty_shard_n50000: median 15.706 us (10 samples x 1712 iters)

This script runs a bench target (or reads the lines from stdin), parses
those lines, normalizes every median to seconds, and — for the
`store_snapshot_rebuild` group — derives the headline ratios the store
claims at each graph size: how many times faster a one-edge copy-forward
rebuild (`one_dirty_shard`) is than compiling the same graph's CSR from
its edge list (`full_rebuild`), and how the 16-edge batch (`all_dirty`)
compares to compiling its graph from scratch (`full_rebuild_batch`).
For the `cache_insert_full` group it derives `evicting_insert_over_hit`:
an insert into the full 1024-entry response cache (which evicts the
least recently used entry) over one cache hit.

For `bench_batch` runs it additionally derives the locality/planning
ratios (renumbered vs identity layout per-query FPA, planned batch vs
the reference session, session memo on vs off) under
`derived.locality_and_planning`, and the mirror-serving ratios
(mirror-served vs canonical sessions per layout, pooled-bitset vs
fresh-bytemask validation BFS, skew-aware plan vs the reference
session) under `derived.mirror_and_skew`.

Every file carries a `host` object saying where it was measured: the
usable CPU count, the CPU model, `rustc -V` and the git commit (with a
`-dirty` suffix when the working tree had uncommitted changes).

Usage:
    python3 scripts/bench_to_json.py --out BENCH_7.json
    cargo bench -q -p dmcs-engine --bench bench_store | \
        python3 scripts/bench_to_json.py --stdin --out BENCH_7.json
    cargo bench -q -p dmcs-engine --bench bench_batch | \
        python3 scripts/bench_to_json.py --stdin --out BENCH_9.json
    python3 scripts/bench_to_json.py --package dmcs-bench --bench bench_pruning --out BENCH_22.json
    python3 scripts/bench_to_json.py --package dmcs-engine --bench bench_weighted --out BENCH_23.json
    python3 scripts/bench_to_json.py --package dmcs-bench --bench bench_pruning --out BENCH_24.json
    python3 scripts/bench_to_json.py --package dmcs-engine --bench bench_store --out BENCH_25.json

No dependencies beyond the standard library.
"""

import argparse
import json
import os
import re
import subprocess
import sys

LINE = re.compile(
    r"^(?P<group>[^/\s]+)/(?P<name>\S+): median (?P<val>[0-9.]+) (?P<unit>ns|us|ms|s) "
    r"\((?P<samples>\d+) samples x (?P<iters>\d+) iters\)$"
)

TO_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def run_quiet(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host():
    """The host stamp: where and from what source the figures came."""
    commit = run_quiet(["git", "describe", "--always", "--dirty", "--abbrev=40"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": run_quiet(["rustc", "-V"]) or None,
        "commit": commit or None,
    }


def parse(lines):
    results = []
    for line in lines:
        m = LINE.match(line.strip())
        if not m:
            continue
        results.append(
            {
                "group": m["group"],
                "name": m["name"],
                "median_seconds": float(m["val"]) * TO_SECONDS[m["unit"]],
                "samples": int(m["samples"]),
                "iters_per_sample": int(m["iters"]),
            }
        )
    return results


def derive_rebuild_ratios(results):
    """full_rebuild / one_dirty_shard and all_dirty / full_rebuild_batch per n."""
    rebuild = {
        r["name"]: r["median_seconds"]
        for r in results
        if r["group"] == "store_snapshot_rebuild"
    }
    sizes = sorted(
        {
            int(m["n"])
            for name in rebuild
            for m in [re.search(r"_n(?P<n>\d+)$", name)]
            if m
        }
    )
    derived = []
    for n in sizes:
        full = rebuild.get(f"full_rebuild_n{n}")
        one = rebuild.get(f"one_dirty_shard_n{n}")
        all_dirty = rebuild.get(f"all_dirty_n{n}")
        # The all-dirty comparison baseline is the 16-edge batch's graph
        # compiled from scratch (falling back to the single-toggle full
        # rebuild if the batch baseline is absent).
        full_batch = rebuild.get(f"full_rebuild_batch_n{n}", full)
        if not (full and one and all_dirty):
            continue
        derived.append(
            {
                "n": n,
                "full_over_one_dirty_shard": round(full / one, 2),
                "all_dirty_over_full_batch": round(all_dirty / full_batch, 3),
            }
        )
    return derived


def derive_cache_ratio(results):
    """evicting_insert / hit of the full response cache (`bench_store`)."""
    cache = {
        r["name"]: r["median_seconds"]
        for r in results
        if r["group"] == "cache_insert_full"
    }
    ratio = _ratio(cache, "evicting_insert", "hit")
    return None if ratio is None else {"evicting_insert_over_hit": ratio}


def _ratio(times, baseline, contender):
    """baseline/contender rounded, or None if either is missing."""
    base, cont = times.get(baseline), times.get(contender)
    if not (base and cont):
        return None
    return round(base / cont, 3)


def derive_locality_ratios(results):
    """Headline ratios of the locality/planning benches (`bench_batch`).

    - ``layout_fpa``: identity-layout per-query FPA time over the bfs
      compute mirror (>1 means the renumbering is faster) on the
      scrambled fragmented-50k graph.
    - ``batch_sched``: the reference session's wall-clock (``plan_off``:
      one canonical session, no memo, answering the batch in submission
      order) over the planned variants — ``plan_auto`` isolates
      component-grouped scheduling + the component memo on the same
      scrambled store; ``plan_auto_bfs`` is the full stack (the same
      planned batch served from a physically BFS-renumbered store).
    - ``session_memo``: the session's consecutive-same-component stream
      without over with the workspace component memo.
    """
    by_group = {}
    for r in results:
        by_group.setdefault(r["group"], {})[r["name"]] = r["median_seconds"]
    derived = {}
    layout = by_group.get("layout_fpa_fragmented50k", {})
    ratio = _ratio(layout, "identity", "bfs")
    if ratio is not None:
        derived["layout_identity_over_bfs"] = ratio
    sched = by_group.get("batch_sched_fragmented100k", {})
    for name, key in (
        ("plan_auto", "sched_off_over_auto"),
        ("plan_auto_bfs", "sched_off_over_auto_bfs"),
    ):
        ratio = _ratio(sched, "plan_off", name)
        if ratio is not None:
            derived[key] = ratio
    memo = by_group.get("session_memo_fragmented50k", {})
    ratio = _ratio(memo, "memo_off", "memo_on")
    if ratio is not None:
        derived["session_memo_off_over_on"] = ratio
    return derived


def derive_mirror_ratios(results):
    """Headline ratios of the mirror-serving benches (`bench_batch`).

    - ``mirror_canonical_over_*``: canonical-substrate session time over
      the mirror-serving session per layout policy (>1 means serving
      from the renumbered mirror is faster end to end, tie-break shim
      and id translation included).
    - ``validate_bytemask_over_bitset``: the old fresh-bytemask
      validation BFS over the pooled u64-bitset frontier.
    - ``skew_off_over_auto``: the reference session's wall-clock over the
      skew-aware plan's batch on the giant-plus-dust graph — the plan
      must not lose to it.
    """
    by_group = {}
    for r in results:
        by_group.setdefault(r["group"], {})[r["name"]] = r["median_seconds"]
    derived = {}
    mirror = by_group.get("mirror_fpa_fragmented50k", {})
    for policy in ("identity", "bfs"):
        ratio = _ratio(mirror, "canonical", f"mirror_{policy}")
        if ratio is not None:
            derived[f"mirror_canonical_over_{policy}"] = ratio
    validate = by_group.get("validate_bfs_fragmented50k", {})
    ratio = _ratio(validate, "bytemask_fresh", "bitset_pooled")
    if ratio is not None:
        derived["validate_bytemask_over_bitset"] = ratio
    skew = by_group.get("plan_skew_giant50k", {})
    ratio = _ratio(skew, "plan_off", "plan_auto")
    if ratio is not None:
        derived["skew_off_over_auto"] = ratio
    return derived


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="-", help="output path (default stdout)")
    ap.add_argument("--stdin", action="store_true", help="parse stdin instead of running cargo")
    ap.add_argument("--package", default="dmcs-engine")
    ap.add_argument("--bench", default="bench_store")
    args = ap.parse_args()

    if args.stdin:
        lines = sys.stdin.read().splitlines()
    else:
        proc = subprocess.run(
            ["cargo", "bench", "-q", "-p", args.package, "--bench", args.bench],
            capture_output=True,
            text=True,
            check=True,
        )
        lines = proc.stdout.splitlines() + proc.stderr.splitlines()

    results = parse(lines)
    if not results:
        sys.exit("no benchmark lines recognized — is the vendored criterion shim in use?")

    doc = {
        "bench": args.bench,
        "package": args.package,
        "generated_by": "scripts/bench_to_json.py",
        "unit": "median_seconds are wall-clock seconds per iteration",
        "host": host(),
        "results": results,
        "derived": {},
    }
    rebuild = derive_rebuild_ratios(results)
    if rebuild:
        doc["derived"]["store_snapshot_rebuild"] = rebuild
    cache = derive_cache_ratio(results)
    if cache:
        doc["derived"]["cache_insert_full"] = cache
    locality = derive_locality_ratios(results)
    if locality:
        doc["derived"]["locality_and_planning"] = locality
    mirror = derive_mirror_ratios(results)
    if mirror:
        doc["derived"]["mirror_and_skew"] = mirror
    rendered = json.dumps(doc, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(rendered)
    else:
        with open(args.out, "w") as fh:
            fh.write(rendered)


if __name__ == "__main__":
    main()
