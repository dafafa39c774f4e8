#!/usr/bin/env python3
"""Benchmark regression gate for the ring-hardware simulator.

The gate compares *simulated* per-operation costs — benchmark counters
prefixed ``sim_`` (e.g. ``sim_cycles_per_call`` from bench_fig8_call,
``sim_cycles_per_return`` from bench_fig9_return, and ``sim_cycles`` /
``sim_page_walks`` / ``sim_tlb_hits`` from the paged workloads in
bench_paging and bench_filesearch). These are deterministic properties of
the simulated machine's cycle model, so they must match the committed
baseline exactly (up to float formatting); any drift means the change
altered the cost of a ring crossing or a paged reference and must either
be fixed or acknowledged by regenerating the baseline. Because the
baseline stores block-engine and ``*_NoFastPath`` (reference interpreter)
variants side by side with identical ``sim_cycles``, it also pins the
invariant that the block engine and its host-side caches (verdict cache,
decoded-instruction cache, software TLB, crossing cache) never change
simulated cost. Host wall-clock
(``real_time``, ``wall_median_ns``) is recorded in the merged artifact
for humans but is NOT gated by default — it varies by host.

Benchmarks whose names differ only in a ``threads:N`` argument (the
fleet-engine scaling variants from bench_fleet) must report identical
``sim_*`` counters: the fleet determinism contract says thread count may
change host throughput but never any simulated result. The gate enforces
this invariance across every loaded result, independent of the baseline,
so a determinism break fails CI even before the baseline is consulted.

Wall-clock CAN be gated opt-in, on noise-robust statistics: each
benchmark samples its timed region at least 5 times and reports the
minimum as ``wall_min_ns`` (scheduling and frequency jitter only ever
add time, so the min converges on the true cost); the serving benchmark
additionally reports ``wall_machines_per_sec`` (best observed
throughput) and ``wall_p99_ns`` (best observed tail turnaround). The
wall gate needs BOTH a baseline entry with those counters — produced by
``update --include-wall`` — AND the ``check --wall`` flag; without the
flag, wall entries in the baseline are ignored, so the same committed
baseline serves the exact sim gate everywhere and the wall gate only
where it is meaningful (a host comparable to the one that produced the
baseline, running the default engine configuration). When armed, the gate fails one-sided by WALL_REL_TOLERANCE:
latencies (``wall_min_ns``, ``wall_p99_ns``) may not rise, throughput
(``wall_machines_per_sec``) may not drop; getting better never fails.

Usage:

  # CI / local check: compare google-benchmark JSON outputs against the
  # committed baseline, and merge them into one artifact for upload.
  tools/bench_check.py check --baseline BENCH_baseline.json \
      --merge-out BENCH_pr.json fig8.json fig9.json

  # Regenerate the baseline after an *intentional* cycle-model change:
  cd build
  ./bench/bench_fig8_call --benchmark_out=fig8.json --benchmark_out_format=json
  ./bench/bench_fig9_return --benchmark_out=fig9.json --benchmark_out_format=json
  ./bench/bench_paging --benchmark_out=paging.json --benchmark_out_format=json
  ./bench/bench_filesearch --benchmark_out=filesearch.json --benchmark_out_format=json
  cd ..
  tools/bench_check.py update --baseline BENCH_baseline.json \
      build/fig8.json build/fig9.json build/paging.json build/filesearch.json

Exit status: 0 on pass, 1 on drift or missing benchmarks, 2 on bad input.
"""

import argparse
import json
import re
import sys

# Relative tolerance for comparing simulated costs. The values are
# deterministic; the tolerance only absorbs double formatting round trips
# through JSON.
REL_TOLERANCE = 1e-9

# One-sided relative tolerance for the opt-in wall-clock gate: a
# wall_min_ns regression beyond baseline * (1 + tolerance) fails. Generous
# on purpose — even the min-of-N statistic moves with the host's thermal
# and scheduling state.
WALL_REL_TOLERANCE = 0.5

# Wall counters the opt-in gate understands, with the direction that
# counts as a regression. "lower": the result may not exceed baseline *
# (1 + WALL_REL_TOLERANCE) (latencies). "higher": the result may not fall
# below baseline * (1 - WALL_REL_TOLERANCE) (throughput — the serving
# benchmark reports machines retired per second). Getting better never
# fails in either direction.
WALL_GATED = {
    "wall_min_ns": "lower",
    "wall_p99_ns": "lower",
    "wall_machines_per_sec": "higher",
}


def load_results(paths):
    """Merge google-benchmark JSON files into {name: {real_time, time_unit, sim}}.

    Also returns {name: {"source": json_path, "executable": binary}} so a
    failing gate can print the exact command that reruns just that
    benchmark ("executable" comes from the google-benchmark context block;
    it is None for hand-written JSON).
    """
    merged = {}
    origins = {}
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, ValueError) as e:
            sys.exit(f"bench_check: cannot read {path}: {e}")
        context = data.get("context", {})
        executable = context.get("executable") if isinstance(context, dict) else None
        benches = data.get("benchmarks", [])
        if not isinstance(benches, list):
            sys.exit(f'bench_check: {path}: "benchmarks" is not a list')
        for i, bench in enumerate(benches):
            if not isinstance(bench, dict):
                sys.exit(f"bench_check: {path}: benchmark entry #{i} is not an object")
            # Skip mean/median/stddev rows from --benchmark_repetitions.
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            if not isinstance(name, str):
                sys.exit(f'bench_check: {path}: benchmark entry #{i} has no "name" key')
            sim = {k: v for k, v in bench.items() if k.startswith("sim_")}
            wall = {k: v for k, v in bench.items() if k.startswith("wall_")}
            merged[name] = {
                "real_time": bench.get("real_time"),
                "cpu_time": bench.get("cpu_time"),
                "time_unit": bench.get("time_unit"),
                "sim": sim,
                "wall": wall,
            }
            origins[name] = {"source": path, "executable": executable}
    return merged, origins


def rerun_commands(failing_names, origins, baseline_path):
    """Build the copy-pasteable rerun lines for a set of failing gates."""
    lines = []
    by_exe = {}
    for name in sorted(failing_names):
        origin = origins.get(name)
        if origin is None:
            lines.append(
                f"  (no result file produced {name}; rerun the full suite —"
                " see tools/bench_check.py --help)"
            )
            continue
        exe = origin["executable"] or f"<the benchmark binary behind {origin['source']}>"
        by_exe.setdefault(exe, []).append(name)
    for exe, names in sorted(by_exe.items()):
        pattern = "|".join(re.escape(n) for n in names)
        lines.append(f"  {exe} --benchmark_filter='^({pattern})$'")
    lines.append(
        f"  python3 tools/bench_check.py check --baseline {baseline_path}"
        " <result.json ...>   # full gate"
    )
    return lines


def drifted(baseline_value, pr_value):
    scale = max(abs(baseline_value), abs(pr_value), 1.0)
    return abs(baseline_value - pr_value) > REL_TOLERANCE * scale


def check_thread_invariance(results):
    """sim_* counters must be identical across thread-count variants.

    Groups benchmarks whose names differ only in a ``threads:N`` argument
    and reports any sim_* counter that varies within a group. Returns a
    list of failure lines (empty when the invariant holds) and the set of
    benchmark names involved in a failure.
    """
    groups = {}
    for name, entry in sorted(results.items()):
        key = re.sub(r"threads:\d+", "threads:*", name)
        if key != name:
            groups.setdefault(key, []).append((name, entry["sim"]))
    failures = []
    failing_names = set()
    for key, members in sorted(groups.items()):
        if len(members) < 2:
            continue
        ref_name, ref_sim = members[0]
        counters = set(ref_sim)
        for name, sim in members[1:]:
            counters |= set(sim)
        for counter in sorted(counters):
            values = {name: sim.get(counter) for name, sim in members}
            distinct = set(values.values())
            if len(distinct) == 1:
                continue
            detail = ", ".join(f"{n}={v!r}" for n, v in sorted(values.items()))
            failures.append(
                f"  {key}: {counter} varies with thread count ({detail})"
            )
            failing_names.update(values)
        if not any(key in f for f in failures):
            print(
                f"ok: {key}: {len(counters)} sim counter(s) invariant across"
                f" {len(members)} thread variant(s)"
            )
    return failures, failing_names


def cmd_check(args):
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)["benchmarks"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"bench_check: cannot read baseline {args.baseline}: {e}")
    if not isinstance(baseline, dict):
        sys.exit(
            f'bench_check: baseline {args.baseline}: "benchmarks" must map'
            " benchmark names to counter objects"
        )
    for name, expected in sorted(baseline.items()):
        if not isinstance(expected, dict):
            sys.exit(
                f'bench_check: baseline {args.baseline}: entry "{name}" must be'
                " an object of counters (regenerate with"
                " tools/bench_check.py update)"
            )
        for counter, value in sorted(expected.items()):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                sys.exit(
                    f'bench_check: baseline {args.baseline}: "{name}" counter'
                    f' "{counter}" is not a number (got {value!r})'
                )
    results, origins = load_results(args.results)

    if args.merge_out:
        with open(args.merge_out, "w") as f:
            json.dump({"benchmarks": results}, f, indent=2, sort_keys=True)
            f.write("\n")

    failures, failing_names = check_thread_invariance(results)
    for name, expected in sorted(baseline.items()):
        got = results.get(name)
        if got is None:
            failures.append(f"  {name}: benchmark missing from results")
            failing_names.add(name)
            continue
        for counter, expected_value in sorted(expected.items()):
            if counter.startswith("wall_"):
                direction = WALL_GATED.get(counter)
                if direction is None or not args.wall:
                    continue  # informational unless the wall gate is armed
                actual = got["wall"].get(counter)
                if actual is None:
                    failures.append(f"  {name}: counter {counter} missing")
                    failing_names.add(name)
                elif direction == "lower" and actual > expected_value * (
                    1.0 + WALL_REL_TOLERANCE
                ):
                    failures.append(
                        f"  {name}: {counter} regressed: baseline"
                        f" {expected_value:.0f} vs result {actual:.0f}"
                        f" (> {WALL_REL_TOLERANCE:.0%} slower)"
                    )
                    failing_names.add(name)
                elif direction == "higher" and actual < expected_value * (
                    1.0 - WALL_REL_TOLERANCE
                ):
                    failures.append(
                        f"  {name}: {counter} regressed: baseline"
                        f" {expected_value:.0f} vs result {actual:.0f}"
                        f" (> {WALL_REL_TOLERANCE:.0%} throughput drop)"
                    )
                    failing_names.add(name)
                else:
                    print(f"ok: {name}: {counter} = {actual:.0f} (wall gate)")
                continue
            actual = got["sim"].get(counter)
            if actual is None:
                failures.append(f"  {name}: counter {counter} missing")
                failing_names.add(name)
            elif drifted(expected_value, actual):
                failures.append(
                    f"  {name}: {counter} drifted: baseline {expected_value!r}"
                    f" vs result {actual!r}"
                )
                failing_names.add(name)
            else:
                print(f"ok: {name}: {counter} = {actual}")

    if failures:
        print("\nbench_check: simulated-cost drift detected:", file=sys.stderr)
        for line in failures:
            print(line, file=sys.stderr)
        print("\nTo rerun just the failing gate(s) locally:", file=sys.stderr)
        for line in rerun_commands(failing_names, origins, args.baseline):
            print(line, file=sys.stderr)
        print(
            "\nIf the drift is an intentional cycle-model change, regenerate the\n"
            "baseline (see tools/bench_check.py --help) and commit it with the\n"
            "change that explains it.",
            file=sys.stderr,
        )
        return 1
    print(f"bench_check: {len(baseline)} benchmark(s) match the baseline")
    return 0


def cmd_update(args):
    results, _ = load_results(args.results)
    benchmarks = {}
    for name, entry in sorted(results.items()):
        if not entry["sim"]:
            continue
        counters = dict(entry["sim"])
        if args.include_wall:
            for wall_counter in WALL_GATED:
                if wall_counter in entry["wall"]:
                    counters[wall_counter] = entry["wall"][wall_counter]
        benchmarks[name] = counters
    if not benchmarks:
        sys.exit("bench_check: no sim_* counters found; nothing to baseline")
    payload = {
        "comment": (
            "Deterministic simulated-cost baseline for the CI bench gate. "
            "Values are simulated cycles/instructions; wall_min_ns entries "
            "(from update --include-wall) are gated only by check --wall "
            "on a comparable host and ignored otherwise. "
            "Regenerate with tools/bench_check.py update (see its --help)."
        ),
        "benchmarks": benchmarks,
    }
    with open(args.baseline, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_check: wrote {args.baseline} with {len(benchmarks)} benchmark(s)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="compare results against the baseline")
    check.add_argument("--baseline", required=True)
    check.add_argument("--merge-out", help="write merged results (CI artifact)")
    check.add_argument(
        "--wall",
        action="store_true",
        help="arm the one-sided wall_min_ns gate for baseline entries that"
        " carry one (same-host, default-configuration runs only)",
    )
    check.add_argument("results", nargs="+", help="google-benchmark JSON files")
    check.set_defaults(func=cmd_check)

    update = sub.add_parser("update", help="regenerate the baseline")
    update.add_argument("--baseline", required=True)
    update.add_argument(
        "--include-wall",
        action="store_true",
        help="also baseline wall_min_ns (gated only by `check --wall` on a"
        " comparable host; ignored by the default sim-only check)",
    )
    update.add_argument("results", nargs="+", help="google-benchmark JSON files")
    update.set_defaults(func=cmd_update)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
