#!/usr/bin/env python3
"""Compares perf-smoke bench JSON against the checked-in baselines.

CI's perf-smoke job runs bench_kernel, bench_portal_scale and
bench_storm with --json and hands each output here next to its
repo-root baseline (BENCH_kernel.json / BENCH_portal_scale.json /
BENCH_storm.json). Headline and throughput-style keys are compared
at a relative tolerance (default +/-15%); every breach is surfaced as
a GitHub `::warning::` annotation and a row in the step summary, but
the exit code is always 0 — shared runners are far too noisy to gate
merges on wall-clock numbers (ci.yml keeps the job continue-on-error
for the same reason).

Usage:
  perf_smoke_compare.py --tolerance 0.15 \
      --pair BENCH_kernel.json:perf-artifacts/BENCH_kernel.json \
      --pair BENCH_portal_scale.json:perf-artifacts/BENCH_portal_scale.json \
      --pair BENCH_storm.json:perf-artifacts/BENCH_storm.json

Stdlib only; no third-party imports.
"""

import argparse
import json
import os
import sys

# Keys worth comparing. The headline wall time per simulated user-day
# and per alert rises, and rates fall, when the code slows down; peak
# RSS regresses when something starts hoarding memory; the storm
# bench's critical-p99 speedup regresses when the overload defenses
# stop protecting the critical path. Identity and count keys (seed,
# users, alerts_sent, ...) are deterministic and belong to correctness
# tests, not a perf smoke.
COMPARED_SUFFIXES = ("_per_sec",)
COMPARED_KEYS = (
    "wall_us_per_user_day",
    "wall_us_per_alert",
    "events_per_sec",
    "peak_rss_bytes",
    "critical_p99_speedup_x",
    "map_ops_per_sec",
)


def compared(key):
    return key in COMPARED_KEYS or any(
        key.endswith(suffix) for suffix in COMPARED_SUFFIXES
    )


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_pair(baseline_path, current_path, tolerance):
    """Returns a list of (key, base, cur, ratio, breached) rows."""
    baseline = load(baseline_path)
    current = load(current_path)
    rows = []
    for key, base in sorted(baseline.items()):
        if not compared(key) or not isinstance(base, (int, float)) or base == 0:
            continue
        cur = current.get(key)
        if not isinstance(cur, (int, float)):
            rows.append((key, base, None, None, True))
            continue
        ratio = cur / base
        # Lower throughput and higher RSS are the bad directions, but a
        # large move either way deserves eyes: an unexplained speedup
        # usually means the bench stopped measuring what it used to.
        breached = abs(ratio - 1.0) > tolerance
        rows.append((key, base, cur, ratio, breached))
    return rows


def fmt(value):
    if value is None:
        return "missing"
    if isinstance(value, float) and abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pair",
        action="append",
        required=True,
        metavar="BASELINE:CURRENT",
        help="baseline and current JSON paths, colon-separated",
    )
    parser.add_argument("--tolerance", type=float, default=0.15)
    args = parser.parse_args()

    summary_lines = [
        "### Perf smoke vs baselines",
        "",
        f"Tolerance: +/-{args.tolerance:.0%} (advisory, never blocks)",
        "",
        "| bench | key | baseline | current | ratio | |",
        "|---|---|---|---|---|---|",
    ]
    breaches = 0
    for pair in args.pair:
        baseline_path, _, current_path = pair.partition(":")
        if not current_path:
            print(f"::warning::perf-smoke: bad --pair {pair!r}")
            breaches += 1
            continue
        try:
            rows = compare_pair(baseline_path, current_path, args.tolerance)
        except (OSError, ValueError) as error:
            print(f"::warning::perf-smoke: cannot compare {pair}: {error}")
            breaches += 1
            continue
        bench = os.path.basename(baseline_path)
        for key, base, cur, ratio, breached in rows:
            mark = ""
            if breached:
                breaches += 1
                mark = ":warning:"
                print(
                    f"::warning::perf-smoke: {bench} {key} "
                    f"{fmt(cur)} vs baseline {fmt(base)} "
                    f"({'n/a' if ratio is None else f'{ratio:.2f}x'}, "
                    f"tolerance +/-{args.tolerance:.0%})"
                )
            summary_lines.append(
                f"| {bench} | {key} | {fmt(base)} | {fmt(cur)} | "
                f"{'n/a' if ratio is None else f'{ratio:.2f}x'} | {mark} |"
            )

    summary_lines.append("")
    summary_lines.append(
        f"{breaches} key(s) outside tolerance."
        if breaches
        else "All compared keys within tolerance."
    )
    summary = "\n".join(summary_lines)
    print(summary)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as fh:
            fh.write(summary + "\n")
    return 0  # advisory by design


if __name__ == "__main__":
    sys.exit(main())
