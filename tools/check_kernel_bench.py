#!/usr/bin/env python3
"""Kernel-bench regression gate.

Compares a freshly measured `microbench --benchmark_format=json` run
against the committed baseline (bench/BENCH_KERNEL.json) and fails —
exit code 1 — when a gated benchmark's throughput (items_per_second)
dropped by more than the threshold. The default gate is the
single-cell replay kernel the whole suite is built from,
BM_PredictUpdate/gshare, at a 10% tolerance: machine-to-machine noise
stays well under that, while losing the devirtualized fast path or
the packed-PHT locality shows up as 2x.

--same-run gates a ratio *within* the current run instead of against
the baseline: `--same-run NUM:DEN[:R]` fails when
current[NUM] / current[DEN] < R (R defaults to --min-ratio). That
makes it machine-independent — the standing uses are holding the
flight recorder's disabled path to "a branch on a null sink"
(BM_SpanOverhead/disabled vs /none at 0.5x) and holding the batched
ensemble perceptron kernel's per-member-branch throughput above that
of the same members replayed one at a time
(BM_EnsembleReplay/perceptron vs BM_PerceptronSerialGroup at 1.5x —
measured 2.2-2.8x; losing the shared-input batching shows up as
~1.1x).

Usage:
  check_kernel_bench.py BASELINE.json CURRENT.json \
      [--key BM_PredictUpdate/gshare] [--threshold 0.10] \
      [--same-run NUM:DEN[:R] --min-ratio R]

Exit codes: 0 ok, 1 regression, 2 usage/IO error.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """name -> items_per_second for every benchmark in a JSON report."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_kernel_bench: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for b in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev) shadow the raw ones
        # under repetitions; prefer plain iterations.
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips is not None:
            out[b["name"]] = float(ips)
    if not out:
        print(f"check_kernel_bench: no benchmarks with "
              f"items_per_second in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--key", action="append", default=None,
                    help="benchmark name(s) to gate on "
                         "(default: BM_PredictUpdate/gshare)")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="maximum tolerated fractional throughput "
                         "drop (default 0.10)")
    ap.add_argument("--same-run", action="append", default=[],
                    metavar="NUM:DEN[:R]",
                    help="also require current[NUM]/current[DEN] "
                         ">= R (within-run gate, no baseline "
                         "involved); R defaults to --min-ratio")
    ap.add_argument("--min-ratio", type=float, default=0.5,
                    help="default minimum throughput ratio for "
                         "--same-run pairs without their own R "
                         "(default 0.5)")
    args = ap.parse_args()
    keys = args.key or ["BM_PredictUpdate/gshare"]

    base = load_benchmarks(args.baseline)
    cur = load_benchmarks(args.current)

    # Informational table over everything both runs measured.
    shared = sorted(set(base) & set(cur))
    width = max((len(n) for n in shared), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  "
          f"{'current':>12}  {'ratio':>6}")
    for name in shared:
        ratio = cur[name] / base[name] if base[name] else float("nan")
        print(f"{name:<{width}}  {base[name]:>12.3e}  "
              f"{cur[name]:>12.3e}  {ratio:>6.2f}")

    failed = False
    for key in keys:
        if key not in base:
            print(f"check_kernel_bench: gated benchmark '{key}' "
                  f"missing from baseline {args.baseline}",
                  file=sys.stderr)
            sys.exit(2)
        if key not in cur:
            print(f"check_kernel_bench: gated benchmark '{key}' "
                  f"missing from current run {args.current}",
                  file=sys.stderr)
            sys.exit(2)
        floor = base[key] * (1.0 - args.threshold)
        if cur[key] < floor:
            drop = 100.0 * (1.0 - cur[key] / base[key])
            print(f"FAIL: {key} regressed {drop:.1f}% "
                  f"({base[key]:.3e} -> {cur[key]:.3e} items/s, "
                  f"tolerance {100.0 * args.threshold:.0f}%)",
                  file=sys.stderr)
            failed = True
        else:
            print(f"ok: {key} within tolerance "
                  f"({cur[key]:.3e} vs {base[key]:.3e} items/s)")

    for pair in args.same_run:
        parts = pair.split(":")
        if len(parts) == 2:
            (num, den), min_ratio = parts, args.min_ratio
        elif len(parts) == 3:
            num, den = parts[0], parts[1]
            try:
                min_ratio = float(parts[2])
            except ValueError:
                print(f"check_kernel_bench: bad --same-run ratio "
                      f"in '{pair}'", file=sys.stderr)
                sys.exit(2)
        else:
            num = den = ""
        if not num or not den:
            print(f"check_kernel_bench: bad --same-run '{pair}' "
                  f"(want NUM:DEN[:R])", file=sys.stderr)
            sys.exit(2)
        for key in (num, den):
            if key not in cur:
                print(f"check_kernel_bench: --same-run benchmark "
                      f"'{key}' missing from {args.current}",
                      file=sys.stderr)
                sys.exit(2)
        if not cur[den]:
            print(f"check_kernel_bench: --same-run denominator "
                  f"'{den}' is zero", file=sys.stderr)
            sys.exit(2)
        ratio = cur[num] / cur[den]
        if ratio < min_ratio:
            print(f"FAIL: {num} at {ratio:.2f}x of {den} "
                  f"(minimum {min_ratio:.2f}x)",
                  file=sys.stderr)
            failed = True
        else:
            print(f"ok: {num} at {ratio:.2f}x of {den} "
                  f"(minimum {min_ratio:.2f}x)")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
