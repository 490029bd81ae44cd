#!/usr/bin/env python3
"""Bench regression smoke gate.

Compares a freshly produced BENCH_*.json (bench/bench_report.hpp format)
against the checked-in baseline and fails when a gated metric regresses by
more than its threshold.

Four kinds of gates:

  * higher-is-better (default; e.g. states_per_sec): fails when the
    current value drops more than `--threshold` below baseline.
  * lower-is-better (suffix `:lower`; e.g. peak_seen_bytes): fails when
    the current value *grows* more than the metric's threshold above
    baseline. Memory is far less host-noisy than throughput, so
    lower-is-better gates default to a tighter threshold
    (--lower-threshold, 10%).
  * band (suffix `:band`; e.g. phase_share_push_event): fails when the
    current value drifts more than `--band-threshold` from baseline in
    *either* direction, as an absolute delta rather than a ratio. Made
    for the phase-share counters (fractions in [0,1]) the bench binaries
    embed from obs::PhaseProfile: a share moving from 0.26 to 0.45 means
    the cost profile the README documents no longer holds — whether the
    phase got faster or everything around it got slower, someone should
    look. Ratio gates misbehave near zero shares; an absolute band does
    not.
  * exact (suffix `:exact`; e.g. states): fails on any difference from
    baseline, in either direction. Made for deterministic counters
    (verdicts, state and transition counts, outcome counts): they do not
    depend on the host, so any change is a change in what the search
    did, and the baseline must be regenerated with it.

Absolute states/sec varies with the host, so the throughput threshold is
deliberately loose — this is a smoke gate against large regressions (an
accidental de-incrementalisation of the hot path), not a microbenchmark
tribunal. Update the baseline by copying a Release-build
BENCH_mc_scaling.json from CI (or a comparable machine) into
bench/baseline/ when the engine gets intentionally faster or leaner.

Usage:
  check_bench_regression.py --current build/BENCH_mc_scaling.json \
      --baseline bench/baseline/BENCH_mc_scaling.json \
      [--gate states_per_sec --gate peak_seen_bytes:lower \
       --gate phase_share_push_event:band --gate states:exact] \
      [--threshold 0.30] [--lower-threshold 0.10] [--band-threshold 0.15]

  check_bench_regression.py --self-test   # fixture-based sanity check
"""

import argparse
import json
import sys
import tempfile

DEFAULT_GATES = [
    "states_per_sec",
    "peak_seen_bytes:lower",
    # Phase-share drift bands (obs::PhaseProfile, embedded by the bench
    # binaries as phase_share_*). The README's cost profile — push_event
    # and Config copy/apply dominating DPOR node cost — is pinned here:
    # shares are host-independent fractions, so a drift outside the band
    # means the profile genuinely changed shape, not that the host is
    # slow today.
    "phase_share_push_event:band",
    "phase_share_apply:band",
    "phase_share_enumerate:band",
]


def parse_gate(spec):
    """'metric'[':lower'|':band'|':exact'] -> (metric, mode).

    mode is 'higher' (default), 'lower', 'band', or 'exact'.
    """
    for suffix in (":lower", ":band", ":exact"):
        if spec.endswith(suffix):
            return spec[: -len(suffix)], suffix[1:]
    return spec, "higher"


def check(current, baseline, gates, threshold, lower_threshold,
          band_threshold=0.15, out=sys.stdout):
    """Returns (compared, failures, skipped) over all gates and benchmarks.

    A series present on only one side (baseline entry gone from the current
    run, or a freshly added benchmark the baseline has never seen) is
    *skipped*, not failed: new bench modes and counters land before the
    baseline refresh does. The caller decides whether skips are fatal
    (--strict).
    """
    failures = []
    skipped = []
    compared = 0
    for spec in gates:
        metric, mode = parse_gate(spec)
        limit = lower_threshold if mode == "lower" else threshold
        for name in sorted(current):
            if name not in baseline and metric in current[name]:
                skipped.append(f"{name}: {metric} has no baseline entry")
        for name, base_metrics in sorted(baseline.items()):
            if metric not in base_metrics:
                continue
            cur_metrics = current.get(name)
            if cur_metrics is None or metric not in cur_metrics:
                skipped.append(f"{name}: {metric} missing from current results")
                continue
            base = base_metrics[metric]
            cur = cur_metrics[metric]
            ratio = cur / base if base > 0 else float("inf")
            compared += 1
            status = "OK"
            if mode == "exact":
                if cur != base:
                    status = "CHANGED"
                    failures.append(
                        f"{name}: {metric} {cur:,} vs baseline {base:,} "
                        f"(exact gate)")
                print(f"{status:>10}  {name}.{metric}: {cur:,} vs {base:,}",
                      file=out)
                continue
            if mode == "band":
                delta = cur - base
                if abs(delta) > band_threshold:
                    status = "DRIFT"
                    failures.append(
                        f"{name}: {metric} {cur:.3f} vs baseline {base:.3f} "
                        f"(delta {delta:+.3f}, band +-{band_threshold:.2f})")
                print(f"{status:>10}  {name}.{metric}: {cur:.3f} vs "
                      f"{base:.3f} ({delta:+.3f})", file=out)
                continue
            if mode == "lower":
                if ratio > 1.0 + limit:
                    status = "REGRESSION"
                    failures.append(
                        f"{name}: {metric} {cur:,.0f} vs baseline {base:,.0f} "
                        f"({ratio:.2f}x, limit {1.0 + limit:.2f}x)")
            else:
                if ratio < 1.0 - limit:
                    status = "REGRESSION"
                    failures.append(
                        f"{name}: {metric} {cur:,.0f} vs baseline {base:,.0f} "
                        f"({ratio:.2f}x, limit {1.0 - limit:.2f}x)")
            print(f"{status:>10}  {name}.{metric}: {cur:,.0f} vs {base:,.0f} "
                  f"({ratio:.2f}x)", file=out)
    return compared, failures, skipped


def self_test() -> int:
    """Exercises every gate kind against inline fixtures."""
    baseline = {
        "bench/2": {"states_per_sec": 100000.0, "peak_seen_bytes": 1000000.0},
        "bench/3": {"states_per_sec": 200000.0, "peak_seen_bytes": 2000000.0},
    }
    cases = [
        # (name, current, expect_failures)
        ("all-ok", {
            "bench/2": {"states_per_sec": 95000.0, "peak_seen_bytes": 1050000.0},
            "bench/3": {"states_per_sec": 210000.0, "peak_seen_bytes": 1900000.0},
        }, 0),
        ("throughput-regression", {
            "bench/2": {"states_per_sec": 60000.0, "peak_seen_bytes": 1000000.0},
            "bench/3": {"states_per_sec": 200000.0, "peak_seen_bytes": 2000000.0},
        }, 1),
        ("memory-regression", {
            "bench/2": {"states_per_sec": 100000.0, "peak_seen_bytes": 1200000.0},
            "bench/3": {"states_per_sec": 200000.0, "peak_seen_bytes": 2000000.0},
        }, 1),
        # Memory improving massively must NOT trip the lower-is-better gate.
        ("memory-improvement", {
            "bench/2": {"states_per_sec": 100000.0, "peak_seen_bytes": 50000.0},
            "bench/3": {"states_per_sec": 200000.0, "peak_seen_bytes": 40000.0},
        }, 0),
        # A baseline series gone from the current run is a warn-and-skip,
        # never an implicit failure (fatal only under --strict).
        ("missing-benchmark", {
            "bench/2": {"states_per_sec": 100000.0, "peak_seen_bytes": 1000000.0},
        }, 0, 2),  # skipped by both gates
        # A freshly added series without a baseline entry must not fail
        # the gate before the baseline refresh lands.
        ("new-series-no-baseline", {
            "bench/2": {"states_per_sec": 100000.0, "peak_seen_bytes": 1000000.0},
            "bench/3": {"states_per_sec": 200000.0, "peak_seen_bytes": 2000000.0},
            "bench/new-mode/4": {"states_per_sec": 300000.0,
                                 "peak_seen_bytes": 900000.0},
        }, 0, 2),  # skipped by both gates
    ]
    # Phase-share band gates: absolute two-sided drift detection. These
    # fixtures pin (a) that both directions of drift fail, (b) that the
    # band is absolute — a 2x ratio on a tiny share stays inside it, and
    # (c) that in-band wobble passes.
    band_series = "por_litmus_catalog/2/source-sleep"

    def shares(push_event, apply, enumerate_):
        return {band_series: {"phase_share_push_event": push_event,
                              "phase_share_apply": apply,
                              "phase_share_enumerate": enumerate_}}

    band_baseline = shares(0.26, 0.39, 0.05)
    band_cases = [
        ("band-ok", shares(0.31, 0.33, 0.10), 0),
        # push_event exploding past the band fails (upward drift).
        ("band-upward-drift", shares(0.55, 0.39, 0.05), 1),
        # apply collapsing fails too — a band gate is two-sided, unlike
        # the ratio gates above.
        ("band-downward-drift", shares(0.26, 0.10, 0.05), 1),
        # A 2x ratio on a small share stays within the absolute band: the
        # gate must not inherit the ratio gates' near-zero pathology.
        ("band-small-share-ratio-noise", shares(0.26, 0.39, 0.11), 0),
    ]

    # Exact gates on deterministic counters: any difference fails, a
    # drop as much as a rise, and a float equal to the baseline's integer
    # passes (JSON counters may come back as 72.0).
    exact_gates = ["pass:exact", "states:exact", "outcomes:exact"]
    exact_series = "litmus/CoRR2"

    def counters(pass_, states, outcomes):
        return {exact_series: {"pass": pass_, "states": states,
                               "outcomes": outcomes}}

    exact_baseline = counters(1, 281, 72)
    exact_cases = [
        ("exact-equal", counters(1.0, 281.0, 72.0), 0),
        ("exact-drop", counters(1, 280, 72), 1),
        ("exact-rise", counters(1, 281, 73), 1),
        ("exact-verdict-flip", counters(0, 281, 72), 1),
    ]

    ok = True
    sink = tempfile.TemporaryFile(mode="w+")
    all_cases = (
        [(n, cur, baseline, DEFAULT_GATES, *rest)
         for (n, cur, *rest) in cases] +
        [(n, cur, band_baseline, DEFAULT_GATES, *rest)
         for (n, cur, *rest) in band_cases] +
        [(n, cur, exact_baseline, exact_gates, *rest)
         for (n, cur, *rest) in exact_cases])
    for name, current, case_baseline, gates, expect, *rest in all_cases:
        expect_skipped = rest[0] if rest else 0
        compared, failures, skipped = check(current, case_baseline,
                                            gates,
                                            threshold=0.30,
                                            lower_threshold=0.10,
                                            band_threshold=0.15,
                                            out=sink)
        got = len(failures)
        got_skipped = len(skipped)
        status = "ok" if (got, got_skipped) == (expect, expect_skipped) \
            else "FAIL"
        if status == "FAIL":
            ok = False
        print(f"self-test {status}: {name} "
              f"(compared={compared}, failures={got}, expected={expect}, "
              f"skipped={got_skipped}, expected_skipped={expect_skipped})")
    if not ok:
        print("self-test FAILED", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--current")
    ap.add_argument("--baseline")
    ap.add_argument("--gate", action="append", default=None,
                    help="metric to gate; append ':lower' for "
                         "lower-is-better, ':band' for two-sided "
                         "absolute drift or ':exact' for no change at all "
                         "(repeatable; default: "
                         + " ".join(DEFAULT_GATES) + ")")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="maximum tolerated relative regression for "
                         "higher-is-better gates (0.30 = 30%%)")
    ap.add_argument("--lower-threshold", type=float, default=0.10,
                    help="maximum tolerated relative growth for "
                         "lower-is-better gates (0.10 = 10%%)")
    ap.add_argument("--band-threshold", type=float, default=0.15,
                    help="maximum tolerated absolute drift, either "
                         "direction, for ':band' gates (0.15 = fifteen "
                         "share points)")
    ap.add_argument("--strict", action="store_true",
                    help="treat series without a matching baseline/current "
                         "entry as failures instead of warn-and-skip")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture check and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.current or not args.baseline:
        ap.error("--current and --baseline are required (or --self-test)")

    with open(args.current) as f:
        current = json.load(f)["benchmarks"]
    with open(args.baseline) as f:
        baseline = json.load(f)["benchmarks"]

    gates = args.gate if args.gate else DEFAULT_GATES
    compared, failures, skipped = check(current, baseline, gates,
                                        args.threshold, args.lower_threshold,
                                        args.band_threshold)

    for s in skipped:
        print(f"warning: skipped {s}", file=sys.stderr)
    if args.strict and skipped:
        failures = failures + [f"(strict) {s}" for s in skipped]
    if compared == 0 and not skipped:
        print("error: no gated benchmarks in common", file=sys.stderr)
        return 2
    if failures:
        print("\nBench regression gate FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"\nBench regression gate passed ({compared} comparisons, "
          f"{len(skipped)} skipped).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
