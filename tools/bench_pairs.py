#!/usr/bin/env python3
"""Paired A/B runs of the time-to-verdict benchmark.

Runs N alternating pairs of two checkouts' verdictbench/run.py (the parent
and the change), switching which side runs first each pair, so that a slow
spell of a shared host falls on both sides alike. Every run lasts the
change's BENCHMARK.json `run_seconds`, the length the gain rule is judged
at. For every end-to-end metric that file lists it prints each side's
median and quartiles, the pairs the change won, and the gap between the
medians against the parent's interquartile range (IQR): a claimed gain
must win at least 9 of 10 pairs and move the median by more than that IQR.
A metric whose median got worse than its BENCHMARK.json bound is flagged.

Each run's `attempted` (timed calls) is printed, with a warning once it
passes 32,768: verdict_bench keeps one record per attempted call, its
record vector holds 32,768 at that capacity and reallocates on the next
one, and the copy shows up in peak_rss_mb. The change's median `attempted`
is printed as a ratio of the parent's, with both sides' IQR; a NOTE (not a
failure) says when it lies above the parent's third quartile, since a
change that makes jobs faster attempts more calls and may then cross the
cliff where the parent does not. The script exits 1 when some run reports
`"correct": false` or `failed` > 0, or produced no result line.

Usage:
  bench_pairs.py --parent ../parent --change . --workload plain --seed 1 \\
      [--pairs 10]

  bench_pairs.py --self-test   # canned result lines, no benchmark run

Each checkout must be a full one (run.py builds the library from its
sources into that checkout's .bench_build/ on the first run).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# verdictbench keeps one record per attempted call; its vector holds CLIFF
# records at that capacity and reallocates on the next one.
CLIFF = 32768


def parse_result(stdout):
    """A run's result: the last non-empty line of its stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no result line")
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError("result line has no metrics")
    return result


def load_spec(path):
    """BENCHMARK.json's run length in seconds, and (name, better, bound) of
    every end-to-end metric it lists."""
    with open(path) as f:
        spec = json.load(f)
    bounds = [(m["name"], m["better"], float(m["bound"]))
              for m in spec["end_to_end"]]
    return float(spec["run_seconds"]), bounds


def quartiles(values):
    """(q1, median, q3); the inclusive method keeps them inside the data."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def metric(result, name):
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else float(entry["value"])


def check_run(label, result, out):
    """Prints one run's line; returns False if the run is not correct."""
    if result is None:
        out(f"{label}: no result")
        return False
    attempted = int(result.get("attempted", 0))
    failed = int(result.get("failed", 0))
    correct = result.get("correct") is True
    suite = metric(result, "suite_s")
    suite_text = "-" if suite is None else f"{suite:.4f}"
    out(f"{label}: attempted {attempted:,}, correct {str(correct).lower()}, "
        f"failed {failed}, suite_s {suite_text}")
    if attempted > CLIFF:
        out(f"  WARNING: {label} attempted {attempted:,} calls, past the "
            f"benchmark's {CLIFF:,}-record cliff: its peak_rss_mb includes the "
            "record vector's reallocation")
    return correct and failed == 0


def attempted_report(pairs, out):
    """Prints each side's median `attempted`, the change's as a ratio of the
    parent's with both IQRs, and a NOTE when the change's median lies above
    the parent's third quartile."""
    sides = []
    for side, index in (("parent", 0), ("change", 1)):
        attempted = [int(p[index]["attempted"]) for p in pairs
                     if p[index] is not None]
        if not attempted:
            return
        q1, med, q3 = quartiles(attempted)
        note = "" if med <= CLIFF else "  (median past the cliff)"
        out(f"{side} attempted: median {med:,.0f}, IQR {q3 - q1:,.0f}, "
            f"max {max(attempted):,}{note}")
        sides.append((q1, med, q3))
    (_, pmed, pq3), (cq1, cmed, cq3) = sides
    ratio = cmed / pmed if pmed else float("inf")
    out(f"attempted ratio change/parent: {ratio:.3f} (parent IQR "
        f"{pq3 - sides[0][0]:,.0f}, change IQR {cq3 - cq1:,.0f})")
    if cmed > pq3:
        out(f"  NOTE: the change's median attempted ({cmed:,.0f}) lies above "
            f"the parent's third quartile ({pq3:,.0f}): faster jobs mean more "
            f"calls per run, and past {CLIFF:,} verdict_bench's record vector "
            "reallocates, which raises peak_rss_mb although the library did "
            "not grow (a derived run read 14.11 -> 16.59 MB that way)")


def analyze(pairs, bounds, out=print):
    """Prints the pair report. `pairs` is a list of (parent, change) result
    dicts (None for a run that gave no result). Returns the exit code."""
    ok = True
    for i, (parent, change) in enumerate(pairs, start=1):
        ok &= check_run(f"pair {i} parent", parent, out)
        ok &= check_run(f"pair {i} change", change, out)
    attempted_report(pairs, out)

    out("")
    out(f"{'metric':<20} {'parent q1/med/q3':>29}  {'change q1/med/q3':>29}  "
        f"{'delta':>7} {'wins':>6} {'gap/IQR':>15}")
    for name, better, bound in bounds:
        both = [(metric(p, name), metric(c, name)) for p, c in pairs
                if p is not None and c is not None]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            out(f"{name:<20} (not reported)")
            continue
        pa = [a for a, _ in both]
        ch = [b for _, b in both]
        p1, pm, p3 = quartiles(pa)
        c1, cm, c3 = quartiles(ch)
        lower = better == "lower"
        wins = sum(1 for a, b in both if (b < a if lower else b > a))
        delta = (cm - pm) / pm if pm != 0 else 0.0
        gap = abs(cm - pm)
        iqr = p3 - p1
        out(f"{name:<20} {p1:>9.4g} {pm:>9.4g} {p3:>9.4g}  "
            f"{c1:>9.4g} {cm:>9.4g} {c3:>9.4g}  {delta:>+7.1%} "
            f"{wins:>2}/{len(both):<3} {gap:>7.3g}/{iqr:<7.3g}")
        worse = delta > bound if lower else -delta > bound
        if worse:
            out(f"  FLAG: {name} median got {abs(delta):.1%} worse, beyond "
                f"its bound of {bound:.0%}")
    if not ok:
        out("\nFAILED: some run was not correct, failed a job, or gave no "
            "result")
        return 1
    return 0


def run_side(checkout, workload, seed, seconds):
    """One run of `checkout`'s benchmark; None when it gave no result."""
    proc = subprocess.run(
        [sys.executable, os.path.join("verdictbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    try:
        return parse_result(proc.stdout)
    except ValueError:
        sys.stderr.write(proc.stderr[-4000:])
        return None


def self_test():
    """Checks the report on canned result lines."""
    bounds = [("suite_s", "lower", 0.25), ("peak_rss_mb", "lower", 0.1)]

    def line(suite, rss, attempted=20000, correct=True, failed=0):
        return json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"suite_s": {"value": suite, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}})

    def report(pairs):
        lines = []
        code = analyze([(parse_result("build noise\n" + p),
                         parse_result(c)) for p, c in pairs],
                       bounds, out=lines.append)
        return code, "\n".join(lines)

    failures = []

    def expect(name, cond):
        print(f"self-test {'ok' if cond else 'FAILED'}: {name}")
        if not cond:
            failures.append(name)

    gain = [(line(0.120 + 0.002 * i, 14.1), line(0.098 + 0.001 * i, 14.1))
            for i in range(10)]
    code, text = report(gain)
    expect("a clean gain exits 0", code == 0)
    expect("a clean gain wins 10 of 10", "10/10" in text)
    expect("a clean gain flags nothing", "FLAG" not in text)
    expect("a clean gain warns of no cliff", "WARNING" not in text)
    row = next(r for r in text.splitlines() if r.startswith("suite_s"))
    expect("quartiles: parent median 0.129", "0.129" in row)

    worse = [(line(0.100, 14.1), line(0.100, 15.9)) for _ in range(4)]
    code, text = report(worse)
    expect("a memory regression past its bound is flagged",
           "FLAG: peak_rss_mb" in text)
    expect("a flag alone exits 0", code == 0)
    expect("a tie wins nothing", "0/4" in text)

    cliff = [(line(0.1, 14.1), line(0.1, 14.1, attempted=CLIFF))]
    code, text = report(cliff)
    expect("a run at the cliff's capacity does not warn", "WARNING" not in text)
    cliff = [(line(0.1, 14.1), line(0.1, 14.1, attempted=CLIFF + 1))]
    code, text = report(cliff)
    expect("a run one past the cliff warns", "WARNING: pair 1 change" in text)

    # Parent attempted 20,000..20,900 (q3 20,675); the change 24,000.
    more = [(line(0.1, 14.1, attempted=20000 + 100 * i),
             line(0.09, 14.1, attempted=24000)) for i in range(10)]
    code, text = report(more)
    expect("the attempted ratio is printed",
           "attempted ratio change/parent: 1.174" in text)
    expect("both sides' attempted IQRs are printed",
           "parent attempted: median 20,450, IQR 450" in text
           and "change attempted: median 24,000, IQR 0" in text)
    expect("a change attempting above the parent's q3 gets a NOTE",
           "NOTE: the change's median attempted (24,000)" in text)
    expect("a NOTE alone exits 0", code == 0)
    code, text = report(gain)
    expect("equal attempted counts get no NOTE", "NOTE" not in text)

    wrong = [(line(0.1, 14.1), line(0.1, 14.1, correct=False))]
    expect("an incorrect run exits 1", report(wrong)[0] == 1)
    failed = [(line(0.1, 14.1, failed=2), line(0.1, 14.1))]
    expect("a failed job exits 1", report(failed)[0] == 1)
    missing = analyze([(None, parse_result(line(0.1, 14.1)))], bounds,
                      out=lambda _: None)
    expect("a run without a result exits 1", missing == 1)
    try:
        parse_result("cmake output only\n{\"correct\": true}\n")
        expect("a line without metrics is rejected", False)
    except ValueError:
        expect("a line without metrics is rejected", True)

    seconds, spec_bounds = load_spec(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    expect("BENCHMARK.json gives the run length and the suite_s bound",
           seconds > 0 and any(n == "suite_s" for n, _, _ in spec_bounds))

    if failures:
        print("self-test FAILED", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", choices=("plain", "por", "derived"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--self-test", action="store_true",
                    help="check the report on canned result lines")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    seconds, bounds = load_spec(os.path.join(args.change, "BENCHMARK.json"))

    pairs = []
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2 == 1:
            order.reverse()
        got = {}
        for side, checkout in order:
            got[side] = run_side(checkout, args.workload, args.seed, seconds)
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs")
    return analyze(pairs, bounds)


if __name__ == "__main__":
    sys.exit(main())
