#!/usr/bin/env python3
"""Compare two sets of geoloc_bench runs, workload by workload.

    python3 bench/suite/compare.py A.jsonl B.jsonl
    python3 bench/suite/compare.py --self-test

A and B hold result records (geoloc_bench --out or run.py --out), one JSON
object per line: A is the parent, B the change. Only untraced records count.
For every workload and end-to-end metric it prints each side's median and
quartiles, the pair wins (the i-th run of A against the i-th of B, in file
order; ties count for neither) and a verdict:

  unresolved  A's own spread (quartile distance / median) is wider than the
              bound, and not every B run beats every A run
  regression  B's median is worse than A's by more than the bound
  gain        B wins at least 9/10 of the pairs and the medians differ by
              more than A's quartile distance
  no change   otherwise

Bounds and directions come from BENCHMARK.json at the repository root.
Exits 1 when any verdict is a regression.
"""
import io
import json
import random
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_spec():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["better"] == "higher", m["bound"])
            for m in spec["end_to_end"]}


def load_runs(lines):
    """workload -> metric -> values, in record order (untraced records only)."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("traced"):
            continue
        for name, m in rec["end_to_end"].items():
            runs[rec["workload"]][name].append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, higher, bound):
    """Verdict for one metric, plus B's pair wins and the pair count."""
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    a1, a_med, a3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    spread = (a3 - a1) / abs(a_med) if a_med else 0.0
    dominates = all(better(y, x) for x in a for y in b)
    worse_by = (a_med - b_med if higher else b_med - a_med) / abs(a_med) if a_med else 0.0
    if spread > bound and not dominates:
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "regression", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a3 - a1:
        return "gain", wins, len(pairs)
    return "no change", wins, len(pairs)


def compare(a_lines, b_lines, spec, out=sys.stdout):
    """Print the comparison; return {(workload, metric): verdict}."""
    a_runs, b_runs = load_runs(a_lines), load_runs(b_lines)
    verdicts = {}
    for workload in sorted(set(a_runs) & set(b_runs)):
        print(workload, file=out)
        print(f"  {'metric':18} {'A q1/median/q3':>36} {'B q1/median/q3':>36}"
              f" {'B wins':>8}  verdict", file=out)
        for name, (higher, bound) in spec.items():
            a, b = a_runs[workload].get(name), b_runs[workload].get(name)
            if not a or not b:
                continue
            v, wins, n = verdict(a, b, higher, bound)
            verdicts[(workload, name)] = v
            qa = "/".join(f"{x:.5g}" for x in quartiles(a))
            qb = "/".join(f"{x:.5g}" for x in quartiles(b))
            print(f"  {name:18} {qa:>36} {qb:>36} {wins:>3}/{n:<4}  {v}"
                  f" (bound {bound:.0%})", file=out)
    return verdicts


def self_test():
    """Identical inputs give no change everywhere; a metric made 2x worse is
    flagged as a regression and one made 2x better as a gain."""
    spec = load_spec()
    base = {"setup_s": 1.0, "addrs_per_s": 1e4, "cpu_us_per_addr": 50.0,
            "latency_p50_ms": 2.0, "peak_rss_mb": 100.0}
    units = {"setup_s": "s", "addrs_per_s": "1/s", "cpu_us_per_addr": "us",
             "latency_p50_ms": "ms", "peak_rss_mb": "MB"}

    def records(scale):
        rng = random.Random(7)  # the same noise on both sides
        lines = []
        for workload in ("w_one", "w_two"):
            for _ in range(10):
                metrics = {}
                for name, v in base.items():
                    noise = 1.0 + rng.uniform(-0.01, 0.01)
                    metrics[name] = {"value": v * noise * scale.get((workload, name), 1.0),
                                     "unit": units[name]}
                lines.append(json.dumps({"workload": workload, "traced": False,
                                         "end_to_end": metrics}))
        return lines

    ok = True
    cases = [
        ("identical", {}),
        ("cpu 2x worse", {("w_one", "cpu_us_per_addr"): 2.0}),
        ("rate 2x better", {("w_two", "addrs_per_s"): 2.0}),
    ]
    for label, scale in cases:
        got = compare(records({}), records(scale), spec, out=io.StringIO())
        if len(got) != 2 * len(spec):
            ok = False
            print(f"self-test {label}: {len(got)} verdicts, want {2 * len(spec)}")
        for key, v in got.items():
            want = "no change"
            if key in scale:
                want = "regression" if scale[key] > 1 and not spec[key[1]][0] else "gain"
            if v != want:
                ok = False
                print(f"self-test {label}: {key} gave {v}, want {want}")
    print("compare.py self-test:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a_lines, b_lines = (Path(p).read_text().splitlines() for p in argv[1:3])
    verdicts = compare(a_lines, b_lines, load_spec())
    return 1 if "regression" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
