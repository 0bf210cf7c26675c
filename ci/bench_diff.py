#!/usr/bin/env python3
"""Report smoke stages that got slower than the committed trajectory.

    python3 ci/bench_diff.py SMOKE_JSONL

SMOKE_JSONL holds one JSON object per line, as bench_perf_pipeline
--smoke prints them. The reference is the "change" side of the
"smoke" lines in the newest BENCH_<n>.json at the repository root
(largest n); where it holds several runs of a line, each field's
median over them. Every numeric field whose name ends in _ms or _us
(lower is better) or _per_s (higher is better) is compared between
lines with the same "bench" name; a field more than 10 percent
worse is printed.

The script only reports and always exits 0: the committed numbers
come from whichever host measured them, so a difference is a prompt
to look, not a verdict.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THRESHOLD_PCT = 10.0


def direction(field):
    if field.endswith("_per_s"):
        return "higher"
    if field.endswith("_ms") or field.endswith("_us"):
        return "lower"
    return None


def by_bench(lines):
    """Group lines by "bench"; each numeric field becomes the median
    over the lines of its group (a file may hold several runs)."""
    groups = {}
    for line in lines:
        if isinstance(line, dict) and "bench" in line:
            groups.setdefault(line["bench"], []).append(line)
    out = {}
    for bench, group in groups.items():
        fields = {}
        for line in group:
            for field, value in line.items():
                if (isinstance(value, (int, float))
                        and not isinstance(value, bool)):
                    fields.setdefault(field, []).append(value)
        out[bench] = {field: statistics.median(values)
                      for field, values in fields.items()}
    return out


def newest_bench_file(root):
    best = None
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match and (best is None or int(match.group(1)) > best[0]):
            best = (int(match.group(1)), path)
    return best[1] if best else None


def main():
    if len(sys.argv) != 2:
        print("usage: ci/bench_diff.py SMOKE_JSONL", file=sys.stderr)
        return 2
    smoke_path = sys.argv[1]

    ref_path = newest_bench_file(ROOT)
    if ref_path is None:
        print("bench-diff: no BENCH_*.json committed; nothing to compare")
        return 0
    try:
        with open(ref_path) as f:
            reference = by_bench(json.load(f)["smoke"]["change"])
        with open(smoke_path) as f:
            current = by_bench(json.loads(line) for line in f
                               if line.startswith("{"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench-diff: cannot compare ({e}); skipped")
        return 0

    slower = 0
    compared = 0
    for bench, now in sorted(current.items()):
        ref = reference.get(bench)
        if ref is None:
            continue
        for field, value in now.items():
            better = direction(field)
            old = ref.get(field)
            if better is None or old is None or old <= 0 or value <= 0:
                continue
            compared += 1
            # Percent slower, whichever way the unit points.
            worse = (value / old - 1.0 if better == "lower"
                     else old / value - 1.0) * 100.0
            if worse > THRESHOLD_PCT:
                slower += 1
                print(f"bench-diff: {bench}.{field}: {old:g} -> "
                      f"{value:g} ({worse:.0f}% slower)")
    print(f"bench-diff: {compared} stage metrics vs "
          f"{os.path.basename(ref_path)}, {slower} over "
          f"{THRESHOLD_PCT:g}% slower (report only; hosts differ)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
