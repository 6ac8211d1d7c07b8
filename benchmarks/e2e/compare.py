"""Judge sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.jsonl            # spread of one set
    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl    # B against base A

Each file holds the records ``run.py --output FILE`` appended, any number per
workload.  With one file, every workload x end-to-end metric gets its
median and its spread — the distance between the first and third quartile as
a share of the median — next to its bound.  With two, it gets both medians,
the ratio B/A, the bound, and a verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  it is not, but either set's spread is wider than the bound
                  and not every run of B reads better than every run of A;
* ``ok``          otherwise.

Exit status is 1 if any row is ``worse`` (two files) or any spread exceeds
its bound (one file).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import load_spec


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): values}`` of the untraced runs in one file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base = load(sys.argv[1])
    change = load(sys.argv[2]) if len(sys.argv) == 3 else None
    bad = False
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a = base.get((workload, name))
            if not a:
                continue
            mid_a = statistics.median(a)
            if change is None:
                share = spread(a)
                verdict = "steady" if share <= bound / 3 else "ok" if share <= bound else "noisy"
                bad |= verdict == "noisy"
                print(
                    f"{workload:16s} {name:15s} n={len(a):<3d} median {mid_a:12.4f} {metric['unit']:6s}"
                    f" spread {share:7.2%}  bound {bound:4.0%}  {verdict}"
                )
                continue
            b = change.get((workload, name))
            if not b:
                continue
            mid_b = statistics.median(b)
            worse_by = (mid_b - mid_a) / mid_a if lower else (mid_a - mid_b) / mid_a
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if worse_by > bound:
                verdict = "worse"
            elif max(spread(a), spread(b)) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            bad |= verdict == "worse"
            print(
                f"{workload:16s} {name:15s} A {mid_a:12.4f} (n={len(a)})  B {mid_b:12.4f} (n={len(b)})"
                f" {metric['unit']:6s} B/A {mid_b / mid_a:6.3f}  bound {bound:4.0%}  {verdict}"
            )
    return int(bad)


if __name__ == "__main__":
    raise SystemExit(main())
