"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are run records written by run.py (.bench_out/*.json), given
as files or as directories of them.  For every workload and metric present
on both sides it prints the median of each side and the ratio NEW/BASE.  An
end-to-end metric whose NEW median is worse than BASE by more than its bound
in BENCHMARK.json is flagged; per-layer metrics have no bound and are only
printed.  Exits 1 if any metric is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {metric: [values]}} from run records under `path`."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        rec = json.loads(f.read_text())
        if "workload" not in rec or "metrics" not in rec:
            continue
        per = out.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def worse_by(base, new, better):
    """Share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base, new, spec):
    """Rows (workload, metric, base median, new median, ratio, flagged)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({n: m["better"] for n, m in bounds.items()})
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in sorted(set(base[workload]) & set(new[workload])):
            b = statistics.median(base[workload][metric])
            n = statistics.median(new[workload][metric])
            ratio = n / b if b else float("nan")
            flagged = (metric in bounds and worse_by(
                b, n, better[metric]) > bounds[metric]["bound"])
            rows.append((workload, metric, b, n, ratio, flagged))
    return rows


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)
    for workload, metric, b, n, ratio, flagged in rows:
        print("%-15s %-40s %12.6g %12.6g  x%.3f%s"
              % (workload, metric, b, n, ratio,
                 "  WORSE BEYOND BOUND" if flagged else ""))
    return 1 if any(r[-1] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
