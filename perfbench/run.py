"""ncgrav benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload exact-calculus --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists): exact-calculus, numeric-grid,
cli-tables.  A run builds the workload's items from the seed, then runs
passes over them, each item timed on its own, until the measured time
reaches --seconds (at least three passes).  Every output of every pass is
checked outside the timed calls.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1.  A traced run spends the first half of its
time untraced and the second half with tracer.py's spans installed; the
ratio of the two pass times is trace.overhead_frac.  A full run record
(versions, host, per-item times, failures) is written to .bench_out/.

The exit code is 0 only if every check passed.  The program is imported
from src/ of the checkout this file sits in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {"exact-calculus": "exact_calculus",
             "numeric-grid": "numeric_grid",
             "cli-tables": "cli_tables"}
MIN_PASSES = 3
SETUP_PROBES = 3
REF_LOOP_N = 1_000_000


def _use_checkout_source():
    """Put the checkout's src/ first on the path; fail if it is missing."""
    if not (SRC / "ncgrav" / "__init__.py").is_file():
        sys.exit("error: no ncgrav package under %s" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import ncgrav
    if Path(ncgrav.__file__).resolve().parent != SRC / "ncgrav":
        sys.exit("error: ncgrav imported from %s, not %s"
                 % (ncgrav.__file__, SRC))


def setup(workload, seed, size):
    """Import the workload and the layers it uses, build its items, and run
    a tiny instance once.  Returns (module, items, seconds)."""
    t0 = time.perf_counter()
    mod = importlib.import_module(WORKLOADS[workload])
    items = mod.build(seed, size)
    for _label, run, _check, _units in mod.build(seed, "tiny"):
        run()
    return mod, items, time.perf_counter() - t0


def probe_setup(workload, seed, size):
    """Median set-up time over fresh interpreters (the import counts)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--size", size],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit("error: set-up probe failed:\n%s" % proc.stderr)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times), times


def ref_loop():
    """Median time of a fixed pure-Python loop, to make host drift visible."""
    def once():
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP_N):
            acc += i * i % 7
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(3))


class Passes:
    """Runs passes over the items; records per-item times and check failures."""

    def __init__(self, items):
        self.items = items
        self.times = []          # one list of per-item seconds per pass
        self.attempted = 0
        self.failures = []       # (pass, item index, reason)

    def run_pass(self, tracer=None):
        """One pass; returns its (label, output) pairs."""
        npass = len(self.times)
        times, outputs = [], []
        for i, (label, run, _check, _units) in enumerate(self.items):
            if tracer is not None:
                tracer.label, tracer.item = label, "%s#%d" % (label, i)
            t0 = time.perf_counter()
            try:
                out = run()
            except (Exception, SystemExit):
                out = None
                self.failures.append((npass, i, traceback.format_exc()))
            times.append(time.perf_counter() - t0)
            outputs.append((label, out))
        self.times.append(times)
        for i, ((_l, _r, check, _u), (_label, out)) in enumerate(
                zip(self.items, outputs)):
            self.attempted += 1
            if out is not None:
                reason = check(out)
                if reason is not None:
                    self.failures.append((npass, i, reason))
        return outputs

    def run_for(self, seconds, min_passes):
        """Passes until the next would end past `seconds` of measured time."""
        start = len(self.times)
        measured = 0.0
        while True:
            self.run_pass()
            measured += sum(self.times[-1])
            done = len(self.times) - start
            if done >= min_passes and measured * (done + 1) / done > seconds:
                return

    def failed(self):
        return len({(p, i) for p, i, _reason in self.failures})

    def best(self):
        """Per-item minimum over the passes (see NOTES.md, Statistics)."""
        return [min(col) for col in zip(*self.times)]


def pass_times(passes, first=0, last=None):
    return [sum(t) for t in passes.times[first:last]]


def end_to_end(passes, setup_s):
    item_ms = sorted(1e3 * t for t in passes.best())
    p95 = (statistics.quantiles(item_ms, n=20, method="inclusive")[18]
           if len(item_ms) > 1 else item_ms[0])
    return {
        "setup_s": setup_s,
        "pass_s": sum(item_ms) / 1e3,
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_p95": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced_metrics(mod, passes, seconds, ref_s):
    """Half the time untraced, half traced; per-layer metrics and overhead."""
    import tracer as tracing
    passes.run_for(seconds / 2, 2)
    untraced = len(passes.times)
    tr = tracing.Tracer()
    tr.install()
    snapshots, first_outputs = [], None
    try:
        measured = 0.0
        while not snapshots or measured < seconds / 2:
            outputs = passes.run_pass(tr)
            first_outputs = first_outputs or outputs
            snapshots.append(tr.snapshot())
            measured += sum(passes.times[-1])
    finally:
        tr.uninstall()
        tr.label = tr.item = None
    units = {}
    for label, _run, _check, n in passes.items:
        units[label] = units.get(label, 0) + n
    values, missing = tracing.layer_metrics(
        snapshots, units, mod.layer_counts(first_outputs), tr.absent)
    values["trace.overhead_frac"] = (
        statistics.median(pass_times(passes, untraced))
        / statistics.median(pass_times(passes, 0, untraced)) - 1.0)
    values["host.ref_loop_s"] = ref_s
    return values, missing, tr


def host_record():
    rec = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "cpu_model": None,
           "git_commit": _git_commit()}
    for lib in ("numpy", "scipy", "mpmath"):
        try:
            rec[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            rec[lib] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return rec


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used by the probes)")
    args = p.parse_args(argv)
    spec = benchmark_spec()
    _use_checkout_source()

    if args.setup_only:
        _mod, _items, setup_s = setup(args.workload, args.seed, args.size)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    mod, items, own_setup_s = setup(args.workload, args.seed, args.size)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "host": host_record(), "setup_in_run_s": own_setup_s,
              "items": len(items)}
    passes = Passes(items)
    if args.trace:
        record["host.ref_loop_s"] = ref_s = ref_loop()
        values, missing, tr = traced_metrics(mod, passes, args.seconds, ref_s)
        names = spec["per_layer"]
        record.update(absent_metrics=missing, absent_targets=tr.absent,
                      spans_dropped=tr.dropped)
    else:
        setup_s, probes = probe_setup(args.workload, args.seed, args.size)
        record.update(setup_probes_s=probes, **{"host.ref_loop_s": ref_loop()})
        passes.run_for(args.seconds, MIN_PASSES)
        values = end_to_end(passes, setup_s)
        names = spec["end_to_end"]
        tr = None

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    failed = passes.failed()
    result = {"correct": failed == 0, "attempted": passes.attempted,
              "failed": failed, "metrics": metrics}
    record.update(result, passes=len(passes.times), item_times_s=passes.times,
                  failures=[{"pass": n, "item": i, "reason": r}
                            for n, i, r in passes.failures[:20]])
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if tr is not None:
        (OUT / (stem + "-spans.json")).write_text(
            json.dumps(tr.span_records()) + "\n")
    for n, i, reason in passes.failures[:5]:
        print("FAILED pass %d item %d: %s" % (n, i, reason.strip()),
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
