"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the benchmark at --size tiny, so they check its plumbing (every
metric emitted with its unit, failures counted, absent targets tolerated),
not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

run._use_checkout_source()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _corrupted(item, corrupt):
    label, run_item, check, units = item
    return label, lambda: corrupt(run_item()), check, units


def test_perturbed_coefficient_counts_as_failure():
    import exact_calculus
    from ncgrav.coeff import Coeff

    def corrupt(out):
        form = out[4]  # d(f) g + f d(g)
        elem = next(iter(form.parts.values()))
        key = next(iter(elem.terms))
        elem.terms[key] = elem.terms[key] + Coeff.one()
        return out

    item = exact_calculus.build(1, "tiny")[0]
    clean = run.Passes([item])
    clean.run_pass()
    assert (clean.attempted, clean.failed()) == (1, 0)
    bad = run.Passes([_corrupted(item, corrupt)])
    bad.run_pass()
    assert (bad.attempted, bad.failed()) == (1, 1)


def test_changed_csv_byte_counts_as_failure():
    import cli_tables

    def corrupt(out):
        path = Path(out[1])
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))
        return out

    item = cli_tables.build(1, "tiny")[0]
    clean = run.Passes([item])
    clean.run_pass()
    assert clean.failed() == 0
    bad = run.Passes([_corrupted(item, corrupt)])
    bad.run_pass()
    assert bad.failed() == 1


def test_missing_target_is_reported_absent(monkeypatch):
    import tracer
    from ncgrav import exactalg

    monkeypatch.delattr(exactalg, "exterior_d_leibniz")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["exactalg.exterior_d_leibniz"]
    values, missing = tracer.layer_metrics([{}], {}, {}, tr.absent)
    assert "exactalg.exterior_d_leibniz.self_s" in missing
    assert values["exactalg.exterior_d_leibniz.self_s"] == 0.0
    assert "exactalg.exterior_d_formula.self_s" not in missing


def test_compare_flags_only_changes_beyond_the_bound():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["pass_s"]
    base = {"numeric-grid": {"pass_s": [1.0, 1.1, 0.9]}}
    slightly = {"numeric-grid": {"pass_s": [1.0 + bound / 2]}}
    much = {"numeric-grid": {"pass_s": [1.0 + 2 * bound]}}
    assert not compare.compare(base, slightly, SPEC)[0][-1]
    assert compare.compare(base, much, SPEC)[0][-1]
    assert not compare.compare(much, base, SPEC)[0][-1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
