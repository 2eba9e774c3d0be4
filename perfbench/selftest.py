"""Tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the package's own test run, which
collects ``test_*.py``: each tiny benchmark run takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_repeats_its_digest(workload):
    plain, digest = tiny_run(workload, trace=0)
    traced, traced_digest = tiny_run(workload, trace=1)
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # the same seed gives the same outcome labels, fixed points and verdicts,
    # with and without the tracing wrappers
    assert digest == traced_digest


def test_runs_outside_a_checkout_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _wrong_label(iterate):
    def mutated(*args, **kwargs):
        traj = iterate(*args, **kwargs)
        kind = "divergent" if traj.outcome.kind != "divergent" else "converged"
        traj.outcome = dataclasses.replace(traj.outcome, kind=kind)
        return traj

    return mutated


def _wrong_fixed_point(solve):
    def mutated(*args, **kwargs):
        records = solve(*args, **kwargs)
        for rec in records:
            rec.point = workloads.Element(rec.point.x + 1e-3, rec.point.y)
        return records

    return mutated


def _wrong_closed_form(closed_form):
    def mutated(*args, **kwargs):
        records = closed_form(*args, **kwargs)
        rec = records[-1]
        rec.point = workloads.Element(rec.point.x * 1.001, rec.point.y)
        return records

    return mutated


@pytest.mark.parametrize(
    "workload, module, name, mutate, items",
    [
        ("orbits", "dynamics", "iterate", _wrong_label, range(10)),
        ("scenarios", "fixed_points", "solve_fixed_points_numeric", _wrong_fixed_point, range(5)),
        ("scenarios", "fixed_points", "closed_form_fixed_points_type11", _wrong_closed_form, range(2)),
    ],
)
def test_a_wrong_result_fails_the_item(tmp_path, workload, module, name, mutate, items):
    make = workloads.WORKLOADS[workload][0]
    ctx, all_items = make(5, str(tmp_path))
    runner = bench.Runner(workload, ctx, [all_items[i] for i in items])
    original = getattr(sys.modules[f"gonosim.{module}"], name)
    undo = tracing.patch({id(original): (original, mutate(original))}, tracing.package_modules())
    try:
        runner.loop(count=len(runner.items))
    finally:
        tracing.unpatch(undo)
    assert runner.attempted == len(runner.items)
    assert runner.failed == runner.attempted, runner.errors


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.current_item = 7
    tracer.install()
    try:
        spec = workloads.gs.random_stochastic(2, 2, 0)
        z = workloads.gs.Element.from_vector(np.full(4, 0.25), 2)
        workloads.gs.iterate(z, spec, "V")
    finally:
        tracer.uninstall()
    layers, top_self_ms = tracer.layer_metrics()
    steps = layers["dynamics.iterate.steps"][0]
    assert layers["dynamics.iterate.calls"][0] == 1
    assert layers["dynamics.apply_V.calls"][0] == layers["dynamics.apply_W.calls"][0] == steps
    assert layers["algebra.AlgebraSpec.is_stochastic.calls"][0] == steps
    spans = tracer.span_arrays()
    assert set(spans["item"]) == {7}
    total_ms = (spans["end_ns"] - spans["start_ns"])[spans["parent"] < 0].sum() / 1e6
    assert 0 < top_self_ms <= total_ms
    assert layers["dynamics.iterate.self_ms"][0] < layers["dynamics.iterate.total_ms"][0]
    # the wrappers are gone again
    assert workloads.gs.iterate is workloads.gs.dynamics.iterate
    assert not hasattr(workloads.gs.iterate, "__wrapped__")
