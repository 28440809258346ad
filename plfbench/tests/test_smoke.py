"""Smoke test of the benchmark itself at a tiny geometry (8 taxa x 200 sites).

Run from the root of the repository::

    python3 -m pytest -q plfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from plfbench import bench, tracing  # noqa: E402
from plfbench.run import result_line  # noqa: E402
from plfbench.workloads import WORKLOADS, build_engine, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(WORKLOADS[name], taxa=8, sites=200, datasets=2)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def report(request):
    return bench.run_workload(tiny(request.param), seed=3, seconds=0.3, root=ROOT)


def test_passes_correctness_gate(report):
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] >= 1


def test_every_named_metric_is_emitted_with_its_unit(report):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = result_line(report, trace)["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_self_times_and_unattributed_add_up_to_the_traced_wall(report):
    trace = report["detail"]["trace"]
    assert trace["nesting_problems"] == []
    wall = trace["wall_s"]
    unattributed = report["per_layer"]["trace.unattributed_frac"] * wall
    total = sum(trace["compute_self_s"].values()) + unattributed
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    for name in bench.SPAN_NAMES:
        if name == "backing.flush":     # measured in teardown, outside the ops
            continue
        assert report["per_layer"][f"{name}.s"] == pytest.approx(
            trace["compute_self_s"][name] + trace["other_thread_busy_s"][name])


def test_spans_nest():
    inp = make_inputs(tiny("fulltrav"), seed=5, index=0)
    rec = tracing.Recorder()
    with rec:
        engine = build_engine(WORKLOADS["fulltrav"], inp, None)
        rec.enabled = True
        engine.full_traversals(1)
        rec.enabled = False
        engine.close()
    spans = rec.spans
    assert spans and tracing.check_nesting(spans) == []
    by_id = {s.sid: s for s in spans}
    inner = [s for s in spans if s.name == "kernels.propagate_inner"]
    assert inner and {by_id[s.parent].name for s in inner} <= {
        "kernels.update_clv", "kernels.edge_site_likelihoods"}
    # Wrappers are gone again after the block.
    from repro.phylo.likelihood import kernels
    assert not hasattr(kernels.update_clv, "__wrapped__")


def test_gate_rejects_a_differing_result():
    def run(results, counters=1):
        return bench.Run(args=[(0, None)] * len(results), results=results,
                         final_lnl=[-5.0], counters=[{"requests": counters}])

    a, b = run([1.0, 2.0]), run([1.0, 2.0 + 2**-51])
    assert bench.check(a, a, a) == []
    assert bench.check(b, a, a) and bench.check(a, b, a)
    assert bench.check(a, a, b)
    assert bench.check(a, run([1.0, 2.0], counters=2), a)
    assert bench.check(dataclasses.replace(a, error="boom"), a, a)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "plfbench"), tmp_path / "plfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "plfbench/run.py", "--workload", "spr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
