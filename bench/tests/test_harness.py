"""Smoke tests of the benchmark harness at tiny workload sizes.

    python3 -m pytest bench/tests

Each end-to-end run must emit every end-to-end metric of BENCHMARK.json
with its unit and run only plain ``buffon`` subprocesses (tracing off); the
traced run must emit every per-layer metric, with draw spans nested under
the kernel call that made them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = "0.05"


def _run_main(capsys, *args: str) -> dict:
    assert run.main(["--seed", "3", "--seconds", "0.1", "--scale", SCALE, *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_run_emits_every_metric_untraced(capsys, monkeypatch, workload):
    commands = []
    measure = run.run_command

    def spy(argv, cwd, env, timeout=run.COMMAND_TIMEOUT_S):
        commands.append((argv, env["PYTHONPATH"].split(os.pathsep)))
        return measure(argv, cwd, env, timeout)

    monkeypatch.setattr(run, "run_command", spy)
    result = _run_main(capsys, "--workload", workload, "--trace", "0")

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > run.MIN_REPEATS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Tracing is off: every measured process is the plain CLI (or its import),
    # with the checkout's src first on the path and no harness module on it.
    for argv, path in commands:
        assert argv[1:3] == ["-m", "buffon.cli"] or argv[1:] == ["-c", "import buffon.cli"]
        assert path[0] == str(run.SRC)
        assert str(BENCH) not in path


def test_traced_run_emits_every_layer_metric_and_nests_spans(capsys):
    result = _run_main(capsys, "--workload", "triangle", "--trace", "1")

    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected

    report = json.loads((run.WORK / "triangle-seed3-trace1.json").read_text(encoding="utf-8"))
    spans = report["tracing"]["spans"]
    by_id = {s["id"]: s for s in spans}
    draws = [s for s in spans if s["name"] == "sampling.random"]
    assert draws
    for draw in draws:
        parent = by_id[draw["parent"]]
        assert parent["name"] in ("estimators.run_triangle_trials", "estimators.run_needle_trials")
        assert parent["start_ns"] <= draw["start_ns"] <= draw["end_ns"] <= parent["end_ns"]
    # In the traced CLI command the kernel call nests under cli.main.
    kernels = [s for s in spans if s["name"] == "estimators.run_triangle_trials" and s["parent"] is not None]
    assert kernels
    assert all(by_id[k["parent"]]["name"] == "cli.main" and k["trace"] == k["parent"] for k in kernels)
    assert report["metrics"]["trace.overhead_ratio"]["n"] >= 1


def test_wrapper_spans_nest_under_their_parent():
    tracer = tracing.Tracer()
    rng = tracing.TimedRng(np.random.default_rng(0), tracer)
    inner = tracer.traced("inner", lambda: rng.random(3))
    with tracer.span("outer") as outer:
        rng.random(6)
        inner()
    first_draw, inner_span, second_draw = tracer.spans[1:]
    assert (first_draw.name, first_draw.parent, first_draw.attrs) == ("sampling.random", outer.id, {"uniforms": 6})
    assert (inner_span.name, inner_span.parent) == ("inner", outer.id)
    assert second_draw.parent == inner_span.id
    assert {s.trace for s in tracer.spans} == {outer.id}
    assert tracer.self_ns(outer) == outer.ns - first_draw.ns - inner_span.ns


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "triangle", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
