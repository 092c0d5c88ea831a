"""Tests of the benchmark itself: span arithmetic, outcome classification,
metric names, and a reduced-size run of every workload."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import ops, run, spans

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(name, start, end, parent=None, work=None):
    return spans.Span(name, start, end, parent, op=0, work=work)


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("experiments.a", 1.0, 4.0, parent=0),
        _span("experiments.b", 3.0, 6.0, parent=0),  # overlaps its sibling
        _span("scheme.c", 2.0, 3.0, parent=1),
        _span("io.d", 8.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_count_work_fallbacks_and_errors():
    tree = [
        _span(spans.CIRCULANT, 0.0, 2.0, work=(9,)),
        _span(spans.CHOLESKY, 0.5, 1.5, parent=0),
        _span(spans.SIMULATE_BATCH, 2.0, 3.0, work=(1, 100)),
        _span(spans.SIMULATE_BATCH, 3.0, 4.0, work=(3, 100)),
        _span("model.check_moment_condition", 4.0, 5.0),
    ]
    tree[-1].error = "OverflowError"
    metrics = spans.layer_metrics(tree, passes=2, io_bytes=10.0)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["fbm.circulant.calls"] == 0.5
    assert value["fbm.circulant.s"] == pytest.approx(0.5)
    assert value["fbm.circulant.nodes"] == 4.5
    assert value["fbm.circulant.fallbacks"] == 0.5
    assert value["fbm.cholesky.s"] == pytest.approx(0.5)
    assert value["scheme.simulate_batch.path_steps"] == 200
    assert value["scheme.simulate_batch.path_steps_per_s"] == pytest.approx(200.0)
    assert value["scheme.simulate_batch.mean_width"] == pytest.approx(2.5)
    assert value["model.check_moment_condition.errors"] == 0.5
    assert value["io.bytes"] == 10.0


def test_tracer_wraps_every_binding_and_restores_it():
    import fcir.experiments
    import fcir.scheme

    original = fcir.scheme.simulate_batch
    with spans.Tracer() as tracer:
        assert fcir.experiments.simulate_batch is fcir.scheme.simulate_batch
        assert fcir.scheme.simulate_batch is not original
        params = fcir.CirParams(2.0, 0.5, 0.5, 1.0)
        fcir.scheme.simulate_batch(np.array([[0.1, -0.1]]), 0.5, params)
    assert fcir.scheme.simulate_batch is original
    assert fcir.experiments.simulate_batch is original
    assert [s.name for s in tracer.spans] == [spans.SIMULATE_BATCH]
    assert tracer.spans[0].work == (1, 2)


@pytest.mark.parametrize(
    "code, stderr, problems, outcome",
    [
        (0, "", [], "ok"),
        (0, "", ["non-finite h"], "invalid"),
        (3, "error: sigma must be finite\n", [], "rejected"),
        (2, "error: bad flag\n", [], "rejected"),
        (3, "Traceback\n  line\nError\n", [], "bad-exit"),
        (3, "", [], "bad-exit"),
        (1, "error: x\n", [], "bad-exit"),
        (None, "", [], "crash"),
    ],
)
def test_classify(code, stderr, problems, outcome):
    assert ops.classify(code, stderr, problems) == outcome


def _raise_system_exit(argv):
    raise SystemExit(2)


def _reject(argv):
    print("error: refused", file=sys.stderr)
    return 3


def _exit_zero_without_output(argv):
    return 0


@pytest.mark.parametrize(
    "main, expected, outcome",
    [
        (_raise_system_exit, "rejected", "crash"),
        (_reject, "rejected", "rejected"),
        (_exit_zero_without_output, "ok", "invalid"),
    ],
)
def test_run_op_classifies_escapes_and_rejections(tmp_path, main, expected, outcome):
    result = ops.run_op(ops.Op("probe", ("simulate",), expected), 1, tmp_path, main)
    assert result.outcome == outcome
    assert result.failed == (outcome != expected)
    assert not (tmp_path / "probe").exists()


def test_validation_rejects_nan_and_out_of_window_ratios(tmp_path):
    (tmp_path / "data.csv").write_text(
        "h,mean_abs_gap,ratio_vs_prev\n0.5,0.1,nan\n0.25,0.02,5.0\n0.125,nan,nan\n"
    )
    problems = ops.validate("malliavin-check", tmp_path)
    assert any("non-finite mean_abs_gap" in p for p in problems)
    assert any("gap ratio" in p for p in problems)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in ops.WORKLOADS.values()
    }
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_smoke_run(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    probes = {"check-conditions-overflow", "converge-grid-sigma-inf"}
    assert all(op["outcome"] == op["expected"] for op in record["ops"]
               if op["name"] not in probes)
    assert result["failed"] == sum(
        op["outcome"] != op["expected"] for op in record["ops"]
    ) * (record["passes"] + 1)
    assert not list(tmp_path.glob("tmp-*"))
    if trace:
        # Every traced op is one tree under the wrapped `cli.main`, whose self
        # time holds argument parsing and the handlers' inline work.
        lines = (tmp_path / f"{workload}-seed3-spans.jsonl").read_text().splitlines()
        tree = [spans.Span(**json.loads(line)) for line in lines[1:]]
        roots = [s for s in tree if s.parent is None]
        assert {s.name for s in roots} == {"cli.main"}
        assert sorted(s.op for s in roots) == sorted({s.op for s in tree})
        assert "cli.build_parser" in {s.name for s in tree}
        assert result["metrics"]["cli.self_s"]["value"] > 0
