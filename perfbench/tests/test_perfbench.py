"""Self-tests of the benchmark: miniature workloads, the correctness gate,
and the self-time arithmetic of the span analysis."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_miniature_prints_every_metric_with_its_unit(trace, section, capsys):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in workloads.WORKLOADS:
        w = workloads.miniature(workloads.WORKLOADS[name])
        result = run.summarize(run.measure(w, 3, 0.0, bool(trace)), bool(trace))
        lines = capsys.readouterr().out.splitlines()
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for metric in expected:
            assert any(line.lstrip().startswith(metric) for line in lines), metric


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.fixture(scope="module")
def finished_cycle(tmp_path_factory):
    """One real run + eval of the smallest workload, outputs kept."""
    work = tmp_path_factory.mktemp("cycle")
    w = workloads.miniature(workloads.WORKLOADS["deep_narrow"])
    workloads.prepare(w, 5, work)
    run_proc = run.spawn(work, "run", "out", work / "stamp", "-", 120)
    eval_proc = run.spawn(work, "eval", "out", "-", "-", 120)
    assert run_proc.code == 0 and eval_proc.code == 0
    return work / "out", (work / "out" / "report.json").read_bytes()


def test_clean_cycle_passes(finished_cycle):
    out, reference = finished_cycle
    assert run.check_cycle(out, 0, 0, reference) == []


def test_tampered_report_is_a_failure(finished_cycle):
    out, reference = finished_cycle
    tampered = reference.replace(b'"test_error_rate": 0', b'"test_error_rate": 1', 1)
    assert tampered != reference
    assert run.check_cycle(out, 0, 0, tampered) == [
        "report.json differs from the first run of this seed"]


def test_eval_mismatch_is_a_failure(finished_cycle, tmp_path):
    out, reference = finished_cycle
    evaluated = json.loads((out / "eval.json").read_text())
    variant = sorted(evaluated)[0]
    depth = sorted(evaluated[variant])[0]
    evaluated[variant][depth]["matches_report"] = False
    copy = tmp_path / "out"
    copy.mkdir()
    (copy / "report.json").write_bytes(reference)
    (copy / "eval.json").write_text(json.dumps(evaluated))
    assert run.check_cycle(copy, 0, 0, reference) == [
        f"eval does not reproduce {variant} {depth}"]
    assert run.check_cycle(copy, 0, 3, reference)[0] == "eval exited 3"
    assert run.check_cycle(copy, 2, 0, reference) == ["run exited 2"]


def test_failed_cycles_are_counted(monkeypatch):
    w = workloads.miniature(workloads.WORKLOADS["deep_narrow"])
    original = run.Bench.cycle

    def tamper_after_first(self, inst, traced):
        c = original(self, inst, traced)
        if inst.reference is not None:
            inst.reference = b"tampered"
        return c

    monkeypatch.setattr(run.Bench, "cycle", tamper_after_first)
    bench = run.measure(w, 7, 0.0, trace=False)
    result = run.summarize(bench, trace=False)
    assert result["attempted"] == len(bench.instances) + 1
    assert result["failed"] == 1 and result["correct"] is False


def test_timings_are_scaled_to_the_reference_speed(capsys):
    bench = run.Bench(workloads.WORKLOADS["deep_narrow"], 1, ROOT, 0.0)
    ref = run.REFERENCE_S
    # The host ran at half the reference speed until the first eval. Run
    # and set-up go by the reference run before them, eval by the one after.
    bench.references = [2 * ref, ref, ref, ref]
    bench.cycles = [run.Cycle(False, 4.0, 0.4, 0.3, 50.0, 5.0, 0.4),
                    run.Cycle(False, 1.8, 0.2, 0.2, 50.0, 2.0, 0.3),
                    run.Cycle(False, 2.4, 0.2, 0.4, 50.0, 2.0, 0.5)]
    metrics = run.end_to_end(bench)
    assert metrics["run_cpu_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["eval_cpu_s"] == pytest.approx(0.3)
    assert metrics["peak_rss_mb"] == 50.0
    assert "run_cpu_s 2.4000 s, setup_s 0.2000 s, eval_cpu_s 0.3000 s" \
        in capsys.readouterr().out


def test_self_time_subtracts_direct_children(tmp_path):
    tracer = spans.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def inner():
        return traced_leaf() + traced_leaf()

    traced_inner = tracer.wrap("m.inner", inner)
    traced_outer = tracer.wrap("m.outer", lambda: traced_inner() + traced_leaf())
    assert traced_outer() == 3
    tracer.save(tmp_path / "t.npz")
    table = spans.SpanTable(tmp_path / "t.npz")

    assert table.calls("m.leaf") == 3 and table.calls("m.outer") == 1
    outer, inner_id = table.ids("m.outer")[0], table.ids("m.inner")[0]
    leaves = table.ids("m.leaf")
    assert table.parent[outer] == -1
    assert list(table.parent[leaves]) == [inner_id, inner_id, outer]
    expected = table.duration[outer] - table.duration[inner_id] \
        - table.duration[leaves[2]]
    assert table.self_s("m.outer") == pytest.approx(expected)
    assert table.self_s("m.outer", "m.inner", "m.leaf") == \
        pytest.approx(table.total_s("m.outer"))
